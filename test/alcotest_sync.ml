(** Opened into every suite (see [test/dune]). Alcotest prints each
    assertion through process-global [Format] formatters, which are not
    safe to use from two domains at once, and the domain-sharded runner
    runs suites in parallel. This shadows the printing assertion calls
    with the same calls serialised by one mutex. *)

module Alcotest = struct
  include Alcotest

  let lock = Mutex.create ()

  let check ?here ?pos t msg expected actual =
    Mutex.protect lock (fun () ->
        Alcotest.check ?here ?pos t msg expected actual)

  let fail ?here ?pos msg =
    Mutex.protect lock (fun () -> Alcotest.fail ?here ?pos msg)

  let failf ?here ?pos fmt = Fmt.kstr (fun msg -> fail ?here ?pos msg) fmt

  (* the thunk runs outside the lock: it may itself assert *)
  let check_raises ?here ?pos msg exn f =
    let raised = match f () with () -> None | exception e -> Some e in
    Mutex.protect lock (fun () ->
        Alcotest.check_raises ?here ?pos msg exn (fun () ->
            Option.iter raise raised))
end
