(* Timer edge cases: registrations in the past, cancellation, and identical
   deadlines. The timer thread is asynchronous, so "fires" is observed by
   polling a flag with a generous bound and "never fires" by a settle
   delay well past the registered time. *)

module Timer = Preo_runtime.Timer

let wait_for ?(timeout = 5.0) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let past_deadline_fires_immediately () =
  let fired = Atomic.make false in
  ignore (Timer.register (Unix.gettimeofday () -. 1.0) (fun () -> Atomic.set fired true));
  Alcotest.(check bool)
    "a deadline already in the past still fires (promptly)" true
    (wait_for (fun () -> Atomic.get fired))

let cancelled_registration_never_fires () =
  let fired = Atomic.make false in
  let h =
    Timer.register (Unix.gettimeofday () +. 0.15) (fun () -> Atomic.set fired true)
  in
  Timer.cancel h;
  (* Well past the registered time: the callback must not have run. *)
  Thread.delay 0.4;
  Alcotest.(check bool) "cancelled callback never ran" false (Atomic.get fired);
  (* Double-cancel and cancelling after the time passed are no-ops. *)
  Timer.cancel h

let identical_deadlines_both_fire () =
  let count = Atomic.make 0 in
  let at = Unix.gettimeofday () +. 0.05 in
  ignore (Timer.register at (fun () -> ignore (Atomic.fetch_and_add count 1)));
  ignore (Timer.register at (fun () -> ignore (Atomic.fetch_and_add count 1)));
  Alcotest.(check bool)
    "two registrations at the same instant both fire" true
    (wait_for (fun () -> Atomic.get count = 2));
  Alcotest.(check int) "exactly twice" 2 (Atomic.get count)

let cancel_one_of_two_keeps_the_other () =
  let fired = Atomic.make 0 in
  let at = Unix.gettimeofday () +. 0.05 in
  let h1 = Timer.register at (fun () -> ignore (Atomic.fetch_and_add fired 1)) in
  ignore (Timer.register at (fun () -> ignore (Atomic.fetch_and_add fired 10)));
  Timer.cancel h1;
  Alcotest.(check bool) "surviving registration fired" true
    (wait_for (fun () -> Atomic.get fired > 0));
  Thread.delay 0.1;
  Alcotest.(check int) "only the survivor fired" 10 (Atomic.get fired)

(* A NaN time is refused: folded into the thread's next-wake minimum it
   would make [Unix.select] fail with EINVAL and kill the timer thread, so
   no later wake-up anywhere in the process would fire. *)
let nan_registration_rejected () =
  (match Timer.register nan ignore with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "NaN registration must raise Invalid_argument");
  let fired = Atomic.make false in
  Timer.wake_at (Unix.gettimeofday () +. 0.05) (fun () -> Atomic.set fired true);
  Alcotest.(check bool) "a finite wake after the NaN one still fires" true
    (wait_for (fun () -> Atomic.get fired))

(* Shutdown joins the timer thread (no orphan), drops pending registrations,
   and leaves the module restartable: a later registration spins the thread
   back up and fires normally. *)
let shutdown_joins_and_restarts () =
  let dropped = Atomic.make false in
  ignore
    (Timer.register
       (Unix.gettimeofday () +. 0.15)
       (fun () -> Atomic.set dropped true));
  (* Returns only after the timer thread has been joined. *)
  Timer.shutdown ();
  (* Idempotent with no thread running. *)
  Timer.shutdown ();
  Thread.delay 0.3;
  Alcotest.(check bool) "pending registration dropped by shutdown" false
    (Atomic.get dropped);
  let fired = Atomic.make false in
  ignore
    (Timer.register
       (Unix.gettimeofday () +. 0.02)
       (fun () -> Atomic.set fired true));
  Alcotest.(check bool) "module restarts after shutdown" true
    (wait_for (fun () -> Atomic.get fired));
  Timer.shutdown ()

(* Hammer shutdown against concurrent registers: every registration must
   either be dropped by a shutdown cut or fire — none may be silently
   stranded on a dead thread. After the storm the module must still work. *)
let shutdown_register_storm () =
  let fired = Atomic.make 0 and registered = Atomic.make 0 in
  let stop = Atomic.make false in
  let registrar () =
    while not (Atomic.get stop) do
      ignore
        (Timer.register
           (Unix.gettimeofday () +. 0.001)
           (fun () -> ignore (Atomic.fetch_and_add fired 1)));
      ignore (Atomic.fetch_and_add registered 1);
      Thread.yield ()
    done
  in
  let shutter () =
    while not (Atomic.get stop) do
      Timer.shutdown ();
      Thread.yield ()
    done
  in
  let ts =
    List.map
      (fun f -> Thread.create f ())
      [ registrar; registrar; shutter; shutter ]
  in
  Thread.delay 0.5;
  Atomic.set stop true;
  List.iter Thread.join ts;
  Timer.shutdown ();
  Alcotest.(check bool) "storm registered plenty" true
    (Atomic.get registered > 100);
  (* Liveness after the storm: a fresh registration restarts the thread. *)
  let after = Atomic.make false in
  ignore
    (Timer.register
       (Unix.gettimeofday () +. 0.02)
       (fun () -> Atomic.set after true));
  Alcotest.(check bool) "timer still live after storm" true
    (wait_for (fun () -> Atomic.get after));
  Timer.shutdown ()

let tests =
  [
    ("past deadline fires immediately", `Quick, past_deadline_fires_immediately);
    ("cancelled registration never fires", `Quick, cancelled_registration_never_fires);
    ("identical deadlines both fire", `Quick, identical_deadlines_both_fire);
    ("cancel one of two keeps the other", `Quick, cancel_one_of_two_keeps_the_other);
    ("NaN registration rejected", `Quick, nan_registration_rejected);
    ("shutdown joins and restarts", `Quick, shutdown_joins_and_restarts);
    ("shutdown/register storm", `Quick, shutdown_register_storm);
  ]
