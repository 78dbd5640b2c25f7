(* A single lazily-started timer thread that fires callbacks at absolute
   times. OCaml's [Condition] has no timed wait, so deadline-carrying engine
   operations register a wake-up here before parking; the callback simply
   broadcasts the engine's condition variable and the woken operation
   re-checks its own deadline. A callback that fires after its operation
   already completed is a harmless spurious broadcast.

   The thread sleeps in [Unix.select] on a self-pipe: registering an
   earlier wake-up writes one byte to the pipe to cut the sleep short.
   Entries are dropped once fired, so memory is bounded by the number of
   outstanding deadlines. Nothing here runs unless a wake-up is registered,
   so deadline-free programs pay nothing.

   Lifecycle: everything thread-specific — pipe, thread handle, stop flag —
   lives in one [state] record that [shutdown] detaches atomically under
   [lock]. A [register] racing a [shutdown] therefore sees either the old
   state (its entry is dropped with the rest, exactly as if it had lost the
   race outright and registered just before) or no state at all, in which
   case it starts a fresh thread that services it. The old failure mode —
   an entry added between shutdown's join and its state reset, poking a
   dying thread's pipe and then sitting in [entries] with nothing to fire
   it — cannot happen: the dying thread's state is unreachable the moment
   shutdown's first locked section ends. *)

type handle = int

type state = {
  s_rd : Unix.file_descr;
  s_wr : Unix.file_descr;
  s_thread : Thread.t;
  s_stop : bool ref;  (* under [lock]; tells this thread (only) to exit *)
}

let lock = Mutex.create ()
let entries : (handle * float * (unit -> unit)) list ref = ref []
let next_handle = ref 0
let state : state option ref = ref None

(* The wake-up time the thread is currently sleeping towards (under [lock]);
   registrations later than this need no self-pipe poke — the thread will
   rescan [entries] when it wakes anyway. *)
let next_wake = ref infinity

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let drain fd =
  let b = Bytes.create 64 in
  let rec go () =
    match restart_eintr (fun () -> Unix.read fd b 0 64) with
    | 64 -> go ()
    | _ -> ()
  in
  go ()

let rec thread_fn stop rd () =
  let now = Unix.gettimeofday () in
  Mutex.lock lock;
  if !stop then Mutex.unlock lock (* exit; shutdown closes the detached fds *)
  else begin
    let due, rest = List.partition (fun (_, at, _) -> at <= now) !entries in
    entries := rest;
    let next =
      List.fold_left (fun acc (_, at, _) -> Float.min acc at) infinity rest
    in
    next_wake := next;
    Mutex.unlock lock;
    List.iter (fun (_, _, f) -> try f () with _ -> ()) due;
    let timeout = if next = infinity then -1.0 else Float.max 0.0 (next -. now) in
    (match restart_eintr (fun () -> Unix.select [ rd ] [] [] timeout) with
     | [ _ ], _, _ -> drain rd
     | _ -> ());
    thread_fn stop rd ()
  end

(* Caller holds [lock] and has checked [!state = None]. *)
let start_locked () =
  let rd, wr = Unix.pipe () in
  let stop = ref false in
  next_wake := infinity;
  state := Some { s_rd = rd; s_wr = wr; s_thread = Thread.create (thread_fn stop rd) (); s_stop = stop }

(* Caller holds [lock]. *)
let poke s =
  try ignore (restart_eintr (fun () -> Unix.write s.s_wr (Bytes.make 1 'x') 0 1))
  with _ -> ()

(* A NaN time would poison the thread's [Float.min] fold (NaN wins it) and
   [Unix.select] would reject the timeout with EINVAL, killing the one
   thread every deadline in the process relies on; refuse it up front. *)
let register at f =
  if Float.is_nan at then invalid_arg "Timer.register: NaN wake-up time";
  Mutex.lock lock;
  incr next_handle;
  let h = !next_handle in
  entries := (h, at, f) :: !entries;
  (match !state with
   | Some s -> if at < !next_wake then begin next_wake := at; poke s end
   | None -> start_locked ());
  Mutex.unlock lock;
  h

let wake_at at f = ignore (register at f)

(* Removing the entry under [lock] is a complete cancellation: the thread
   only calls callbacks it partitioned out of [entries] under the same lock,
   so an entry still present here has not fired and never will. A handle
   whose callback already fired is simply absent — cancelling it is a
   no-op. *)
let cancel h =
  Mutex.lock lock;
  entries := List.filter (fun (h', _, _) -> h' <> h) !entries;
  Mutex.unlock lock

(* Stop and join the timer thread, dropping outstanding registrations (their
   callbacks never run). Detaching the whole state record under one lock
   section makes this idempotent and safe against concurrent [register]s:
   once the section ends, no other caller can reach the dying thread's pipe
   or stop flag, so a register observing [None] simply starts a replacement
   thread. The fds are closed only after the join, when the exited thread
   can no longer select on them, and without the lock — nothing else holds a
   reference to the detached state. *)
let shutdown () =
  Mutex.lock lock;
  let st = !state in
  (match st with
   | Some s ->
     s.s_stop := true;
     entries := [];
     next_wake := infinity;
     poke s; (* cut the select short so the thread sees its stop flag *)
     state := None
   | None -> ());
  Mutex.unlock lock;
  match st with
  | Some s ->
    Thread.join s.s_thread;
    (try Unix.close s.s_rd with _ -> ());
    (try Unix.close s.s_wr with _ -> ())
  | None -> ()
