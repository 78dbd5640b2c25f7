(* Shard-fabric phase: the host plus one [preoc worker] process on a
   round-trip connector. [tl] and [hd] stay on the host and the middle
   region runs on the worker, so each value crosses the wire twice and its
   round trip is timed entirely on the host. A session sets the fabric up
   (spawn, handshake, first round trip), runs a closed-loop capacity phase
   and two open-loop phases at fixed Poisson rates, then shuts down; every
   value must come back exactly once and in order, and the worker must
   exit with status 0. *)

open Preo_support
module Fbuf = Summary.Fbuf
module Shard = Preo_dist.Shard
module Shard_stats = Preo_runtime.Shard_stats
module Connector = Preo.Connector
module Port = Preo.Port

(* The singleton products make each fifo a relay chain of its own, which
   the partitioner cuts whenever it plans for more than one domain: three
   regions, two queue-shaped cuts. *)
let source =
  {|RoundTrip(tl;hd) =
  prod (i:1..1) Fifo1(tl;a)
  mult prod (i:1..1) Transform<id>(a;b)
  mult prod (i:1..1) Fifo1(b;hd)|}

(* Plan for two domains whatever the workload: with one, nothing is cut. *)
let domains = 2

let conn_name = "RoundTrip"
let high_rate = 1500.0
let low_rate = 300.0
let latency_every = 4

(* Unacked values per channel: at 256 the closed loop saturates near 2.9k
   round trips/s, which puts the fixed rates at about 50% and 10% load. *)
let window = 256
let drain_timeout = 10.0

type counters = { batches : int; items : int; reconnects : int }

let counters () =
  {
    batches = Atomic.get Shard_stats.batches;
    items = Atomic.get Shard_stats.items;
    reconnects = Atomic.get Shard_stats.reconnects;
  }

let diff a b =
  {
    batches = b.batches - a.batches;
    items = b.items - a.items;
    reconnects = b.reconnects - a.reconnects;
  }

type phase = {
  sent : int;
  received : int;
  lost : int;  (* never came back within the drain timeout *)
  bad : int;  (* out of order, duplicated or foreign values *)
  elapsed : float;  (* phase start to the last receipt *)
  send_block : float array;  (* Port.send durations, seconds *)
  late : float array;  (* send start - due time *)
  rt : float array;  (* receipt at hd - due time (closed loop: phase start) *)
  offered : float;  (* sends per second actually issued *)
  wire : counters;
  ack_rtt : float array;  (* Shard.latencies samples *)
}

type session = {
  setup_s : float;  (* spawn + handshake + first round trip *)
  closed : phase;
  high : phase;
  low : phase;
  clean : bool;  (* every worker exited 0 *)
  worker_cpu_s : float;  (* worker user+sys over the three phases *)
  phases_s : float;
}

let span_send = Spans.name "fabric.send"
let span_recv = Spans.name "fabric.recv"

(* Clock ticks of a process from /proc/<pid>/stat (utime + stime). *)
let proc_ticks pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    let line = input_line ic in
    close_in ic;
    (* fields after the parenthesised command name *)
    let rest =
      String.sub line (String.rindex line ')' + 2)
        (String.length line - String.rindex line ')' - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    int_of_string f.(11) + int_of_string f.(12)
  with _ -> 0

let clk_tck = 100.0

let place () =
  let plan = Shard.plan ~domains ~source ~name:conn_name ~lengths:[] () in
  let regions = Shard.boundary_regions ~domains ~source ~name:conn_name ~lengths:[] () in
  let tl = (List.assoc "tl" regions).(0) and hd = (List.assoc "hd" regions).(0) in
  let n = Array.length plan.Preo_runtime.Partition.regions in
  if n <> 3 || tl = hd then
    failwith
      (Printf.sprintf "round-trip plan: %d regions, tl in %d, hd in %d (want 3, apart)"
         n tl hd);
  fun r -> if r = tl || r = hd then 0 else 1

type load =
  | Closed of int  (* send this many values back to back *)
  | Open of float array  (* value [k] due at [start + d.(k)] *)

(* One phase; values are consecutive integers from [first]. *)
let run_phase ~h ~sched ~tl ~hd ~parent ~first load =
  let w0 = counters () in
  ignore (Shard.latencies h) (* drop samples taken before this phase *);
  let start = Clock.now () +. 0.002 in
  let total = match load with Closed n -> n | Open d -> Array.length d in
  let due k = match load with Closed _ -> start | Open d -> start +. d.(k) in
  let target = Atomic.make (-1) in
  let send_block = Fbuf.create () and late = Fbuf.create () in
  let last_start = ref start in
  let sender () =
    let sb = Spans.buf () and name = span_send in
    let k = ref 0 in
    let rec wait_until t =
      let now = Clock.now () in
      if now < t then begin
        Thread.delay (t -. now);
        wait_until t
      end
      else now
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set target !k)
      (fun () ->
        try
          while !k < total do
            let t = due !k in
            let a = wait_until t in
            Fbuf.add late (a -. t);
            let tr = Spans.active () in
            Port.send tl (Value.int (first + !k));
            let b = Clock.now () in
            Fbuf.add send_block (b -. a);
            if tr then Spans.record sb ~name ~parent ~req:(first + !k) a b;
            last_start := a;
            incr k
          done
        with Preo.Engine.Poisoned _ -> ())
  in
  let received = ref 0 and bad = ref 0 and last_receipt = ref start in
  let rt = Fbuf.create () in
  let receiver () =
    let sb = Spans.buf () and name = span_recv in
    let drain_deadline = ref infinity in
    let finished () =
      let t = Atomic.get target in
      if t >= 0 && !drain_deadline = infinity then
        drain_deadline := Clock.now () +. drain_timeout;
      (t >= 0 && !received >= t) || Clock.now () > !drain_deadline
    in
    try
      while not (finished ()) do
        let tr = Spans.active () in
        let a = Clock.now () in
        match Port.recv_opt ~deadline:(a +. 0.05) hd with
        | Error _ -> ()
        | Ok (Value.Int i) when i >= first + !received && i < first + total ->
          let b = Clock.now () in
          (* a gap means values were lost: count it, then resynchronise *)
          if i > first + !received then incr bad;
          Fbuf.add rt (b -. due (i - first));
          received := i - first + 1;
          last_receipt := b;
          if tr then Spans.record sb ~name ~parent ~req:i a b
        | Ok _ -> incr bad
      done
    with Preo.Engine.Poisoned _ -> ()
  in
  let ts = Preo.Task.spawn ~on:sched sender in
  let tr = Preo.Task.spawn ~on:sched receiver in
  (try Preo.Task.join ts with _ -> ());
  (try Preo.Task.join tr with _ -> ());
  let sent = Atomic.get target in
  {
    sent;
    received = !received;
    lost = max 0 (sent - !received);
    bad = !bad;
    elapsed = !last_receipt -. start;
    send_block = Fbuf.to_array send_block;
    late = Fbuf.to_array late;
    rt = Fbuf.to_array rt;
    offered = float_of_int sent /. (!last_start -. start);
    wire = diff w0 (counters ());
    ack_rtt = Array.of_list (Shard.latencies h);
  }

(* Raises [Failure] when the first round trip does not come back. *)
let session ~seed ~round ~parent ~closed_n ~high_s ~low_s =
  let place = place () in
  let t0 = Clock.now () in
  let h =
    Shard.host ~domains ~window ~latency_every ~nworkers:1 ~place
      ~workloads:(fun _ -> []) ~source ~name:conn_name ~lengths:[] ()
  in
  let tl = Shard.outport_at h "tl" 0 and hd = Shard.inport_at h "hd" 0 in
  let first_trip =
    match Port.send tl (Value.int 0) with
    | () -> (
      match Port.recv_opt ~deadline:(Clock.now () +. 10.0) hd with
      | Ok (Value.Int 0) -> None
      | Ok v -> Some ("returned " ^ Value.to_string v)
      | Error _ -> Some "timed out after 10s")
    | exception e -> Some (Printexc.to_string e)
  in
  (match first_trip with
   | Some msg ->
     ignore (Shard.shutdown h);
     failwith ("first round trip: " ^ msg)
   | None -> ());
  let t1 = Clock.now () in
  let sched = Connector.sched (Shard.connector h) in
  let pid = (Shard.worker_pids h).(0) in
  let ticks0 = proc_ticks pid and p0 = Clock.now () in
  let go ~first load = run_phase ~h ~sched ~tl ~hd ~parent ~first load in
  let closed = go ~first:1 (Closed closed_n) in
  let first = 1 + closed.sent in
  let high =
    go ~first
      (Open (Arrivals.poisson ~seed ~salt:(100 + round) ~rate:high_rate ~duration:high_s))
  in
  let first = first + high.sent in
  let low =
    go ~first
      (Open (Arrivals.poisson ~seed ~salt:(200 + round) ~rate:low_rate ~duration:low_s))
  in
  let ticks1 = proc_ticks pid and p1 = Clock.now () in
  let statuses = Shard.shutdown h in
  {
    setup_s = t1 -. t0;
    closed;
    high;
    low;
    clean =
      statuses <> [] && List.for_all (fun (_, st) -> st = Unix.WEXITED 0) statuses;
    worker_cpu_s = float_of_int (ticks1 - ticks0) /. clk_tck;
    phases_s = p1 -. p0;
  }
