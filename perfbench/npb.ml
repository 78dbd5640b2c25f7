(* NPB phase: CG class C with two slaves, the connector-based
   communication layer ([Comm.reo]) and the hand-written one ([Comm.hand])
   in one pair, in a seed-chosen order. The [Comm.t] closures are wrapped
   before [Cg.run] sees them, so every collective is timed from outside;
   the two variants must compute a bit-identical [zeta]. *)

open Preo_support
module Fbuf = Summary.Fbuf
module Comm = Preo_npb.Comm
module Cg = Preo_npb.Cg

type variant = Reo | Hand

type run = {
  variant : variant;
  setup_s : float;  (* building the communication layer *)
  run_s : float;  (* Cg.run's own timing: the kernel, matrix excluded *)
  zeta : float option;  (* None: did not finish *)
  steps : int;
  calls : int;  (* collectives issued *)
  allreduce : float array;  (* per-call durations, seconds *)
  barrier : float array;
  comm_s : float;  (* summed time inside collectives, all ranks *)
}

let nslaves = 2
let cls = Preo_npb.Workloads.C
let timeout = 20.0
let span_allreduce = Spans.name "comm.allreduce"
let span_barrier = Spans.name "comm.barrier"

type recorder = {
  allreduce_lat : Fbuf.t;
  barrier_lat : Fbuf.t;
  buf : Spans.buf;
  mutable calls_ : int;
}

(* Wrap a layer's collectives; one recorder per rank (ranks run on their
   own threads). *)
let wrap ~parent (c : Comm.t) =
  let per_rank =
    Array.init nslaves (fun _ ->
        { allreduce_lat = Fbuf.create (); barrier_lat = Fbuf.create ();
          buf = Spans.buf (); calls_ = 0 })
  in
  let timed ~rank ~barrier f =
    let r = per_rank.(rank) in
    let tr = Spans.active () in
    let a = Clock.now () in
    let v = f () in
    let b = Clock.now () in
    r.calls_ <- r.calls_ + 1;
    Fbuf.add (if barrier then r.barrier_lat else r.allreduce_lat) (b -. a);
    if tr then
      Spans.record r.buf
        ~name:(if barrier then span_barrier else span_allreduce)
        ~parent ~req:((rank lsl 32) lor r.calls_) a b;
    v
  in
  let c' =
    {
      c with
      Comm.allreduce =
        (fun ~rank x -> timed ~rank ~barrier:false (fun () -> c.allreduce ~rank x));
      allreduce_array =
        (fun ~rank xs ->
          timed ~rank ~barrier:false (fun () -> c.allreduce_array ~rank xs));
      barrier = (fun ~rank -> timed ~rank ~barrier:true (fun () -> c.barrier ~rank));
    }
  in
  (c', per_rank)

let run_one ~config ~parent variant =
  let t0 = Clock.now () in
  let comm =
    match variant with
    | Reo -> Comm.reo ~config ~nslaves ()
    | Hand -> Comm.hand ~nslaves
  in
  let setup_s = Clock.now () -. t0 in
  let comm', per_rank = wrap ~parent comm in
  let result = ref None in
  let t =
    Preo.Task.spawn (fun () -> result := Some (Cg.run ~comm:comm' ~cls ~nslaves))
  in
  (* watchdog: abort the communication layer if the kernel overruns *)
  let deadline = Clock.now () +. timeout in
  while !result = None && Clock.now () < deadline do
    Thread.delay 0.05
  done;
  let result = !result in
  if result = None then comm.Comm.abort ();
  (try Preo.Task.join t with _ -> ());
  comm.Comm.finish ();
  let all f =
    Array.concat (Array.to_list (Array.map (fun r -> Fbuf.to_array (f r)) per_rank))
  in
  let allreduce = all (fun r -> r.allreduce_lat) in
  let barrier = all (fun r -> r.barrier_lat) in
  let sum = Array.fold_left ( +. ) 0.0 in
  {
    variant;
    setup_s;
    run_s = (match result with Some r -> r.Cg.seconds | None -> timeout);
    zeta = Option.map (fun r -> r.Cg.zeta) result;
    steps = (match result with Some r -> r.comm_steps | None -> 0);
    calls = Array.length allreduce + Array.length barrier;
    allreduce;
    barrier;
    comm_s = sum allreduce +. sum barrier;
  }
