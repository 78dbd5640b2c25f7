(* perfbench: preo's end-to-end and per-layer benchmark (see README.md).

     perfbench --workload mono|part2 --seed N --seconds S --trace 0|1
     perfbench --self-test

   A workload is a runtime configuration; every run drives three phases
   under it, in [rounds] rounds: the Fig. 12 connector mix, an NPB CG
   reo/orig pair, and a shard-fabric session. The last line of standard
   output is one JSON object: correct, attempted, failed and the metrics
   (end-to-end ones with --trace 0, per-layer ones with --trace 1). *)

open Preo_support
module Connector = Preo.Connector
open Summary

type workload = {
  wname : string;
  config : Preo.Config.t;
  domains : int;
  mix : (string * int) list;
}

let workloads =
  [
    {
      wname = "mono";
      config = Preo.Config.new_jit;
      domains = 1;
      mix =
        [ ("sequencer", 8); ("token_ring", 8); ("gather", 8);
          ("broadcast_fifo", 8); ("relay_ring", 6) ];
    };
    {
      wname = "part2";
      config = Preo.Config.new_partitioned;
      domains = 2;
      mix =
        [ ("relay_ring", 6); ("broadcast_fifo", 8); ("gather", 8);
          ("sequencer", 8) ];
    };
  ]

(* Every family any workload drives, for the per-family rows. *)
let all_families =
  List.sort_uniq compare
    (List.concat_map (fun w -> List.map fst w.mix) workloads)

let rounds = 5

(* Shares of --seconds: the mix windows, and the two open-loop phases. The
   closed loop and the NPB pairs are fixed work. *)
let mix_share = 0.5
let high_share = 0.25
let low_share = 0.2
let closed_values = 2048

(* Spans written out per span name at the end of a traced run. *)
let spans_per_name = 20_000

(* --- self-tests of the helpers ------------------------------------------- *)

let self_test () =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  (* percentile rule: the highest rung with at least ten samples beyond *)
  check "tail 1000 -> p99" (tail_q 1000 = 0.99);
  check "tail 999 -> p90" (tail_q 999 = 0.9);
  check "tail 10000 -> p99.9" (tail_q 10000 = 0.999);
  check "tail 100 -> p90" (tail_q 100 = 0.9);
  check "tail 19 -> p50" (tail_q 19 = 0.5);
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..1000" (pct s 0.5 = 500.0);
  check "p99 of 1..1000" (pct s 0.99 = 990.0);
  check "p99 of 1..100 lowered to p90"
    (percentile (Array.sub s 0 100) 0.99 = (0.9, 90.0));
  check "median of empty is nan" (Float.is_nan (median [||]));
  (* geomean *)
  check "geomean 1 4 16" (close (geomean [ 1.0; 4.0; 16.0 ]) 4.0);
  check "geomean with a zero" (geomean [ 3.0; 0.0 ] = 0.0);
  check "geomean single" (close (geomean [ 7.5 ]) 7.5);
  (* schedules: deterministic in the seed, sorted, inside the window, exact
     count *)
  let a = Arrivals.poisson ~seed:7 ~salt:1 ~rate:1500.0 ~duration:2.0 in
  let b = Arrivals.poisson ~seed:7 ~salt:1 ~rate:1500.0 ~duration:2.0 in
  let c = Arrivals.poisson ~seed:8 ~salt:1 ~rate:1500.0 ~duration:2.0 in
  check "schedule repeats for a seed" (a = b);
  check "schedule differs across seeds" (a <> c);
  check "schedule count" (Array.length a = 3000);
  check "schedule sorted and in window"
    (Array.for_all (fun x -> x >= 0.0 && x < 2.0) a
    && Array.for_all Fun.id (Array.init 2999 (fun i -> a.(i) <= a.(i + 1))));
  check "permutation repeats for a seed"
    (Arrivals.permutation ~seed:3 ~salt:0 5 = Arrivals.permutation ~seed:3 ~salt:0 5);
  check "permutation is one"
    (List.sort compare (Array.to_list (Arrivals.permutation ~seed:3 ~salt:0 9))
    = List.init 9 Fun.id);
  (* metric-name charset *)
  check "name ok" (valid_name "engine.parks_per_kstep");
  check "name ok dash" (valid_name "family.relay_ring.steps-per-s");
  check "name bad char" (not (valid_name "rt p99"));
  check "name bad lead" (not (valid_name ".x"));
  check "name empty" (not (valid_name ""));
  check "name too long" (not (valid_name (String.make 65 'a')));
  List.rev !fails

(* --- host fingerprint ------------------------------------------------------ *)

let read_first_line path =
  try
    let ic = open_in path in
    let l = input_line ic in
    close_in ic;
    String.trim l
  with _ -> "?"

let status_field key =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | l when String.length l > String.length key
               && String.sub l 0 (String.length key) = key ->
        close_in ic;
        String.trim (String.sub l (String.length key) (String.length l - String.length key))
      | _ -> go ()
      | exception End_of_file ->
        close_in ic;
        "?"
    in
    go ()
  with _ -> "?"

(* CPUs in an affinity list such as "0-1,4". *)
let cpus_in_list s =
  try
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' part with
        | [ a ] -> ignore (int_of_string a); acc + 1
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | _ -> acc)
      0
      (String.split_on_char ',' s)
  with _ -> 0

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let fingerprint ~w ~seed ~seconds ~trace =
  let affinity = status_field "Cpus_allowed_list:" in
  [
    ("nproc", string_of_int (cpus_in_list affinity));
    ("affinity", json_str affinity);
    ("online_cpus", json_str (read_first_line "/sys/devices/system/cpu/online"));
    ("ocaml", json_str Sys.ocaml_version);
    ("domains", string_of_int (Preo.Config.effective_domains ()));
    ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
    ("loadavg", json_str (read_first_line "/proc/loadavg"));
    ("seed", string_of_int seed);
    ("workload", json_str w.wname);
    ("seconds", string_of_int seconds);
    ("trace", string_of_int trace);
  ]

let family_rate ~traced fams name =
  median_l
    (List.concat_map
       (fun (f : Mix.result) ->
         if f.fam.fname = name then
           List.filter_map (fun (r, t) -> if t = traced then Some r else None) f.rates
         else [])
       fams)

(* --- one run ----------------------------------------------------------------

   [rounds] rounds, each a mix round, an NPB pair and a fabric session, so
   every metric's samples spread over the whole run (the host's speed
   drifts over seconds). A full major collection runs before each set-up,
   so no phase is measured inside a heap another phase grew. *)

type run = {
  mixes : Mix.result list list;  (* per round, in the order run *)
  pairs : Npb.run list list;
  sessions : (Fabric.session, string) result list;
  probes : float list;  (* host probe, ns/step, once per round *)
}

let traced_span buf ~id ~name ~parent ~req t0 =
  if !Spans.enabled then
    Spans.record buf ~id ~name:(Spans.name name) ~parent ~req t0 (Clock.now ())

let mix_round ~w ~seed ~seconds ~r ~main_buf =
  let nfam = List.length w.mix in
  let window = seconds *. mix_share /. float_of_int (rounds * nfam) in
  Array.to_list
    (Array.map
       (fun i ->
         let f, n = List.nth w.mix i in
         Gc.full_major ();
         let id = Spans.fresh () and t0 = Clock.now () in
         let res =
           Mix.run ~config:w.config ~domains:w.domains ~parent:id ~window
             (Mix.family f n)
         in
         traced_span main_buf ~id ~name:("mix." ^ f) ~parent:0 ~req:r t0;
         Printf.eprintf "[perfbench]   %-15s %9.0f steps/s\n%!" f
           (family_rate ~traced:false [ res ] f);
         res)
       (Arrivals.permutation ~seed ~salt:r nfam))

let npb_pair ~w ~seed ~r ~main_buf =
  let order =
    if (Arrivals.permutation ~seed ~salt:(50 + r) 2).(0) = 0 then
      [ Npb.Reo; Npb.Hand ]
    else [ Npb.Hand; Npb.Reo ]
  in
  List.map
    (fun v ->
      Gc.full_major ();
      let id = Spans.fresh () and t0 = Clock.now () in
      Spans.set_active true;
      let res = Npb.run_one ~config:w.config ~parent:id v in
      Spans.set_active false;
      let name = if v = Npb.Reo then "reo" else "orig" in
      traced_span main_buf ~id ~name:("npb." ^ name) ~parent:0 ~req:r t0;
      Printf.eprintf "[perfbench]   npb %-11s %9.3f s\n%!" name res.Npb.run_s;
      res)
    order

let fabric_session ~seed ~seconds ~r ~main_buf =
  Gc.full_major ();
  let id = Spans.fresh () and t0 = Clock.now () in
  Spans.set_active true;
  let res =
    match
      Fabric.session ~seed ~round:r ~parent:id ~closed_n:closed_values
        ~high_s:(seconds *. high_share /. float_of_int rounds)
        ~low_s:(seconds *. low_share /. float_of_int rounds)
    with
    | s ->
      Printf.eprintf "[perfbench]   fabric %14.0f msg/s\n%!"
        (float_of_int s.Fabric.closed.received /. s.closed.elapsed);
      Ok s
    | exception e -> Error ("fabric session: " ^ Printexc.to_string e)
  in
  Spans.set_active false;
  traced_span main_buf ~id ~name:"fabric.session" ~parent:0 ~req:r t0;
  res

(* Host speed probe for the fingerprint: nanoseconds per step of a fixed
   integer loop, once per round. On a shared virtual machine the host's
   speed drifts by tens of percent within minutes; the probe shows how far
   a run's numbers were moved by it. *)
let host_probe () =
  let n = 5_000_000 in
  let t0 = Clock.now () in
  let x = ref 1 in
  for i = 1 to n do
    x := (!x * 1103515245) + i
  done;
  let dt = Clock.now () -. t0 in
  if !x = 0 then 0.0 else dt /. float_of_int n *. 1e9

let run_rounds ~w ~seed ~seconds ~main_buf =
  let rs =
    List.init rounds (fun r ->
        Printf.eprintf "[perfbench] %s round %d/%d\n%!" w.wname (r + 1) rounds;
        let probe = host_probe () in
        Printf.eprintf "[perfbench]   host probe %.3f ns/step\n%!" probe;
        let mix = mix_round ~w ~seed ~seconds ~r ~main_buf in
        let pair = npb_pair ~w ~seed ~r ~main_buf in
        let session = fabric_session ~seed ~seconds ~r ~main_buf in
        (mix, pair, session, probe))
  in
  {
    mixes = List.map (fun (m, _, _, _) -> m) rs;
    pairs = List.map (fun (_, p, _, _) -> p) rs;
    sessions = List.map (fun (_, _, s, _) -> s) rs;
    probes = List.map (fun (_, _, _, p) -> p) rs;
  }

(* --- metrics ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ms x = x *. 1e3
let us x = x *. 1e6

let evaluate ~w run =
  let fams = List.concat run.mixes in
  let npb = List.concat run.pairs in
  let sessions = List.filter_map Result.to_option run.sessions in
  let reo = List.filter (fun (r : Npb.run) -> r.variant = Npb.Reo) npb in
  let hand = List.filter (fun (r : Npb.run) -> r.variant = Npb.Hand) npb in
  let fam_names = List.map fst w.mix in
  (* --- correctness accounting --- *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failed = ref 0 and attempted = ref 0 in
  List.iter
    (fun (f : Mix.result) ->
      attempted := !attempted + f.ops;
      failed := !failed + f.bad;
      if f.bad > 0 then problem "%s: %d out-of-sequence values" f.fam.fname f.bad;
      match f.error with
      | Some e ->
        incr failed;
        problem "%s: %s" f.fam.fname e
      | None -> ())
    fams;
  List.iter
    (fun pair ->
      List.iter
        (fun (r : Npb.run) ->
          attempted := !attempted + r.calls;
          if r.zeta = None then begin
            incr failed;
            problem "npb %s: did not finish"
              (if r.variant = Npb.Reo then "reo" else "orig")
          end)
        pair;
      match List.filter_map (fun (r : Npb.run) -> r.zeta) pair with
      | [ a; b ] when Int64.bits_of_float a <> Int64.bits_of_float b ->
        incr failed;
        problem "npb: zeta differs, reo %h orig %h" a b
      | _ -> ())
    run.pairs;
  (match
     List.sort_uniq compare
       (List.filter_map (fun (r : Npb.run) -> Option.map Int64.bits_of_float r.zeta) npb)
   with
   | _ :: _ :: _ ->
     incr failed;
     problem "npb: zeta differs across pairs"
   | _ -> ());
  List.iter
    (function
      | Error e ->
        incr attempted;
        incr failed;
        problem "%s" e
      | Ok s ->
        attempted := !attempted + 1;
        List.iter
          (fun (p : Fabric.phase) ->
            attempted := !attempted + p.sent;
            failed := !failed + p.lost + p.bad;
            if p.lost + p.bad > 0 then
              problem "fabric: %d lost, %d out of order" p.lost p.bad)
          [ s.Fabric.closed; s.high; s.low ];
        if not s.clean then begin
          incr failed;
          problem "fabric: worker did not exit cleanly"
        end)
    run.sessions;
  (* --- end to end --- *)
  let geo traced = geomean (List.map (family_rate ~traced fams) fam_names) in
  (* op latency: for each family and direction, the percentile within each
     round, then the median over rounds (one slow round does not move it),
     then the geomean over families and directions. Pooled, the fastest
     family's ops would decide, and a family's sends and receives differ by
     up to 10x. *)
  let op_pct q =
    geomean
      (List.concat_map
         (fun n ->
           List.filter_map
             (fun lat ->
               match
                 List.filter_map
                   (fun (r : Mix.result) ->
                     if r.fam.fname = n && Array.length (lat r) > 0 then
                       Some (pct (sorted (lat r)) q)
                     else None)
                   fams
               with
               | [] -> None
               | per_round -> Some (median_l per_round))
             [ (fun (r : Mix.result) -> r.send_lat); (fun r -> r.recv_lat) ])
         fam_names)
  in
  let pool f = sorted (Array.concat (List.map f sessions)) in
  let high_rt = pool (fun s -> s.Fabric.high.rt) in
  let low_rt = pool (fun s -> s.Fabric.low.rt) in
  (* set-up: the median of each phase's repeated set-ups, summed *)
  let setup =
    median_l (List.map (sumf (fun (f : Mix.result) -> f.setup_s)) run.mixes)
    +. median_l (List.map (fun (r : Npb.run) -> r.setup_s) reo)
    +. median_l (List.map (fun s -> s.Fabric.setup_s) sessions)
  in
  let ratios =
    List.filter_map
      (fun pair ->
        match
          ( List.find_opt (fun (r : Npb.run) -> r.variant = Npb.Reo) pair,
            List.find_opt (fun (r : Npb.run) -> r.variant = Npb.Hand) pair )
        with
        | Some a, Some b -> Some (a.run_s /. b.run_s)
        | _ -> None)
      run.pairs
  in
  let end_to_end =
    [
      m "steps_per_s" "steps/s" (geo false);
      m "op_p50_us" "us" (us (op_pct 0.5));
      m "reo_over_orig" "ratio" (median_l ratios);
      m "fabric_msg_per_s" "msg/s"
        (median_l
           (List.map
              (fun s -> float_of_int s.Fabric.closed.received /. s.Fabric.closed.elapsed)
              sessions));
      m "rt_p50_ms" "ms" (ms (pct high_rt 0.5));
      m "rt_p99_ms" "ms" (ms (pct high_rt 0.99));
      m "idle_rt_p50_ms" "ms" (ms (pct low_rt 0.5));
      m "setup_s" "s" setup;
    ]
  in
  (* --- per layer --- *)
  let d f = sumi (fun (r : Mix.result) -> f r.st1 - f r.st0) fams in
  let ksteps = float_of_int (d (fun s -> s.Connector.st_steps)) /. 1000.0 in
  let per_k f = float_of_int (d f) /. ksteps in
  let cpu = sumf (fun (f : Mix.result) -> f.cpu_user +. f.cpu_sys) fams in
  let sys = sumf (fun (f : Mix.result) -> f.cpu_sys) fams in
  let wall = sumf (fun (f : Mix.result) -> f.window_s) fams in
  let mix_steps = float_of_int (sumi (fun (f : Mix.result) -> f.steps) fams) in
  let per_round f = median_l (List.map f run.mixes) in
  let spans name = sorted (Spans.durations name) in
  let span_or name fallback =
    let s = spans name in
    if Array.length s > 0 then s else sorted fallback
  in
  let send_s = span_or "port.send" (Array.concat (List.map (fun (f : Mix.result) -> f.send_lat) fams)) in
  let recv_s = span_or "port.recv" (Array.concat (List.map (fun (f : Mix.result) -> f.recv_lat) fams)) in
  let allreduce = sorted (Array.concat (List.map (fun (r : Npb.run) -> r.allreduce) reo)) in
  let barrier = sorted (Array.concat (List.map (fun (r : Npb.run) -> r.barrier) reo)) in
  let closed f = sumf f (List.map (fun s -> s.Fabric.closed) sessions) in
  let closed_i f = sumi f (List.map (fun s -> s.Fabric.closed) sessions) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let frames ph = sumi (fun s -> (ph s).Fabric.wire.Fabric.batches) sessions in
  let items ph = sumi (fun s -> (ph s).Fabric.wire.Fabric.items) sessions in
  let offered ph =
    ratio
      (float_of_int (sumi (fun s -> (ph s).Fabric.sent) sessions))
      (sumf (fun s -> float_of_int (ph s).Fabric.sent /. (ph s).Fabric.offered) sessions)
  in
  let overhead =
    let per_family =
      List.filter_map
        (fun n ->
          let u = family_rate ~traced:false fams n and t = family_rate ~traced:true fams n in
          if Float.is_nan u || Float.is_nan t || t <= 0.0 then None else Some (u /. t))
        fam_names
    in
    match per_family with [] -> 0.0 | l -> (geomean l -. 1.0) *. 100.0
  in
  let per_layer =
    [
      m "lang.compile_ms" "ms"
        (per_round (fun fams -> ms (sumf (fun (f : Mix.result) -> f.compile_s) fams)));
      m "connector.instantiate_ms" "ms"
        (per_round (fun fams -> ms (sumf (fun (f : Mix.result) -> f.instantiate_s) fams)));
      m "composer.expansions" "count"
        (per_round (fun fams ->
             float_of_int (sumi (fun (f : Mix.result) -> f.st0.Connector.st_expansions) fams)));
      m "shard.handshake_ms" "ms" (ms (median_l (List.map (fun s -> s.Fabric.setup_s) sessions)));
      m "op_p99_us" "us" (us (op_pct 0.99));
      m "port.send_p50_us" "us" (us (pct send_s 0.5));
      m "port.send_p99_us" "us" (us (pct send_s 0.99));
      m "port.recv_p50_us" "us" (us (pct recv_s 0.5));
      m "port.recv_p99_us" "us" (us (pct recv_s 0.99));
      m "engine.parks_per_kstep" "count" (per_k (fun s -> s.st_cond_waits));
      m "engine.kicks_per_kstep" "count" (per_k (fun s -> s.st_peer_kicks));
      m "engine.solves_per_kstep" "count" (per_k (fun s -> s.st_solver_calls));
      m "engine.cand_hits_per_kstep" "count" (per_k (fun s -> s.st_cand_hits));
      m "engine.wakes_targeted_per_kstep" "count" (per_k (fun s -> s.st_wakes_targeted));
      m "engine.wakes_spurious" "count" (float_of_int (d (fun s -> s.st_wakes_spurious)));
      m "engine.wakes_broadcast" "count" (float_of_int (d (fun s -> s.st_wakes_broadcast)));
      m "mpsc.ops_per_kstep" "count" (per_k (fun s -> s.st_mpsc_ops));
      m "mpsc.fast_ratio" "ratio"
        (ratio (float_of_int (d (fun s -> s.st_mpsc_fast))) (float_of_int (d (fun s -> s.st_mpsc_ops))));
      m "command.compiled_fire_ratio" "ratio"
        (let c = d (fun s -> s.st_compiled_fires) and i = d (fun s -> s.st_interp_fires) in
         ratio (float_of_int c) (float_of_int (c + i)));
      m "proc.cpu_us_per_step" "us" (us (ratio cpu mix_steps));
      m "proc.sys_share" "ratio" (ratio sys cpu);
      m "proc.busy_cores" "cores" (ratio cpu wall);
      m "partition.regions" "count"
        (per_round (fun fams -> float_of_int (sumi (fun (f : Mix.result) -> f.st1.Connector.st_regions) fams)));
      m "partition.fused" "count"
        (per_round (fun fams ->
             float_of_int (sumi (fun (f : Mix.result) -> f.st1.Connector.st_regions_fused) fams)));
      m "pool.domains" "count"
        (float_of_int (List.fold_left (fun acc (f : Mix.result) -> max acc f.st1.Connector.st_domains) 0 fams));
    ]
    @ List.map
        (fun n ->
          m (Printf.sprintf "family.%s.steps_per_s" n) "steps/s"
            (if List.mem_assoc n w.mix then family_rate ~traced:false fams n else 0.0))
        all_families
    @ [
        m "comm.allreduce_p50_us" "us" (us (pct allreduce 0.5));
        m "comm.allreduce_p99_us" "us" (us (pct allreduce 0.99));
        m "comm.barrier_p50_us" "us" (us (pct barrier 0.5));
        m "comm.wait_share" "ratio"
          (median_l
             (List.map
                (fun (r : Npb.run) -> r.comm_s /. (float_of_int Npb.nslaves *. r.run_s))
                reo));
        m "comm.steps" "steps" (median_l (List.map (fun (r : Npb.run) -> float_of_int r.steps) reo));
        m "npb.reo_run_s" "s" (median_l (List.map (fun (r : Npb.run) -> r.run_s) reo));
        m "npb.orig_run_s" "s" (median_l (List.map (fun (r : Npb.run) -> r.run_s) hand));
        m "shard.items_per_frame" "count"
          (ratio (float_of_int (items (fun s -> s.Fabric.closed))) (float_of_int (frames (fun s -> s.Fabric.closed))));
        m "shard.idle_items_per_frame" "count"
          (ratio (float_of_int (items (fun s -> s.Fabric.low))) (float_of_int (frames (fun s -> s.Fabric.low))));
        m "shard.frames_per_s" "1/s"
          (ratio (float_of_int (closed_i (fun p -> p.wire.batches))) (closed (fun p -> p.elapsed)));
        m "shard.ack_rtt_p50_ms" "ms" (ms (pct (pool (fun s -> s.Fabric.high.ack_rtt)) 0.5));
        m "shard.ack_rtt_p99_ms" "ms" (ms (pct (pool (fun s -> s.Fabric.high.ack_rtt)) 0.99));
        m "shard.send_block_p99_us" "us" (us (pct (pool (fun s -> s.Fabric.closed.send_block)) 0.99));
        m "shard.reconnects" "count"
          (float_of_int
             (sumi
                (fun s ->
                  s.Fabric.closed.wire.reconnects + s.Fabric.high.wire.reconnects
                  + s.Fabric.low.wire.reconnects)
                sessions));
        m "shard.worker_cpu_share" "ratio"
          (ratio (sumf (fun s -> s.Fabric.worker_cpu_s) sessions) (sumf (fun s -> s.Fabric.phases_s) sessions));
        m "gen.offered_per_s" "msg/s" (offered (fun s -> s.Fabric.high));
        m "gen.late_p99_ms" "ms" (ms (pct (pool (fun s -> s.Fabric.high.late)) 0.99));
        m "gen.idle_offered_per_s" "msg/s" (offered (fun s -> s.Fabric.low));
        m "gen.idle_late_p99_ms" "ms" (ms (pct (pool (fun s -> s.Fabric.low.late)) 0.99));
        m "trace.overhead_pct" "%" overhead;
        m "fail_ratio" "ratio" (ratio (float_of_int !failed) (float_of_int (max 1 !attempted)));
      ]
  in
  (end_to_end, per_layer, !attempted, !failed, List.rev !problems)

(* --- command line --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload mono|part2 --seed N --seconds S --trace 0|1\n\
    \       perfbench --self-test";
  exit 2

(* A metric with no samples reads 0; the run is then not correct. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then begin
    match self_test () with
    | [] ->
      print_endline "self-test: ok";
      exit 0
    | fails ->
      List.iter (fun f -> Printf.printf "self-test FAILED: %s\n" f) fails;
      exit 1
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.wname = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "seed" and seconds = int_arg "seconds" and trace = int_arg "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (match self_test () with
   | [] -> ()
   | fails ->
     List.iter (fun f -> Printf.eprintf "perfbench: self-test FAILED: %s\n" f) fails;
     exit 1);
  Preo.set_domains (Some w.domains);
  Spans.enabled := trace = 1;
  let fp = fingerprint ~w ~seed ~seconds ~trace in
  let origin = Clock.now () in
  let main_buf = Spans.buf () in
  let run = run_rounds ~w ~seed ~seconds:(float_of_int seconds) ~main_buf in
  let end_to_end, per_layer, attempted, failed, problems = evaluate ~w run in
  let metrics = if trace = 1 then per_layer else end_to_end in
  let problems =
    problems
    @ List.filter_map
        (fun x ->
          if not (valid_name x.name) then Some (Printf.sprintf "invalid metric name %S" x.name)
          else if not (Float.is_finite x.value) then Some (x.name ^ " has no samples")
          else None)
        metrics
  in
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  let fp = fp @ [ ("host_probe_ns", Printf.sprintf "%.3f" (median_l run.probes)) ] in
  if trace = 1 then begin
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf ".perfbench/spans-%s.tsv" w.wname in
    let written = Spans.write ~path ~origin ~header:fp ~per_name:spans_per_name in
    Printf.printf "spans: %d recorded, %d written to %s\n" (Spans.count ()) written path
  end;
  List.iter (fun x -> Printf.printf "%-36s %14.4f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "{\"fingerprint\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) v) fp));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0 && problems = [])
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str x.name)
              (num x.value) (json_str x.unit_))
          metrics));
  exit 0
