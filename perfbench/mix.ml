(* Connector phase: the Fig. 12 driver shape. One no-op task per boundary
   port, every send carrying (sender, seq); each family of the mix is set
   up (compile, instantiate, warm-up), driven for a fixed window while the
   main thread samples the global step count, then shut down. Receivers
   check that each sender's sequence arrives in order, without gaps or
   duplicates. *)

open Preo_support
module Fbuf = Summary.Fbuf
module Catalog = Preo_connectors.Catalog
module Connector = Preo.Connector

type family = {
  fname : string;
  n : int;
  units : int option;
      (* unit tokens a receiver may see: the rings' initial Fifo1Full token
         once; the sequencer's token forever *)
}

let family fname n =
  let units =
    match fname with
    | "sequencer" -> None
    | "token_ring" | "relay_ring" -> Some 1
    | _ -> Some 0
  in
  { fname; n; units }

type result = {
  fam : family;
  compile_s : float;
  instantiate_s : float;
  setup_s : float;  (* compile + instantiate + warm-up *)
  rates : (float * bool) list;  (* sub-window steps/s, traced? *)
  steps : int;  (* steps inside the window *)
  window_s : float;
  send_lat : float array;  (* op durations inside the window, seconds *)
  recv_lat : float array;
  ops : int;  (* completed operations, whole run *)
  bad : int;  (* values that broke a sender's sequence *)
  error : string option;  (* warm-up timeout, poisoned connector *)
  st0 : Connector.stats;
  st1 : Connector.stats;
  cpu_user : float;
  cpu_sys : float;
}

let warm_steps = 1000
let warm_timeout = 10.0
let sub_window = 0.1

type task_state = {
  lat : Fbuf.t;
  mutable done_ops : int;
  mutable bad_values : int;
}

let span_send = Spans.name "port.send"
let span_recv = Spans.name "port.recv"

let run ~config ~domains ~parent ~window fam =
  let entry = Catalog.find fam.fname in
  let t0 = Clock.now () in
  let compiled = Preo.compile ~source:entry.Catalog.source ~name:entry.conn_name in
  let t1 = Clock.now () in
  let inst =
    Preo.instantiate ~config ~domains compiled ~lengths:(entry.lengths fam.n)
  in
  let t2 = Clock.now () in
  let measuring = Atomic.make false in
  let send_st = ref [] and recv_st = ref [] in
  let state into =
    let s = { lat = Fbuf.create (); done_ops = 0; bad_values = 0 } in
    into := s :: !into;
    s
  in
  let groups = Preo.groups inst in
  let nsenders =
    List.fold_left
      (fun acc (g, src) ->
        if src then acc + Array.length (Preo.outports inst g) else acc)
      0 groups
  in
  let sender sid p =
    let st = state send_st and sb = Spans.buf () and name = span_send in
    fun () ->
      let seq = ref 0 in
      try
        while true do
          let m = Atomic.get measuring and tr = Spans.active () in
          let a = Clock.now () in
          Preo.Port.send p (Value.pair (Value.int sid) (Value.int !seq));
          let b = Clock.now () in
          st.done_ops <- st.done_ops + 1;
          if m && Atomic.get measuring then Fbuf.add st.lat (b -. a);
          if tr then
            Spans.record sb ~name ~parent ~req:((sid lsl 32) lor !seq) a b;
          incr seq
        done
      with Preo.Engine.Poisoned _ -> ()
  in
  let receiver p =
    let st = state recv_st and sb = Spans.buf () and name = span_recv in
    let last = Array.make nsenders (-1) and units = ref 0 in
    fun () ->
      try
        while true do
          let m = Atomic.get measuring and tr = Spans.active () in
          let a = Clock.now () in
          let v = Preo.Port.recv p in
          let b = Clock.now () in
          st.done_ops <- st.done_ops + 1;
          if m && Atomic.get measuring then Fbuf.add st.lat (b -. a);
          let req =
            match v with
            | Value.Pair (Value.Int sid, Value.Int seq)
              when sid >= 0 && sid < nsenders ->
              if seq <> last.(sid) + 1 then
                st.bad_values <- st.bad_values + 1;
              last.(sid) <- seq;
              (sid lsl 32) lor seq
            | Value.Unit ->
              incr units;
              (match fam.units with
               | Some k when !units > k -> st.bad_values <- st.bad_values + 1
               | _ -> ());
              -1
            | _ ->
              st.bad_values <- st.bad_values + 1;
              -1
          in
          if tr then Spans.record sb ~name ~parent ~req a b
        done
      with Preo.Engine.Poisoned _ -> ()
  in
  let sid = ref 0 in
  let sends = ref [] and recvs = ref [] in
  List.iter
    (fun (g, src) ->
      if src then
        Array.iter
          (fun p ->
            sends := sender !sid p :: !sends;
            incr sid)
          (Preo.outports inst g)
      else Array.iter (fun p -> recvs := receiver p :: !recvs) (Preo.inports inst g))
    groups;
  let bodies = List.rev_append !sends !recvs in
  let conn = Preo.connector inst in
  let tasks = List.map (Preo.Task.spawn ~on:(Preo.sched inst)) bodies in
  let warm_deadline = Clock.now () +. warm_timeout in
  while Preo.steps inst < warm_steps && Clock.now () < warm_deadline do
    Thread.delay 0.001
  done;
  let t3 = Clock.now () in
  let warmed = Preo.steps inst >= warm_steps in
  if !Spans.enabled then begin
    let sb = Spans.buf () in
    let span s = Spans.record sb ~name:(Spans.name s) ~parent ~req:0 in
    span "lang.compile" t0 t1;
    span "connector.instantiate" t1 t2;
    span "mix.warmup" t2 t3
  end;
  let st0 = Connector.stats conn in
  let c0 = Unix.times () in
  let s0 = Preo.steps inst in
  Atomic.set measuring true;
  let rates = ref [] in
  let w0 = Clock.now () in
  let wend = w0 +. window in
  let traced = ref true in
  let t = ref w0 and s = ref s0 in
  while warmed && Clock.now () < wend do
    (* traced runs alternate untraced and traced sub-windows *)
    traced := !Spans.enabled && not !traced;
    Spans.set_active !traced;
    Thread.delay sub_window;
    let t' = Clock.now () and s' = Preo.steps inst in
    rates := (float_of_int (s' - !s) /. (t' -. !t), !traced) :: !rates;
    t := t';
    s := s'
  done;
  Spans.set_active false;
  Atomic.set measuring false;
  let w1 = Clock.now () in
  let s1 = Preo.steps inst in
  let c1 = Unix.times () in
  let st1 = Connector.stats conn in
  Preo.shutdown inst;
  let crashed = ref None in
  List.iter
    (fun t ->
      try Preo.Task.join t
      with e -> crashed := Some ("task died: " ^ Printexc.to_string e))
    tasks;
  let error =
    match (Connector.failure conn, !crashed) with
    | Some msg, _ | None, Some msg -> Some msg
    | None, None when not warmed ->
      Some (Printf.sprintf "%s: fewer than %d steps in %.0fs" fam.fname warm_steps
              warm_timeout)
    | None, None -> None
  in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  {
    fam;
    compile_s = t1 -. t0;
    instantiate_s = t2 -. t1;
    setup_s = t3 -. t0;
    rates = List.rev !rates;
    steps = s1 - s0;
    window_s = w1 -. w0;
    send_lat = Fbuf.concat (List.map (fun s -> s.lat) !send_st);
    recv_lat = Fbuf.concat (List.map (fun s -> s.lat) !recv_st);
    ops = sum (fun s -> s.done_ops) (!send_st @ !recv_st);
    bad = sum (fun s -> s.bad_values) (!send_st @ !recv_st);
    error;
    st0;
    st1;
    cpu_user = c1.Unix.tms_utime -. c0.Unix.tms_utime;
    cpu_sys = c1.Unix.tms_stime -. c0.Unix.tms_stime;
  }
