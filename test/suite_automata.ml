(* Constraint automata: commands, product, hiding, exploration. *)

open Preo_support
open Preo_automata

let v name = Vertex.fresh name
let iset = Iset.of_list

(* --- Command solver ------------------------------------------------------- *)

let mk_env ?(sends = []) ?(cells = []) () =
  let written_cells = Hashtbl.create 4 in
  let delivered = Hashtbl.create 4 in
  ( {
      Command.read_send =
        (fun p ->
          match List.assoc_opt p sends with
          | Some x -> x
          | None -> Alcotest.failf "unexpected read_send %s" (Vertex.name p));
      read_cell =
        (fun c ->
          match List.assoc_opt c cells with
          | Some x -> x
          | None -> Alcotest.failf "unexpected read_cell %d" c);
      write_cell = (fun c x -> Hashtbl.replace written_cells c x);
      deliver = (fun p x -> Hashtbl.replace delivered p x);
    },
    written_cells,
    delivered )

let solve_ok ~readable ~writable c =
  match Command.solve ~readable ~writable c with
  | Ok cmd -> cmd
  | Error msg -> Alcotest.failf "solve failed: %s" msg

let cmd_sync_moves_data () =
  let a = v "a" and b = v "b" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:(iset [ b ])
      Constr.[ Port b === Port a ]
  in
  let env, _, delivered = mk_env ~sends:[ (a, Value.int 7) ] () in
  Command.execute cmd env;
  Alcotest.(check bool) "delivered to b" true
    (Hashtbl.find delivered b = Value.int 7)

let cmd_transform_applies () =
  let a = v "a" and b = v "b" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:(iset [ b ])
      Constr.[ Port b === App ("incr", Port a) ]
  in
  let env, _, delivered = mk_env ~sends:[ (a, Value.int 7) ] () in
  Command.execute cmd env;
  Alcotest.(check bool) "b = incr a" true
    (Hashtbl.find delivered b = Value.int 8)

let cmd_through_internal_glue () =
  (* a -> m -> b with m internal: class {a,m,b}. *)
  let a = v "a" and m = v "m" and b = v "b" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:(iset [ b ])
      Constr.[ Port m === Port a; Port b === Port m ]
  in
  let env, _, delivered = mk_env ~sends:[ (a, Value.str "x") ] () in
  Command.execute cmd env;
  Alcotest.(check bool) "b got a through m" true
    (Hashtbl.find delivered b = Value.str "x")

let cmd_cell_write_and_read () =
  let a = v "a" and b = v "b" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:(iset [ b ])
      Constr.[ Post 1 === Port a; Port b === Pre 2 ]
  in
  let env, written, delivered =
    mk_env ~sends:[ (a, Value.int 1) ] ~cells:[ (2, Value.int 9) ] ()
  in
  Command.execute cmd env;
  Alcotest.(check bool) "cell 1 written" true (Hashtbl.find written 1 = Value.int 1);
  Alcotest.(check bool) "b from cell 2" true
    (Hashtbl.find delivered b = Value.int 9)

let cmd_cell_refill_same_step () =
  (* Shift: b := pre(c); post(c) := a — all sources read before writes. *)
  let a = v "a" and b = v "b" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:(iset [ b ])
      Constr.[ Port b === Pre 3; Post 3 === Port a ]
  in
  let env, written, delivered =
    mk_env ~sends:[ (a, Value.int 100) ] ~cells:[ (3, Value.int 5) ] ()
  in
  Command.execute cmd env;
  Alcotest.(check bool) "b got old cell" true
    (Hashtbl.find delivered b = Value.int 5);
  Alcotest.(check bool) "cell refilled" true
    (Hashtbl.find written 3 = Value.int 100)

let cmd_guards () =
  let a = v "a" in
  let cmd =
    solve_ok ~readable:(iset [ a ]) ~writable:Iset.empty
      Constr.[ pred "even" (Port a) ]
  in
  let env_even, _, _ = mk_env ~sends:[ (a, Value.int 4) ] () in
  let env_odd, _, _ = mk_env ~sends:[ (a, Value.int 5) ] () in
  Alcotest.(check bool) "even passes" true (Command.guards_hold cmd env_even);
  Alcotest.(check bool) "odd fails" false (Command.guards_hold cmd env_odd);
  let ncmd =
    solve_ok ~readable:(iset [ a ]) ~writable:Iset.empty
      Constr.[ npred "even" (Port a) ]
  in
  Alcotest.(check bool) "negated" true (Command.guards_hold ncmd env_odd)

let cmd_const_conflict_is_unsat () =
  let a = v "a" in
  match
    Command.solve ~readable:(iset [ a ]) ~writable:Iset.empty
      Constr.[ Port a === Const (Value.int 1); Port a === Const (Value.int 2) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflicting constants must be unsolvable"

let cmd_underdetermined_is_error () =
  let b = v "b" in
  match
    Command.solve ~readable:Iset.empty ~writable:(iset [ b ])
      Constr.[ Port b === Port (v "ghost") ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sink without source must be unsolvable"

let cmd_const_source () =
  let b = v "b" in
  let cmd =
    solve_ok ~readable:Iset.empty ~writable:(iset [ b ])
      Constr.[ Port b === Const (Value.str "tok") ]
  in
  let env, _, delivered = mk_env () in
  Command.execute cmd env;
  Alcotest.(check bool) "const delivered" true
    (Hashtbl.find delivered b = Value.str "tok")

(* --- Product -------------------------------------------------------------- *)

let sync_auto a b = Preo_reo.Prim.build Preo_reo.Prim.Sync ~tails:[ a ] ~heads:[ b ]
let fifo_auto a b = Preo_reo.Prim.build Preo_reo.Prim.Fifo1 ~tails:[ a ] ~heads:[ b ]

let product_sync_pipeline () =
  (* sync(a;m) x sync(m;b): one state, one transition {a,m,b}. *)
  let a = v "a" and m = v "m" and b = v "b" in
  let p = Product.pair (sync_auto a m) (sync_auto m b) in
  Alcotest.(check int) "1 state" 1 p.Automaton.nstates;
  Alcotest.(check int) "1 transition" 1 (Automaton.num_transitions p);
  let tr = p.Automaton.trans.(0).(0) in
  Alcotest.(check bool) "sync = {a,m,b}" true
    (Iset.equal tr.Automaton.sync (iset [ a; m; b ]))

let product_fifo_pair_states () =
  (* Two unrelated fifos: 4 states, interleaved transitions only. *)
  let f1 = fifo_auto (v "a1") (v "b1") in
  let f2 = fifo_auto (v "a2") (v "b2") in
  let p = Product.pair f1 f2 in
  Alcotest.(check int) "4 states" 4 p.Automaton.nstates;
  (* each state: 2 interleaved moves *)
  Alcotest.(check int) "8 transitions" 8 (Automaton.num_transitions p)

let product_joint_independent_flag () =
  let f1 = fifo_auto (v "a1") (v "b1") in
  let f2 = fifo_auto (v "a2") (v "b2") in
  let p = Product.pair ~joint_independent:true f1 f2 in
  (* each state also has the joint move: 3 per state *)
  Alcotest.(check int) "12 transitions" 12 (Automaton.num_transitions p)

let product_budget () =
  let autos =
    List.init 12 (fun i ->
        fifo_auto (v (Printf.sprintf "a%d" i)) (v (Printf.sprintf "b%d" i)))
  in
  match Product.all ~max_states:100 autos with
  | exception Product.Budget_exceeded msg ->
    (* the diagnostic names the connector and reports how far composition
       got before tripping *)
    Alcotest.(check bool) "names the connector" true
      (String.length msg >= 30
      && String.sub msg 0 30 = "product of connector exceeded ")
  | _ -> Alcotest.fail "budget must trip"

let product_polarity_mixed_internal () =
  let a = v "a" and m = v "m" and b = v "b" in
  let p = Product.pair (sync_auto a m) (sync_auto m b) in
  Alcotest.(check bool) "a source" true (Iset.mem a p.Automaton.sources);
  Alcotest.(check bool) "b sink" true (Iset.mem b p.Automaton.sinks);
  Alcotest.(check bool) "m internal" true
    ((not (Iset.mem m p.Automaton.sources)) && not (Iset.mem m p.Automaton.sinks))

let sync_compatible_cases () =
  let va = iset [ 1; 2; 3 ] and vb = iset [ 3; 4; 5 ] in
  let chk expect sa sb =
    Alcotest.(check bool) "compat" expect
      (Product.sync_compatible ~vertices_a:va ~vertices_b:vb ~sync_a:(iset sa)
         ~sync_b:(iset sb))
  in
  chk true [ 1; 3 ] [ 3; 4 ];
  chk false [ 1; 3 ] [ 4 ];
  chk true [ 1 ] [ 4 ];
  chk false [ 3 ] [ 4; 5 ]

(* --- Hide / trim / explore ------------------------------------------------ *)

let hide_makes_silent () =
  let a = v "a" and m = v "m" and b = v "b" in
  let chain = Product.all [ fifo_auto a m; fifo_auto m b ] in
  let hidden = Automaton.hide (iset [ m ]) chain in
  let silent = ref 0 in
  Array.iter
    (Array.iter (fun (tr : Automaton.trans) ->
         if Iset.is_empty tr.Automaton.sync then incr silent))
    hidden.Automaton.trans;
  Alcotest.(check bool) "one silent transfer somewhere" true (!silent >= 1);
  Alcotest.(check bool) "m gone from alphabet" false
    (Iset.mem m hidden.Automaton.vertices)

let trim_removes_unreachable () =
  let a = v "a" and b = v "b" in
  (* Hand-built automaton with an unreachable state 2. *)
  let t sync target = { Automaton.sync; constr = Constr.tt; command = None; target } in
  let auto =
    Automaton.make ~nstates:3 ~initial:0
      ~trans:[| [| t (iset [ a ]) 1 |]; [| t (iset [ b ]) 0 |]; [| t (iset [ a ]) 2 |] |]
      ~sources:(iset [ a ]) ~sinks:(iset [ b ])
  in
  let trimmed = Automaton.trim auto in
  Alcotest.(check int) "2 states" 2 trimmed.Automaton.nstates;
  Alcotest.(check (list int)) "no deadlocks" []
    (Explore.deadlock_states trimmed)

let optimize_labels_drops_unsat () =
  let a = v "a" and b = v "b" in
  let t constr target = { Automaton.sync = iset [ a; b ]; constr; command = None; target } in
  let auto =
    Automaton.make ~nstates:1 ~initial:0
      ~trans:
        [|
          [|
            t Constr.[ Port b === Port a ] 0;
            t Constr.[ Port b === Const (Value.int 1); Port b === Const (Value.int 2) ] 0;
          |];
        |]
      ~sources:(iset [ a ]) ~sinks:(iset [ b ])
  in
  let opt = Automaton.optimize_labels auto in
  Alcotest.(check int) "unsat dropped" 1 (Automaton.num_transitions opt);
  Array.iter
    (Array.iter (fun (tr : Automaton.trans) ->
         Alcotest.(check bool) "command present" true (tr.Automaton.command <> None)))
    opt.Automaton.trans

let map_vertices_roundtrip () =
  let a = v "a" and b = v "b" in
  let f = fifo_auto a b in
  let a' = v "a2" and b' = v "b2" in
  let subst x = if Vertex.equal x a then a' else if Vertex.equal x b then b' else x in
  let g = Automaton.map_vertices subst f in
  Alcotest.(check bool) "renamed sources" true (Iset.mem a' g.Automaton.sources);
  Alcotest.(check bool) "old gone" false (Iset.mem a g.Automaton.vertices)

let dot_export_mentions_states () =
  let a = v "a" and b = v "b" in
  let s = Dot.automaton ~name:"fifo" (fifo_auto a b) in
  Alcotest.(check bool) "digraph" true
    (String.length s > 10 && String.sub s 0 7 = "digraph")

(* --- Constraint helpers ---------------------------------------------------- *)

let constr_ports_and_cells () =
  let a = v "a" and b = v "b" in
  let c = Constr.[ Port b === App ("f", Port a); Post 7 === Pre 8 ] in
  Alcotest.(check bool) "ports" true
    (Iset.equal (Constr.ports c) (iset [ a; b ]));
  Alcotest.(check bool) "cells" true (Iset.equal (Constr.cells c) (iset [ 7; 8 ]))

let tests =
  [
    ("command: sync moves data", `Quick, cmd_sync_moves_data);
    ("command: transform applies fn", `Quick, cmd_transform_applies);
    ("command: data flows through glue", `Quick, cmd_through_internal_glue);
    ("command: cell write and read", `Quick, cmd_cell_write_and_read);
    ("command: cell refilled in one step", `Quick, cmd_cell_refill_same_step);
    ("command: guards", `Quick, cmd_guards);
    ("command: const conflict unsat", `Quick, cmd_const_conflict_is_unsat);
    ("command: underdetermined error", `Quick, cmd_underdetermined_is_error);
    ("command: constant source", `Quick, cmd_const_source);
    ("product: sync pipeline", `Quick, product_sync_pipeline);
    ("product: independent fifos", `Quick, product_fifo_pair_states);
    ("product: joint_independent flag", `Quick, product_joint_independent_flag);
    ("product: state budget", `Quick, product_budget);
    ("product: mixed polarity internal", `Quick, product_polarity_mixed_internal);
    ("product: sync_compatible", `Quick, sync_compatible_cases);
    ("hide: silent transitions", `Quick, hide_makes_silent);
    ("trim: unreachable removed", `Quick, trim_removes_unreachable);
    ("optimize_labels drops unsat", `Quick, optimize_labels_drops_unsat);
    ("map_vertices", `Quick, map_vertices_roundtrip);
    ("dot export", `Quick, dot_export_mentions_states);
    ("constraint ports/cells", `Quick, constr_ports_and_cells);
  ]
