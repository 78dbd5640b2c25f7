(* Elastic connectors: run-time grow/shrink of a live instance's parameter
   groups. Covers the splice pipeline end to end — quiescence gating,
   state retention of kept mediums, targeted poison of a leaver's parked
   operations, churn storms, the splice-vs-rebuild boundary on partitioned
   connectors, and behavioural equivalence of a spliced product with a
   fresh instantiation at the same size. *)

open Preo
module Composer = Preo_runtime.Composer
module Automaton = Preo_automata.Automaton
module Product = Preo_automata.Product
module Iset = Preo_support.Iset
module Bisim = Preo_verify.Bisim
module Catalog = Preo_connectors.Catalog

let bcast_src =
  {|NBcastFifo(tl;hd[]) =
  Repl(tl;x[1..#hd])
  mult prod (i:1..#hd) Fifo1(x[i];hd[i])|}

let seq_src =
  {|NSequencer(;hd[]) =
  prod (i:1..#hd) Repl2(v[i];hd[i],u[i])
  mult prod (i:1..#hd-1) Fifo1(u[i];v[i+1])
  mult Fifo1Full(u[#hd];v[1])|}

let with_inst ?config ?domains ~lengths src name f =
  let c = compile ~source:src ~name in
  let inst = instantiate ?config ?domains c ~lengths in
  Fun.protect ~finally:(fun () -> shutdown inst) (fun () -> f inst)

(* --- Basic grow/shrink --------------------------------------------------- *)

let non_elastic_rejected () =
  with_inst ~config:Config.existing ~lengths:[ ("hd", 2) ] bcast_src
    "NBcastFifo" (fun inst ->
      (match grow inst "hd" with
       | exception Error _ -> ()
       | _ -> Alcotest.fail "existing approach must not be elastic");
      match shrink inst "hd" with
      | exception Error _ -> ()
      | _ -> Alcotest.fail "existing approach must not be elastic")

let grow_broadcast_keeps_buffered_data () =
  with_inst ~lengths:[ ("hd", 2) ] bcast_src "NBcastFifo" (fun inst ->
      let tl = (outports inst "tl").(0) in
      (* Park a datum in both per-consumer fifos, then grow: the kept
         fifos must carry their buffered values across the splice. *)
      Port.send tl (Value.int 7);
      let idx = grow inst "hd" in
      Alcotest.(check int) "new slot is 3" 3 idx;
      Alcotest.(check int) "group resized" 3 (group_size inst "hd");
      Alcotest.(check int) "one splice" 1 (Connector.splices (connector inst));
      Alcotest.(check int) "pre-splice datum survives (slot 1)" 7
        (Value.to_int (Port.recv (inport_at inst "hd" 1)));
      Alcotest.(check int) "pre-splice datum survives (slot 2)" 7
        (Value.to_int (Port.recv (inport_at inst "hd" 2)));
      (* The grown slot participates from the next broadcast on. *)
      let got = Array.make 3 0 in
      Task.run_all ~on:(sched inst)
        ((fun () -> Port.send tl (Value.int 9))
        :: List.init 3 (fun k -> fun () ->
               got.(k) <-
                 Value.to_int (Port.recv (inport_at inst "hd" (k + 1)))));
      Alcotest.(check (list int)) "all three slots served" [ 9; 9; 9 ]
        (Array.to_list got))

let shrink_broadcast_last_slot () =
  with_inst ~lengths:[ ("hd", 3) ] bcast_src "NBcastFifo" (fun inst ->
      let tl = (outports inst "tl").(0) in
      shrink inst "hd";
      Alcotest.(check int) "group resized" 2 (group_size inst "hd");
      let got = Array.make 2 0 in
      Task.run_all ~on:(sched inst)
        ((fun () -> Port.send tl (Value.int 5))
        :: List.init 2 (fun k -> fun () ->
               got.(k) <-
                 Value.to_int (Port.recv (inport_at inst "hd" (k + 1)))));
      Alcotest.(check (list int)) "remaining slots served" [ 5; 5 ]
        (Array.to_list got))

(* --- Quiescence gating on the sequencer ring ----------------------------- *)

let recv_round inst n =
  for i = 1 to n do
    ignore (Port.recv (inport_at inst "hd" i))
  done

let grow_sequencer_round_robin () =
  with_inst ~lengths:[ ("hd", 2) ] seq_src "NSequencer" (fun inst ->
      (* Token starts in the ring-closing full fifo: quiescent, grow
         succeeds untouched. *)
      recv_round inst 2;
      let idx = grow inst "hd" in
      Alcotest.(check int) "slot 3 added" 3 idx;
      (* Strict round-robin continues over the widened ring. *)
      recv_round inst 3;
      recv_round inst 3;
      shrink inst "hd";
      recv_round inst 2)

let grow_sequencer_mid_round_not_quiescent () =
  with_inst ~lengths:[ ("hd", 2) ] seq_src "NSequencer" (fun inst ->
      (* After one grant the token sits mid-ring: the ring-closing fifo is
         empty, not label-bisimilar to its full initial state. *)
      ignore (Port.recv (inport_at inst "hd" 1));
      (match grow inst "hd" with
       | exception Composer.Not_quiescent _ -> ()
       | _ -> Alcotest.fail "mid-round grow must report Not_quiescent");
      Alcotest.(check int) "rolled back" 2 (group_size inst "hd");
      (* Completing the round returns the token to the full fifo; the
         retried grow now succeeds and the grant order is preserved. *)
      ignore (Port.recv (inport_at inst "hd" 2));
      Alcotest.(check int) "retry succeeds" 3 (grow inst "hd");
      recv_round inst 3)

(* --- Targeted poison of a leaver ----------------------------------------- *)

let detach_while_parked_poisons_only_leaver () =
  with_inst ~lengths:[ ("hd", 3) ] bcast_src "NBcastFifo" (fun inst ->
      let tl = (outports inst "tl").(0) in
      let results = Array.make 3 "" in
      let parked = Array.init 3 (fun _ -> Atomic.make false) in
      let tasks =
        List.init 3 (fun k -> fun () ->
            Atomic.set parked.(k) true;
            match Port.recv (inport_at inst "hd" (k + 1)) with
            | v -> results.(k) <- string_of_int (Value.to_int v)
            | exception Engine.Poisoned msg -> results.(k) <- msg)
      in
      let driver () =
        (* Wait until all three tasks are at least about to park, give
           them a beat to publish, then detach slot 3. Whether its recv is
           already installed or still in the submission queue, it must
           fail with the targeted "detached" poison — not block forever
           and not take the other two slots down. *)
        while not (Array.for_all Atomic.get parked) do
          Thread.yield ()
        done;
        Thread.delay 0.05;
        shrink inst "hd";
        Port.send tl (Value.int 42)
      in
      Task.run_all ~on:(sched inst) (driver :: tasks);
      Alcotest.(check string) "slot 1 delivered" "42" results.(0);
      Alcotest.(check string) "slot 2 delivered" "42" results.(1);
      Alcotest.(check bool)
        (Printf.sprintf "slot 3 got targeted poison (%s)" results.(2))
        true
        (String.length results.(2) > 0
        && String.sub results.(2) 0 8 = "detached"))

let stale_port_fails_after_detach () =
  with_inst ~lengths:[ ("hd", 3) ] bcast_src "NBcastFifo" (fun inst ->
      let stale = inport_at inst "hd" 3 in
      shrink inst "hd";
      match Port.recv stale with
      | exception Engine.Poisoned msg ->
        Alcotest.(check bool) "names the retirement" true
          (String.length msg >= 8 && String.sub msg 0 8 = "detached")
      | _ -> Alcotest.fail "recv on a retired port must fail")

(* --- Churn storms --------------------------------------------------------- *)

let churn_storm_sequencer () =
  with_inst ~lengths:[ ("hd", 2) ] seq_src "NSequencer" (fun inst ->
      (* Breathe the ring 2 -> 6 -> 2 repeatedly, consuming one full round
         at every size so each splice happens at a round boundary.
         st_splices counts every grow and shrink, and nothing before. *)
      let splices () = (Connector.stats (connector inst)).Connector.st_splices in
      recv_round inst 2;
      Alcotest.(check int) "no splice before the first grow" 0 (splices ());
      let expected = ref 0 in
      let splice f =
        f ();
        incr expected;
        Alcotest.(check int) "st_splices counts the splice" !expected
          (splices ());
        recv_round inst (group_size inst "hd")
      in
      for _ = 1 to 5 do
        for _ = 1 to 4 do
          splice (fun () -> ignore (grow inst "hd"))
        done;
        for _ = 1 to 4 do
          splice (fun () -> shrink inst "hd")
        done
      done;
      Alcotest.(check int) "back to 2" 2 (group_size inst "hd");
      Alcotest.(check int) "40 splices" 40
        (Connector.splices (connector inst)))

let churn_storm_broadcast_concurrent () =
  with_inst ~lengths:[ ("hd", 2) ] bcast_src "NBcastFifo" (fun inst ->
      let tl = (outports inst "tl").(0) in
      let rounds = 60 in
      let elastic_served = Atomic.make 0 in
      let producer () =
        for r = 1 to rounds do
          Port.send tl (Value.int r)
        done
      in
      let steady k () =
        for _ = 1 to rounds do
          ignore (Port.recv (inport_at inst "hd" k))
        done
      in
      (* The elastic slot's consumer drains eagerly and ends on the
         detach poison; the churner retries shrink until the slot's fifo
         happens to be empty (quiescence gating under live traffic). *)
      let elastic_consumer () =
        try
          while true do
            ignore (Port.recv (inport_at inst "hd" 3));
            Atomic.incr elastic_served
          done
        with Engine.Poisoned _ -> ()
      in
      let rec retry_shrink budget =
        if budget = 0 then Alcotest.fail "shrink never became quiescent";
        match shrink inst "hd" with
        | () -> ()
        | exception Composer.Not_quiescent _ ->
          Thread.yield ();
          retry_shrink (budget - 1)
      in
      let churner () =
        for _ = 1 to 6 do
          ignore (grow inst "hd");
          let helper = Thread.create elastic_consumer () in
          Thread.delay 0.01;
          retry_shrink 10_000;
          Thread.join helper
        done
      in
      Task.run_all ~on:(sched inst)
        [ producer; steady 1; steady 2; churner ];
      Alcotest.(check int) "steady slots never lost a datum + churn done" 2
        (group_size inst "hd");
      Alcotest.(check int) "12 splices" 12
        (Connector.splices (connector inst)))

(* --- Splice-vs-rebuild boundary on partitioned connectors ---------------- *)

let partitioned_splice_boundary () =
  with_inst ~config:Config.new_partitioned ~domains:2
    ~lengths:[ ("hd", 4) ] bcast_src "NBcastFifo" (fun inst ->
      let serve n v =
        let got = Array.make n 0 in
        Task.run_all ~on:(sched inst)
          ((fun () -> Port.send (outports inst "tl").(0) (Value.int v))
          :: List.init n (fun k -> fun () ->
                 got.(k) <-
                   Value.to_int (Port.recv (inport_at inst "hd" (k + 1)))));
        Alcotest.(check (list int)) "broadcast served"
          (List.init n (fun _ -> v))
          (Array.to_list got)
      in
      serve 4 1;
      match grow inst "hd" with
      | _idx ->
        (* Delta fit inside one region: the grown connector must serve. *)
        serve (group_size inst "hd") 2
      | exception Connector.Splice_error _ ->
        (* Delta crossed a partition cut: that is the documented rebuild
           boundary. The instance must be rolled back and fully live. *)
        Alcotest.(check int) "rolled back" 4 (group_size inst "hd");
        serve 4 2)

(* --- Spliced product ≡ fresh instantiation ------------------------------- *)

let boundary_vertices inst =
  List.concat_map
    (fun (name, is_source) ->
      if is_source then
        Array.to_list (Array.map Port.out_vertex (outports inst name))
      else Array.to_list (Array.map Port.in_vertex (inports inst name)))
    (groups inst)

let visible_product mediums ~boundary =
  let a = Product.all ~max_states:20_000 ~max_trans:200_000 mediums in
  let hidden = Iset.diff a.Automaton.vertices (Iset.of_list boundary) in
  Automaton.trim (Automaton.hide hidden a)

let bisim_spliced_equals_fresh () =
  List.iter
    (fun (ename, grown_group) ->
      let e = Catalog.find ename in
      let c = Catalog.compiled e in
      let spliced = instantiate c ~lengths:(e.Catalog.lengths 2) in
      let fresh = instantiate c ~lengths:(e.Catalog.lengths 3) in
      Fun.protect
        ~finally:(fun () ->
          shutdown spliced;
          shutdown fresh)
        (fun () ->
          ignore (grow spliced grown_group);
          (* Growing one group of a tl+hd entry leaves the other at its
             old size; grow every group so the shapes match. *)
          List.iter
            (fun (g, _) ->
              if group_size spliced g < group_size fresh g then
                ignore (grow spliced g))
            (groups spliced);
          let sb = boundary_vertices spliced in
          let fb = boundary_vertices fresh in
          let rename = Hashtbl.create 16 in
          List.iter2 (fun s f -> Hashtbl.add rename s f) sb fb;
          let sp =
            visible_product
              (Connector.live_mediums (connector spliced))
              ~boundary:sb
            |> Automaton.map_vertices (fun v ->
                   match Hashtbl.find_opt rename v with
                   | Some f -> f
                   | None -> v)
          in
          let fp =
            visible_product
              (Connector.live_mediums (connector fresh))
              ~boundary:fb
          in
          Alcotest.(check bool)
            (ename ^ ": spliced product weakly bisimilar to fresh")
            true
            (Bisim.weakly_equivalent sp fp)))
    [
      ("broadcast_fifo", "hd");
      ("sequencer", "hd");
      ("gather", "tl");
      ("replicator", "hd");
      ("load_balancer", "hd");
    ]

(* --- Batch operations: no-op and watchdog regressions -------------------- *)

let empty_batch_is_noop () =
  with_inst ~lengths:[ ("hd", 2) ] bcast_src "NBcastFifo" (fun inst ->
      Port.send_batch (outports inst "tl").(0) [];
      Alcotest.(check (list int)) "recv_batch 0 yields nothing" []
        (List.map Value.to_int (Port.recv_batch (inport_at inst "hd" 1) 0));
      Alcotest.(check (list int)) "negative count is also a no-op" []
        (List.map Value.to_int (Port.recv_batch (inport_at inst "hd" 1) (-3)));
      Alcotest.(check int) "no steps fired" 0 (steps inst))

let batch_survives_stall_watchdog () =
  (* A no-deadline batch whose stall report comes back from the watchdog
     used to die on an assertion; it must record the stall and keep
     waiting until the protocol completes it. *)
  set_stall_threshold (Some 0.05);
  Fun.protect
    ~finally:(fun () -> set_stall_threshold None)
    (fun () ->
      with_inst ~lengths:[ ("hd", 1) ] bcast_src "NBcastFifo" (fun inst ->
          let tl = (outports inst "tl").(0) in
          let hd = inport_at inst "hd" 1 in
          let got = ref [] in
          Task.run_all ~on:(sched inst)
            [
              (fun () -> Port.send_batch tl (List.map Value.int [ 1; 2; 3 ]));
              (fun () ->
                (* Outwait the watchdog so the parked batch op takes at
                   least one stall report before being served. *)
                Thread.delay 0.2;
                got := List.map Value.to_int (Port.recv_batch hd 3));
            ];
          Alcotest.(check (list int)) "batch completed" [ 1; 2; 3 ] !got;
          let s = Connector.stats (connector inst) in
          Alcotest.(check bool) "stall recorded" true
            (s.Connector.st_stalls > 0)))

let tests =
  [
    ("non-elastic rejected", `Quick, non_elastic_rejected);
    ( "grow keeps buffered data (broadcast)",
      `Quick,
      grow_broadcast_keeps_buffered_data );
    ("shrink last slot (broadcast)", `Quick, shrink_broadcast_last_slot);
    ("grow sequencer round-robin", `Quick, grow_sequencer_round_robin);
    ( "mid-round grow not quiescent",
      `Quick,
      grow_sequencer_mid_round_not_quiescent );
    ( "detach while parked poisons only leaver",
      `Quick,
      detach_while_parked_poisons_only_leaver );
    ("stale port fails after detach", `Quick, stale_port_fails_after_detach);
    ("churn storm: sequencer", `Quick, churn_storm_sequencer);
    ("churn storm: broadcast, concurrent", `Quick, churn_storm_broadcast_concurrent);
    ("partitioned splice boundary", `Quick, partitioned_splice_boundary);
    ("spliced ≡ fresh instantiation", `Quick, bisim_spliced_equals_fresh);
    ("empty batch is a no-op", `Quick, empty_batch_is_noop);
    ("batch survives stall watchdog", `Quick, batch_survives_stall_watchdog);
  ]
