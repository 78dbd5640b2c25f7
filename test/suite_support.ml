(* Unit and property tests for the support substrate. *)

open Preo_support

module IS = Set.Make (Int)

let iset_of_model m = Iset.of_list (IS.elements m)

let check_same_set what m s =
  Alcotest.(check (list int)) what (IS.elements m) (Iset.elements s)

(* --- Iset: property tests against the stdlib set model ------------------- *)

let gen_small_list = QCheck.(small_list (int_range 0 40))

let qcheck_iset =
  let open QCheck in
  [
    Test.make ~name:"iset add = model add" ~count:500
      (pair gen_small_list (int_range 0 40))
      (fun (xs, x) ->
        let m = IS.add x (IS.of_list xs) in
        let s = Iset.add x (Iset.of_list xs) in
        IS.elements m = Iset.elements s);
    Test.make ~name:"iset remove = model remove" ~count:500
      (pair gen_small_list (int_range 0 40))
      (fun (xs, x) ->
        let m = IS.remove x (IS.of_list xs) in
        let s = Iset.remove x (Iset.of_list xs) in
        IS.elements m = Iset.elements s);
    Test.make ~name:"iset union = model union" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        IS.elements (IS.union (IS.of_list xs) (IS.of_list ys))
        = Iset.elements (Iset.union (Iset.of_list xs) (Iset.of_list ys)));
    Test.make ~name:"iset inter = model inter" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        IS.elements (IS.inter (IS.of_list xs) (IS.of_list ys))
        = Iset.elements (Iset.inter (Iset.of_list xs) (Iset.of_list ys)));
    Test.make ~name:"iset diff = model diff" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        IS.elements (IS.diff (IS.of_list xs) (IS.of_list ys))
        = Iset.elements (Iset.diff (Iset.of_list xs) (Iset.of_list ys)));
    Test.make ~name:"iset disjoint = model" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        IS.disjoint (IS.of_list xs) (IS.of_list ys)
        = Iset.disjoint (Iset.of_list xs) (Iset.of_list ys));
    Test.make ~name:"iset subset = model" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        IS.subset (IS.of_list xs) (IS.of_list ys)
        = Iset.subset (Iset.of_list xs) (Iset.of_list ys));
    Test.make ~name:"iset mem = model" ~count:500
      (pair gen_small_list (int_range 0 40))
      (fun (xs, x) -> IS.mem x (IS.of_list xs) = Iset.mem x (Iset.of_list xs));
    Test.make ~name:"iset compare consistent with equal" ~count:500
      (pair gen_small_list gen_small_list)
      (fun (xs, ys) ->
        let a = Iset.of_list xs and b = Iset.of_list ys in
        Iset.equal a b = (Iset.compare a b = 0));
  ]

let iset_units () =
  let s = Iset.of_list [ 5; 1; 3; 1 ] in
  Alcotest.(check (list int)) "of_list sorts+dedups" [ 1; 3; 5 ] (Iset.elements s);
  Alcotest.(check int) "cardinal" 3 (Iset.cardinal s);
  Alcotest.(check int) "min" 1 (Iset.min_elt s);
  Alcotest.(check int) "max" 5 (Iset.max_elt s);
  Alcotest.(check bool) "empty disjoint" true (Iset.disjoint Iset.empty s);
  check_same_set "add below min" (IS.of_list [ 0; 1; 3; 5 ]) (Iset.add 0 s);
  check_same_set "add middle" (IS.of_list [ 1; 2; 3; 5 ]) (Iset.add 2 s);
  check_same_set "add above max" (IS.of_list [ 1; 3; 5; 9 ]) (Iset.add 9 s);
  Alcotest.(check bool) "add existing is identity" true
    (Iset.equal s (Iset.add 3 s));
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Iset.choose Iset.empty))

(* --- Lru ------------------------------------------------------------------ *)

module L = Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let lru_basic () =
  let c = L.create ~capacity:2 in
  L.add c 1 "a";
  L.add c 2 "b";
  Alcotest.(check (option string)) "hit 1" (Some "a") (L.find c 1);
  L.add c 3 "c" (* evicts 2, the LRU *);
  Alcotest.(check (option string)) "2 evicted" None (L.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (L.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "c") (L.find c 3);
  Alcotest.(check int) "evictions" 1 (L.evictions c);
  Alcotest.(check int) "length" 2 (L.length c)

let lru_unbounded () =
  let c = L.create ~capacity:0 in
  for i = 1 to 100 do
    L.add c i (string_of_int i)
  done;
  Alcotest.(check int) "no evictions" 0 (L.evictions c);
  Alcotest.(check int) "all kept" 100 (L.length c);
  Alcotest.(check (option string)) "find 57" (Some "57") (L.find c 57)

let lru_update () =
  let c = L.create ~capacity:2 in
  L.add c 1 "a";
  L.add c 1 "a'";
  Alcotest.(check (option string)) "updated" (Some "a'") (L.find c 1);
  Alcotest.(check int) "no dup" 1 (L.length c)

let qcheck_lru =
  let open QCheck in
  [
    Test.make ~name:"lru never exceeds capacity" ~count:200
      (pair (int_range 1 8) (small_list (int_range 0 20)))
      (fun (cap, keys) ->
        let c = L.create ~capacity:cap in
        List.iter (fun k -> L.add c k k) keys;
        L.length c <= cap);
    Test.make ~name:"lru find returns last added value" ~count:200
      (small_list (pair (int_range 0 5) (int_range 0 1000)))
      (fun pairs ->
        let c = L.create ~capacity:0 in
        List.iter (fun (k, v) -> L.add c k v) pairs;
        List.for_all
          (fun (k, _) ->
            let expect =
              List.fold_left
                (fun acc (k', v) -> if k = k' then Some v else acc)
                None pairs
            in
            L.find c k = expect)
          pairs);
  ]

(* --- Union_find ----------------------------------------------------------- *)

let uf_basic () =
  let u = Union_find.create 6 in
  Union_find.union u 0 1;
  Union_find.union u 2 3;
  Union_find.union u 1 3;
  Alcotest.(check bool) "0~3" true (Union_find.same u 0 3);
  Alcotest.(check bool) "0!~4" false (Union_find.same u 0 4);
  let classes = Union_find.classes u in
  Alcotest.(check int) "3 classes" 3 (List.length classes);
  Alcotest.(check (list int)) "first class" [ 0; 1; 2; 3 ]
    (List.sort compare (List.hd classes))

(* --- Rng ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Dyn ------------------------------------------------------------------ *)

let dyn_basic () =
  let d = Dyn.create () in
  for i = 0 to 99 do
    let idx = Dyn.add d (i * 2) in
    Alcotest.(check int) "index" i idx
  done;
  Alcotest.(check int) "length" 100 (Dyn.length d);
  Alcotest.(check int) "get" 84 (Dyn.get d 42);
  Dyn.set d 42 (-1);
  Alcotest.(check int) "set" (-1) (Dyn.get d 42);
  Alcotest.check_raises "oob" (Invalid_argument "Dyn: index out of bounds")
    (fun () -> ignore (Dyn.get d 100))

(* --- Tablefmt ------------------------------------------------------------- *)

let table_render () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "has header sep" true
    (String.length s > 0 && String.contains s '+');
  (* all lines same width *)
  let lines = String.split_on_char '\n' (String.trim s) in
  let w = String.length (List.hd lines) in
  List.iter (fun l -> Alcotest.(check int) "aligned" w (String.length l)) lines

let tests =
  [
    ("iset units", `Quick, iset_units);
    ("lru basic", `Quick, lru_basic);
    ("lru unbounded", `Quick, lru_unbounded);
    ("lru update", `Quick, lru_update);
    ("union_find", `Quick, uf_basic);
    ("rng deterministic", `Quick, rng_deterministic);
    ("rng bounds", `Quick, rng_bounds);
    ("rng shuffle", `Quick, rng_shuffle_permutes);
    ("dyn", `Quick, dyn_basic);
    ("tablefmt", `Quick, table_render);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) (qcheck_iset @ qcheck_lru)
