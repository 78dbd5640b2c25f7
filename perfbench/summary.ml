(* Statistics helpers shared by every phase: growable sample buffers,
   percentiles under the ten-beyond rule, medians, geometric means and the
   metric-name check. *)

(* Growable float buffer: one per recording thread, so no locking. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let concat bs = Array.concat (List.map to_array bs)
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Percentile ladder for tail reports. A percentile is reportable when at
   least ten samples lie beyond it; [tail_q n] is the highest reportable
   rung for [n] samples (the median when none is). *)
let ladder = [ 0.999; 0.99; 0.9; 0.5 ]

let tail_q n =
  match
    List.find_opt (fun q -> float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9) ladder
  with
  | Some q -> q
  | None -> 0.5

(* Nearest-rank percentile of a sorted array. *)
let rank s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) - 1 in
    s.(max 0 (min (n - 1) i))

(* [percentile s q]: the [q] percentile of sorted [s], lowered to the
   highest rung with ten samples beyond it when [s] is too short. Returns
   the rung actually used with the value. *)
let percentile s q =
  let q = Float.min q (tail_q (Array.length s)) in
  (q, rank s q)

let pct s q = snd (percentile s q)
let median a = rank (sorted a) 0.5

let median_l = function [] -> nan | l -> median (Array.of_list l)

let geomean = function
  | [] -> nan
  | xs when List.exists (fun x -> x <= 0.0) xs -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* Metric names: a letter or digit, then letters, digits, '_', '.', '-';
   at most 64 characters. *)
let valid_name s =
  let ok_char c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s
