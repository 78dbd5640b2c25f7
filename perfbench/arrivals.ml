(* Open-loop arrival schedules. A schedule is the due-time offsets of
   [round (rate * duration)] sends over [0, duration): uniform order
   statistics, i.e. a Poisson process conditioned on its count, so the
   offered rate is the fixed rate exactly and only the spacing is random.
   Drawn from the seed alone; the program under test only ever sees the
   values sent at these times. *)

let poisson ~seed ~salt ~rate ~duration =
  let st = Random.State.make [| seed; salt |] in
  let n = max 1 (int_of_float (Float.round (rate *. duration))) in
  let a = Array.init n (fun _ -> Random.State.float st duration) in
  Array.sort Float.compare a;
  a

(* A permutation of [0 .. n-1] drawn from the seed (phase and family
   orders). *)
let permutation ~seed ~salt n =
  let st = Random.State.make [| seed; salt |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
