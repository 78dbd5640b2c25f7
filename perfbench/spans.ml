(* Benchmark-side spans, recorded around each call into a layer of the
   program: compile, instantiate, port operations, Comm calls and fabric
   sends/receives. A span is (id, parent, request, name, start, end);
   spans of one request (a value's send and its receive, one rank's
   collective) share the request identifier. Spans stay in per-thread
   buffers and are written out once, at the end of the run.

   [enabled] is set once for a traced run; [active] toggles within it, so
   traced and untraced sub-windows of one phase can be compared (the
   tracing overhead). *)

let enabled = ref false
let active_flag = Atomic.make false
let active () = Atomic.get active_flag
let set_active b = Atomic.set active_flag (b && !enabled)

type buf = {
  bid : int;
  mutable id : int array;
  mutable name : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
}

let lock = Mutex.create ()
let bufs : buf list ref = ref []
let names : string array ref = ref [||]

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Intern a span name. Modules intern theirs at initialisation, before
   any domain starts: task bodies only ever read them. *)
let name s =
  with_lock (fun () ->
      let rec find i =
        if i = Array.length !names then begin
          names := Array.append !names [| s |];
          i
        end
        else if !names.(i) = s then i
        else find (i + 1)
      in
      find 0)

let buf () =
  with_lock (fun () ->
      let b =
        {
          bid = List.length !bufs;
          id = Array.make 16 0;
          name = Array.make 16 0;
          t0 = Array.make 16 0.0;
          t1 = Array.make 16 0.0;
          parent = Array.make 16 0;
          req = Array.make 16 0;
          n = 0;
        }
      in
      bufs := b :: !bufs;
      b)

let grow b =
  let n = 2 * Array.length b.name in
  let gi a = Array.append a (Array.make (n - Array.length a) 0) in
  let gf a = Array.append a (Array.make (n - Array.length a) 0.0) in
  b.id <- gi b.id;
  b.name <- gi b.name;
  b.t0 <- gf b.t0;
  b.t1 <- gf b.t1;
  b.parent <- gi b.parent;
  b.req <- gi b.req

(* Identifiers for spans that parent others: reserved before the span
   ends, so children can name it. Leaf spans get [(buffer + 1) << 32 | i],
   above every reserved identifier. *)
let next_id = Atomic.make 1
let fresh () = Atomic.fetch_and_add next_id 1

(* Record one span; [?id] is a reserved identifier. *)
let record ?id b ~name ~parent ~req t0 t1 =
  if b.n = Array.length b.name then grow b;
  let i = b.n in
  b.id.(i) <- (match id with Some id -> id | None -> ((b.bid + 1) lsl 32) lor i);
  b.name.(i) <- name;
  b.t0.(i) <- t0;
  b.t1.(i) <- t1;
  b.parent.(i) <- parent;
  b.req.(i) <- req;
  b.n <- i + 1

(* Durations (seconds) of every recorded span named [s]. *)
let durations s =
  let id = name s in
  let out = Summary.Fbuf.create () in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.name.(i) = id then Summary.Fbuf.add out (b.t1.(i) -. b.t0.(i))
      done)
    !bufs;
  Summary.Fbuf.to_array out

let count () = List.fold_left (fun acc b -> acc + b.n) 0 !bufs

(* Write spans as tab-separated lines (times in microseconds from
   [origin]) after a header of [# key value] comment lines: the first
   [per_name] spans of each name, so a file stays a few megabytes. Returns
   the number written. *)
let write ~path ~origin ~header ~per_name =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "# %s %s\n" k v) header;
  output_string oc "id\tparent\treq\tname\tstart_us\tdur_us\n";
  let seen = Array.make (Array.length !names) 0 and written = ref 0 in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        let k = b.name.(i) in
        seen.(k) <- seen.(k) + 1;
        if seen.(k) <= per_name then begin
        incr written;
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.2f\n" b.id.(i) b.parent.(i) b.req.(i)
          !names.(b.name.(i))
          ((b.t0.(i) -. origin) *. 1e6)
          ((b.t1.(i) -. b.t0.(i)) *. 1e6)
        end
      done)
    (List.rev !bufs);
  close_out oc;
  !written
