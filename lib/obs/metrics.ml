(* Metrics registry: named counters and latency/size histograms, serialized
   as JSON and as Prometheus text exposition format. Recording is guarded by
   the same [Obs.tracing] flag as event tracing at the call sites, so a
   non-traced run pays nothing here either. *)

type counter = { c_name : string; c_help : string; c_value : int Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (** upper bucket bounds, ascending; +inf implicit *)
  h_counts : int array;  (** length = bounds + 1 (overflow bucket) *)
  h_lock : Mutex.t;
  mutable h_sum : float;
  mutable h_count : int;
}

let registry_lock = Mutex.create ()
let counters : counter list ref = ref []
let histograms : histogram list ref = ref []

let counter ?(help = "") name =
  Mutex.lock registry_lock;
  let c =
    match List.find_opt (fun c -> c.c_name = name) !counters with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
      counters := c :: !counters;
      c
  in
  Mutex.unlock registry_lock;
  c

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let counter_value c = Atomic.get c.c_value

(* Power-of-two seconds buckets from 1µs to ~8s: wide enough for a port-op
   wait on a loaded box, fine enough to separate a completion found at lock
   acquisition from a park. *)
let seconds_buckets =
  Array.init 24 (fun i -> 1e-6 *. float_of_int (1 lsl i))

let size_buckets = Array.init 12 (fun i -> float_of_int (1 lsl i))

let histogram ?(help = "") ?buckets name =
  let bounds = match buckets with Some b -> b | None -> seconds_buckets in
  Mutex.lock registry_lock;
  let h =
    match List.find_opt (fun h -> h.h_name = name) !histograms with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_bounds = bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_lock = Mutex.create ();
          h_sum = 0.0;
          h_count = 0;
        }
      in
      histograms := h :: !histograms;
      h
  in
  Mutex.unlock registry_lock;
  h

let observe h x =
  let nb = Array.length h.h_bounds in
  let rec bucket i = if i >= nb || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  Mutex.lock h.h_lock;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_lock

let histogram_count h = h.h_count

let snapshot () =
  Mutex.lock registry_lock;
  let cs = List.rev !counters and hs = List.rev !histograms in
  Mutex.unlock registry_lock;
  (cs, hs)

let reset () =
  let cs, hs = snapshot () in
  List.iter (fun c -> Atomic.set c.c_value 0) cs;
  List.iter
    (fun h ->
      Mutex.lock h.h_lock;
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_sum <- 0.0;
      h.h_count <- 0;
      Mutex.unlock h.h_lock)
    hs

(* Bucket bounds print like Prometheus' own default bounds: shortest float
   representation that round-trips for powers of two. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_json () =
  let cs, hs = snapshot () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf "%s\n    \"%s\": %d"
           (if i = 0 then "" else ",")
           (Json.escape c.c_name) (counter_value c)))
    cs;
  Buffer.add_string buf "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i h ->
      Mutex.lock h.h_lock;
      let counts = Array.copy h.h_counts in
      let sum = h.h_sum and count = h.h_count in
      Mutex.unlock h.h_lock;
      Buffer.add_string buf
        (Printf.sprintf "%s\n    \"%s\": {\"count\": %d, \"sum\": %.9f, \"buckets\": ["
           (if i = 0 then "" else ",")
           (Json.escape h.h_name) count sum);
      Array.iteri
        (fun j c ->
          let le =
            if j < Array.length h.h_bounds then float_str h.h_bounds.(j)
            else "+Inf"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s{\"le\": \"%s\", \"count\": %d}"
               (if j = 0 then "" else ", ")
               le c))
        counts;
      Buffer.add_string buf "]}")
    hs;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let to_prometheus () =
  let cs, hs = snapshot () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      if c.c_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP preo_%s %s\n" c.c_name c.c_help);
      Buffer.add_string buf (Printf.sprintf "# TYPE preo_%s counter\n" c.c_name);
      Buffer.add_string buf (Printf.sprintf "preo_%s %d\n" c.c_name (counter_value c)))
    cs;
  List.iter
    (fun h ->
      Mutex.lock h.h_lock;
      let counts = Array.copy h.h_counts in
      let sum = h.h_sum and count = h.h_count in
      Mutex.unlock h.h_lock;
      if h.h_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP preo_%s %s\n" h.h_name h.h_help);
      Buffer.add_string buf (Printf.sprintf "# TYPE preo_%s histogram\n" h.h_name);
      let cumulative = ref 0 in
      Array.iteri
        (fun j c ->
          cumulative := !cumulative + c;
          let le =
            if j < Array.length h.h_bounds then float_str h.h_bounds.(j)
            else "+Inf"
          in
          Buffer.add_string buf
            (Printf.sprintf "preo_%s_bucket{le=\"%s\"} %d\n" h.h_name le !cumulative))
        counts;
      Buffer.add_string buf (Printf.sprintf "preo_%s_sum %.9f\n" h.h_name sum);
      Buffer.add_string buf (Printf.sprintf "preo_%s_count %d\n" h.h_name count))
    hs;
  Buffer.contents buf
