(** Task-facing ports (the generalized Foster–Chandy model, Fig. 3).

    An outport accepts blocking [send] operations, an inport blocking [recv]
    operations; completion is decided entirely by the connector the port is
    linked to. *)

open Preo_support

type outport
type inport

val make_out : Engine.t -> Preo_automata.Vertex.t -> outport
val make_in : Engine.t -> Preo_automata.Vertex.t -> inport

val send : ?deadline:float -> outport -> Value.t -> unit
(** Blocks until the connector completes the operation. May raise
    {!Engine.Poisoned}, and {!Engine.Timed_out} when [deadline] (an
    absolute Unix time) expires first — the pending operation is withdrawn
    before raising, so the port stays usable. A NaN [deadline] raises
    [Invalid_argument] before anything is queued. *)

val recv : ?deadline:float -> inport -> Value.t
(** Blocks until a datum is delivered (deadline as in {!send}). *)

val send_opt :
  ?deadline:float -> outport -> Value.t -> (unit, Engine.stall_report) result
(** Like {!send} but returns [Error report] instead of raising on expiry. *)

val recv_opt :
  ?deadline:float -> inport -> (Value.t, Engine.stall_report) result

val send_batch : outport -> Value.t list -> unit
(** Submit every value's send in one lock-free publication burst and block
    behind the last one only (FIFO completion makes that sufficient); see
    {!Engine.send_many}. No deadline variant. *)

val recv_batch : inport -> int -> Value.t list
(** Receive [k] values in arrival order, parking at most once; see
    {!Engine.recv_many}. *)

val try_send : outport -> Value.t -> bool
(** Nonblocking: completes the send iff the connector can take it now. *)

val try_recv : inport -> Value.t option
(** Nonblocking: returns a datum iff the connector can deliver one now. *)

val out_vertex : outport -> Preo_automata.Vertex.t
val in_vertex : inport -> Preo_automata.Vertex.t
