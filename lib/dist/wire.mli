(** Wire format of the sharded connector fabric (see {!module:Shard}).

    Values are encoded with a self-describing binary format (no [Marshal],
    so the two endpoints need not run the same binary); every message is a
    length-prefixed frame holding exactly one message. Decoding
    bounds-checks every length against the frame, so malformed peer input
    fails with [Failure "wire: ..."] rather than [Invalid_argument] or
    [Out_of_memory]; reads and writes restart on [EINTR] so a signal cannot
    corrupt the stream framing. Linking this module ignores [SIGPIPE], so a
    write to a closed peer raises [Unix_error (EPIPE, _, _)] instead of
    killing the process.

    All I/O entry points take an optional [deadline] (absolute Unix time);
    when the descriptor is not ready in time, {!Timeout} is raised. *)

open Preo_support

exception Timeout
(** A [deadline] passed before the peer produced (or accepted) the data. *)

val encode_value : Buffer.t -> Value.t -> unit
val decode_value : bytes -> pos:int ref -> Value.t
(** Raises [Failure] on malformed input. *)

(** Messages of the sharded connector fabric (see {!module:Shard}). One
    connection carries all cut channels between two processes; [Sh_batch]
    coalesces every value queued on one channel since the last flush into a
    single frame, and [Sh_ack] is cumulative (acknowledges all sequence
    numbers below [upto]), so the in-flight window survives reconnects. *)
type shard_msg =
  | Sh_hello of { token : string }
      (** first frame from a worker; names the link *)
  | Sh_cfg of Value.t
      (** host → worker: the placement configuration (DSL source, lengths,
          regions, channels, workloads) as one encoded value *)
  | Sh_resume of (int * int) list
      (** worker → host after [Sh_cfg]: per-channel [(ch, upto)] — every
          sequence number below [upto] was durably consumed; the host trims
          its replay window to start there *)
  | Sh_batch of { ch : int; base : int; items : Value.t list }
      (** items carry sequence numbers [base], [base+1], ... *)
  | Sh_ack of { ch : int; upto : int }  (** cumulative: acks all seq < upto *)
  | Sh_poison of string  (** structured cross-process poison *)
  | Sh_close  (** orderly shutdown *)

val encode_shard : Buffer.t -> shard_msg -> unit

val decode_shard : bytes -> pos:int ref -> shard_msg
(** Raises [Failure "wire: ..."] on malformed input. *)

val write_shard : ?deadline:float -> Unix.file_descr -> shard_msg -> unit

val read_shard : ?deadline:float -> Unix.file_descr -> shard_msg option
(** [None] on clean EOF. Raises [Failure "wire: ..."] on a malformed frame,
    including one with bytes left over after its message. *)
