(** Runtime configuration: which compilation/execution approach drives a
    connector instance. *)

type t =
  | Existing of {
      use_dispatch : bool;  (** whole-automaton dispatch index (opt. [19]) *)
      optimize_labels : bool;  (** command precompilation (opt. [30]) *)
      max_states : int;  (** compile-time state budget; exceeding = compile failure *)
      max_trans : int;  (** compile-time transition budget *)
      max_compile_seconds : float;  (** compile-time CPU budget *)
      true_synchronous : bool;  (** include joint firings of independent parts *)
    }
      (** The existing compiler: full ahead-of-time composition into one
          large automaton. *)
  | New of {
      optimize_labels : bool;  (** solve each expanded transition once *)
      cache_capacity : int;  (** bounded LRU state cache; 0 = unbounded *)
      expansion_budget : int;  (** per-state combination budget before giving up *)
      partition : bool;  (** split at internal fifos into multiple engines (extension) *)
      true_synchronous : bool;  (** include joint firings of independent parts *)
    }
      (** The new parametrized approach: medium automata composed
          just-in-time. *)

val existing : t
(** Defaults: dispatch + label optimization on, 200k-state budget. *)

val existing_states : int -> t

val new_jit : t
(** Defaults: label optimization on, unbounded cache, 2M expansion budget,
    no partitioning. *)

val new_jit_cached : int -> t
val new_partitioned : t

val stall_threshold : float option ref
(** Stall-watchdog threshold in seconds: a blocking port operation waiting
    longer than this has a stall report snapshotted into its engine (see
    [Engine.last_stall]) and counted in [Connector.stats]. [None] (default)
    disables the watchdog, and so does a NaN threshold; initialized from the
    [PREO_STALL_THRESHOLD] environment variable when set. *)

val domains : int option ref
(** Process-wide default domain count for connector instantiation. [None]
    (default) sizes from [Domain.recommended_domain_count], capped at
    {!max_domains}; an explicit value is honored up to the cap even beyond
    the recommended count. Initialized from the [PREO_DOMAINS] environment
    variable when set. *)

val compile : bool option ref
(** Process-wide default for compiled transition dispatch. [None] (default)
    means on: solved commands are lowered into closed closures
    ([Command.compile]) and the partitioner may fuse provably alternating
    regions. [Some false] forces the interpreted reference path and disables
    region fusion. Initialized from the [PREO_COMPILE] environment variable
    when set ("0"/"false"/"no"/"off" disable, anything else enables). *)

val effective_compile : ?requested:bool -> unit -> bool
(** Resolve the compile switch: [?requested] wins, else [!compile], else
    [true]. *)

val max_domains : int
(** Hard cap on domains per connector (matches [Pool.max_domains]). *)

val effective_domains : ?requested:int -> unit -> int
(** Resolve a domain count: [?requested] wins, else [!domains], else
    [Domain.recommended_domain_count]; always clamped to
    [1..max_domains]. *)

val synchronous_of : t -> t
(** Same configuration with the textbook fully-synchronous product
    (joint independent firings included). *)

val describe : t -> string
