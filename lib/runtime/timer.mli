(** Process-wide wake-up timer for deadline-carrying blocking operations.

    [Condition.wait] cannot time out, so an operation with a deadline
    registers a wake-up callback here before parking; the timer thread
    (started lazily on first use — deadline-free programs never pay for it)
    fires the callback at the requested absolute time. Callbacks must be
    cheap and exception-free in spirit (exceptions are swallowed); the
    intended use is broadcasting a condition variable so the parked
    operation re-checks its deadline itself. Fired entries are dropped; a
    late spurious broadcast is harmless. *)

type handle

val register : float -> (unit -> unit) -> handle
(** [register t f] runs [f ()] on the timer thread at absolute Unix time [t]
    (promptly if [t] is already past). Entries with identical times all
    fire. Raises [Invalid_argument] when [t] is NaN. *)

val cancel : handle -> unit
(** Remove a registration; its callback will never run afterwards. Cancelling
    an already-fired (or already-cancelled) handle is a no-op. Cancellation
    does not wait for a concurrently-running callback. *)

val wake_at : float -> (unit -> unit) -> unit
(** {!register} without keeping the handle (fire-and-forget). *)

val shutdown : unit -> unit
(** Stop and join the timer thread, dropping outstanding registrations
    (their callbacks never run). No-op when the thread was never started;
    idempotent, and safe to race with {!register} from other threads: a
    concurrent registration either lands before the cut (and is dropped with
    the rest) or observes no timer thread and starts a fresh one that will
    service it — it is never silently stranded. The module stays usable
    afterwards: the next {!register} starts a fresh thread. Intended for
    tests, so the timer thread can be joined instead of leaking across suite
    runs. *)
