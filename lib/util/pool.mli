(** Deterministic work pool over OCaml 5 domains.

    Worker domains are spawned once (lazily, on first parallel call) and
    reused; jobs are index-ordered and results are returned in index
    order, so a parallel map is observably identical to its sequential
    counterpart.  When an exception escapes a job, the exception of the
    {e lowest} job index is re-raised in the caller — again matching what
    the sequential loop would have raised first.

    With [jobs <= 1] (or a single element) every entry point degrades to
    a plain inline loop in the calling domain: no domains are spawned,
    no locks are taken, and single-core behaviour is untouched. *)

type t

val create : unit -> t
(** A fresh pool with no workers; workers are spawned on demand by the
    parallel entry points, up to the requested [jobs] minus the calling
    domain (which always participates). *)

val global : unit -> t
(** The shared process-wide pool that portfolio trajectories and server
    jobs run on.  Its workers are joined automatically at exit. *)

val recommended_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: the parallelism
    the machine can actually deliver while leaving a core for the
    caller's bookkeeping. *)

val default_jobs : unit -> int
(** Value of the [CRUSADE_JOBS] environment variable clamped to
    [1 .. Domain.recommended_domain_count ()] — the same cap {!map_n}
    applies to an explicit [jobs]; [1] when unset or unparsable. *)

val size : t -> int
(** Number of concurrent tasks this pool can usefully run: the worker
    ceiling clamped to what the machine delivers ({!recommended_jobs}).
    [--portfolio 0] resolves to this many trajectories. *)

val warm : t -> int -> unit
(** [warm t n] grows the pool to [n] worker domains (clamped to the
    internal ceiling) without submitting work.  Idempotent; spawned
    domains are reused across successive rounds rather than torn down
    per batch. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t task] enqueues [task] to run on some worker domain and
    returns immediately.  The task must catch its own exceptions (a
    stray raise is swallowed by the worker backstop) and signal its own
    completion.  Pair with {!warm}: submission does not spawn workers,
    so an unwarmed pool only drains tasks once a parallel entry point
    spawns some. *)

val map_n : ?jobs:int -> t -> (int -> 'a) -> int -> 'a array
(** [map_n ~jobs t f n] computes [|f 0; f 1; ...; f (n-1)|] with up to
    [jobs] domains (default {!recommended_jobs}).  An explicit [jobs]
    is capped at [Domain.recommended_domain_count ()] — surplus runners
    would only time-share cores — and the cap never changes results,
    which are in index order; the lowest-index exception is
    re-raised. *)

val shutdown : t -> unit
(** Joins all workers.  The pool remains usable afterwards only
    sequentially ([jobs <= 1] paths); parallel calls respawn workers. *)
