(** Stage-2 evaluator: a bounded, thread-safe memo table over
    {!Schedule.run}, scoped to one synthesis run.

    Synthesis schedules structurally identical architectures many times
    over — the allocation loop re-evaluates its committed winner, merge
    trials revisit rejected shapes, repair re-runs the baseline — so
    full scheduling results are cached under a structural fingerprint of
    everything the scheduler reads: the placement map, the PE table
    (type, boot time, per-mode PFU usage), the link table (type,
    attached PE set) and the copy cap, with the spec, clustering and
    library guarded by physical identity.

    A table is created per synthesis run ({!create} at flow start), so
    entries — which retain whole specs, architectures and schedules —
    can never leak across unrelated runs, and the hit/miss/prune
    counters attribute to exactly one run instead of accumulating in
    process-global atomics.  Each table is an LRU of 64 entries behind
    its own mutex (scheduling itself runs outside the lock).  Cached
    {!Schedule.t} values are shared — callers must treat them as
    read-only, which every caller in this repository already does. *)

type t
(** One run's evaluator state: the memo store plus its counters. *)

val create :
  ?enabled:bool ->
  ?incremental:bool ->
  ?basis_store:Incremental.Store.t ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** A fresh, empty table.  [~enabled:false] makes {!run} bypass the
    table entirely (no lookup, no counter traffic) — the synthesis
    options use it to switch stage 2 off.  [~incremental:false] detaches
    the {!Incremental} engine, making {!evaluate} fall back to full
    scheduler runs.  [?basis_store] hands the engine a shared recording
    store ({!Incremental.Store.t}) so several evaluators — portfolio
    trajectories — can seed each other's replay bases; ignored when the
    engine is detached.  [?metrics] registers the counters as
    ["eval.memo_hits"] / ["eval.memo_misses"] / ["eval.pruned"] /
    ["eval.memo_bypassed"] (and, with the engine attached,
    ["eval.replays"] / ["eval.rebuilds"] / ["eval.basis_adoptions"] /
    ["eval.basis_cuts"]) in the given per-run registry; [?trace] emits a
    span around every underlying {!Schedule.run} / {!Schedule.estimate}
    and an instant event per memo hit or prefix replay. *)

val run :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** Exactly {!Schedule.run}, but consulting the memo table first.  When
    the incremental engine is attached, the underlying full run also
    refreshes its recording. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.verdict, string) result
(** Verdict-only evaluation for trial candidates: same answer as
    {!run}'s [deadlines_met] / [total_tardiness] / [scheduled_tasks],
    bit-identical, but served where possible by an incremental prefix
    replay that materializes no schedule.  With the engine attached the
    memo table is bypassed (trial candidates are essentially unique, so
    the structural fingerprint cost more than the hits it earned);
    without it the table answers first.  Use {!run} when the schedule
    itself is needed. *)

val refresh :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  unit
(** Refreshes the incremental engine's replay basis with a record-only
    scheduler run (no schedule is materialized, nothing enters the memo
    table).  No-op when the engine is detached.  For commit points in
    the synthesis loops, where the schedule would be discarded. *)

val estimate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int, string) result
(** Exactly {!Schedule.estimate} (never memoized — the bound is cheaper
    than a fingerprint), wrapped in a trace span when tracing is on. *)

val hits : t -> int
(** Memo hits of this run (schedules served from the table). *)

val misses : t -> int
(** Memo misses of this run (schedules actually computed via {!run}). *)

val prunes : t -> int
(** This run's count of candidates rejected by the stage-1 bound
    ({!Schedule.estimate}) without any full schedule; incremented by the
    evaluation loops via {!note_prune}. *)

val note_prune : t -> unit

val bypasses : t -> int
(** {!evaluate} calls that skipped the memo table because the
    incremental engine answered instead; 0 when the engine is detached.
    Keeps the LRU hit/miss columns honest: with an engine attached,
    [hits] only counts {!run}-path traffic. *)

val replays : t -> int
(** Candidate evaluations served by incremental prefix replay; 0 when
    the engine is detached. *)

val rebuilds : t -> int
(** Full scheduler runs through the incremental engine (recording
    refreshes); 0 when the engine is detached. *)

val adoptions : t -> int
(** Replays served by a cross-clustering adopted basis (a subset of
    {!replays}); 0 when the engine is detached. *)

val basis_cuts : t -> int
(** Total recording steps the adopted bases could not cover; 0 when the
    engine is detached. *)

val clear : t -> unit
(** Empties the table, leaving the counters (tests; isolates benchmark
    configurations sharing one table). *)
