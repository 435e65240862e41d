(** The synthesis run's evaluator: incremental rescheduling with
    persistent timelines and downstream-only repair (DESIGN.md
    "Incremental rescheduling"), plus the reference mode that schedules
    every call from scratch.

    Candidate evaluation schedules thousands of architectures per
    synthesis that differ from their predecessor by one cluster's
    placement.  This engine keeps a recording of the latest full
    scheduler run — the pop sequence, every resource reservation, and a
    snapshot of what the scheduler read from the architecture — and
    evaluates the next candidate by diffing it against the snapshot,
    replaying the provably unchanged prefix of the recording, and
    list-scheduling only the remainder.  Replayed verdicts are
    bit-identical to a fresh {!Schedule.run} by construction (the diff
    marks every task whose scheduling inputs changed, closes the set
    downstream, and cuts the prefix before the first pop any marked
    instance could influence).

    One engine is scoped to a synthesis trajectory and owns its
    counters, so back-to-back or concurrent runs report independent
    statistics.  It never caches schedules: a caller that needs the
    schedule of an architecture it already scheduled keeps the value it
    got.  The recording slots form a small MRU list keyed by (spec,
    clustering, copy_cap) identity, so revisiting a clustering seen
    earlier (a portfolio trajectory restart, a rescheduling round)
    replays against the retained basis instead of paying a cold rebuild.
    When no exact key matches, a basis recorded under a different
    clustering of the same spec/copy_cap is {e adopted}
    ({!Schedule.Replay.adoptable}): the per-task diff already covers
    clustering-induced changes, so the adopted prefix replays
    bit-identically and only the cut region is rescheduled.  Within one
    trajectory adoption never fires (all of its bases share its
    clustering identity); it pays off when several engines share a
    {!Store.t}, as portfolio trajectories do.  The list is an atomic
    holding immutable values, so trajectories on different domains may
    share it. *)

(** A shareable slot store.  Engines created over the same store publish
    and look up recordings in one MRU list, letting portfolio
    trajectories seed each other's bases via adoption. *)
module Store : sig
  type t

  val create : unit -> t
end

type t

val create :
  ?reference:bool ->
  ?store:Store.t ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** A fresh engine; private empty slots unless [?store] is given.
    [~reference:true] makes it the reference evaluator: every {!run} and
    {!evaluate} is one plain {!Schedule.run}, nothing is recorded,
    [?store] is ignored and the replay counters stay 0 (the synthesis
    options select it with [incremental = false]).  [?metrics] registers
    the counters as ["eval.replays"] / ["eval.rebuilds"] /
    ["eval.basis_adoptions"] / ["eval.basis_cuts"] / ["eval.pruned"];
    [?trace] emits a span around every underlying scheduler run and
    {!estimate}, and an instant event per replayed evaluation. *)

val run :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** A full scheduler run, bit-identical to {!Schedule.run}, that also
    refreshes the engine's recording (kept unchanged on [Error]).  For
    the schedules a synthesis keeps: a repaired architecture, an
    accepted merge, the chosen interface. *)

val refresh :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  unit
(** Refreshes the recording without materializing a schedule (cheaper
    than {!run}; the recording is kept unchanged if the run fails).
    For commit points where the schedule would be discarded.  A no-op in
    reference mode. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.verdict, string) result
(** Verdict of a trial candidate, bit-identical to a fresh run's
    [total_tardiness] / [deadlines_met] / [scheduled_tasks].  Served by a
    prefix replay whenever a compatible (exact-key) or adoptable
    (cross-clustering) recording exists — even a zero-length prefix
    wins, because the verdict-only run skips materialization and
    recording overhead; otherwise by a {!run}, which also seeds the
    recording. *)

val estimate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int, string) result
(** Exactly {!Schedule.estimate} (the stage-1 bound), wrapped in a
    ["schedule.estimate"] span when tracing is on. *)

val note_prune : t -> unit
(** Counts one candidate rejected by the stage-1 bound without a
    schedule. *)

val prunes : t -> int
(** Candidates rejected by the stage-1 bound ({!note_prune}). *)

val replays : t -> int
(** Evaluations served by prefix replay (exact or adopted basis). *)

val rebuilds : t -> int
(** Full scheduler runs that refreshed the recording ({!run},
    {!refresh}, and {!evaluate}'s fallback). *)

val adoptions : t -> int
(** Replayed evaluations that used a cross-clustering adopted basis
    (a subset of {!replays}). *)

val basis_cuts : t -> int
(** Total steps the adopted bases could not cover (sum over adopted
    replays of recording steps minus replayed prefix).  Small relative
    to adoptions means the bases transplant well. *)
