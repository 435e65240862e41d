(** Incremental rescheduling: persistent timelines with downstream-only
    repair (DESIGN.md "Incremental rescheduling").

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

    One engine is scoped to a synthesis trajectory, like {!Memo}; the
    recording slots form a small MRU list keyed by (spec, clustering,
    copy_cap) identity, so revisiting a clustering seen earlier (a
    portfolio trajectory restart, a rescheduling round) replays against
    the retained basis instead of paying a cold rebuild.  When no exact
    key matches, a basis recorded under a different clustering of the
    same spec/copy_cap is {e adopted} ({!Schedule.Replay.adoptable}):
    the per-task diff already covers clustering-induced changes, so the
    adopted prefix replays bit-identically and only the cut region is
    rescheduled.  Within one trajectory adoption never fires (all of its
    bases share its clustering identity); it pays off when several
    engines share a {!Store.t}, as portfolio trajectories do.  The list
    is an atomic holding immutable values, so trajectories on different
    domains may share it. *)

(** A shareable slot store.  Engines created over the same store publish
    and look up recordings in one MRU list, letting portfolio
    trajectories seed each other's bases via adoption. *)
module Store : sig
  type t

  val create : unit -> t
end

type t

val create :
  ?store:Store.t ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** A fresh engine; private empty slots unless [?store] is given.
    [?metrics] registers the counters as ["eval.replays"] /
    ["eval.rebuilds"] / ["eval.basis_adoptions"] / ["eval.basis_cuts"];
    [?trace] emits an instant event per replayed evaluation. *)

val record :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** A full scheduler run, bit-identical to {!Schedule.run}, that also
    refreshes the engine's recording (kept unchanged on [Error]). *)

val refresh :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  unit
(** Refreshes the recording without materializing a schedule (cheaper
    than {!record}; the recording is kept unchanged if the run fails).
    For commit points where the schedule would be discarded. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  [ `Replayed of (Schedule.verdict, string) result
  | `Ran of (Schedule.t, string) result ]
(** Evaluates a candidate.  [`Replayed] carries the verdict of a prefix
    replay — bit-identical to a fresh run's verdict, but without
    materializing a schedule; returned whenever a compatible (exact-key)
    or adoptable (cross-clustering) recording exists (even a zero-length
    prefix wins: the verdict-only run skips materialization and
    recording overhead).  [`Ran] carries a full {!record} run (the
    fallback, which also refreshes the recording). *)

val replays : t -> int
(** Evaluations served by prefix replay (exact or adopted basis). *)

val rebuilds : t -> int
(** Full scheduler runs through {!record} (including fallbacks). *)

val adoptions : t -> int
(** Replayed evaluations that used a cross-clustering adopted basis
    (a subset of {!replays}). *)

val basis_cuts : t -> int
(** Total steps the adopted bases could not cover (sum over adopted
    replays of recording steps minus replayed prefix).  Small relative
    to adoptions means the bases transplant well. *)
