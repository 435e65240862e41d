(** The synthesis run's evaluator: incremental rescheduling with
    persistent timelines and downstream-only repair (DESIGN.md
    "Incremental rescheduling"), plus the reference mode that schedules
    every call from scratch.

    Candidate evaluation schedules thousands of architectures per
    synthesis that differ from their predecessor by one cluster's
    placement.  This engine keeps one recording as its basis — the pop
    sequence, every resource reservation, and a snapshot of what the
    scheduler read from the architecture — and evaluates the next
    candidate by diffing it against the snapshot,
    replaying the provably unchanged prefix of the recording, and
    list-scheduling only the remainder.  Replayed verdicts are
    bit-identical to a fresh {!Schedule.run} by construction (the diff
    marks every task whose scheduling inputs changed, closes the set
    downstream, and cuts the prefix before the first pop any marked
    instance could influence).

    A replay also records the steps it list-schedules, so a candidate
    the caller commits already has its recording: {!take} it after the
    evaluation and {!adopt} it as the next basis, which splices it onto
    the replayed prefix in linear time instead of scheduling the
    committed architecture again.  A schedule the caller keeps is read
    off such an adopted basis ({!run}), so the scheduler runs from
    scratch only when no compatible basis exists.

    One engine is scoped to a synthesis run and owns its counters, so
    back-to-back or concurrent runs report independent statistics.  It
    never caches schedules: a caller that needs the schedule of an
    architecture it already scheduled keeps the value it got.  It holds
    exactly one recording.  Every call of a run shares one (spec,
    clustering, copy_cap) key, so that slot always holds the run's
    freshest basis; a call under another key rebuilds and takes the
    slot over. *)

type t

val create :
  ?reference:bool ->
  ?basis:Schedule.Replay.recording ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** A fresh engine whose slot holds [basis] (empty by default), so a
    caller that already recorded the architecture a run starts from (a
    warm re-synthesis does) makes the run's first evaluation a
    replay.  [~reference:true] makes it the reference evaluator: every
    {!run} and {!evaluate} is one plain {!Schedule.run}, nothing is
    recorded, [basis] is ignored and the replay counters stay 0 (the
    synthesis options select it with [incremental = false]).  [?metrics]
    registers the counters as ["eval.replays"] / ["eval.rebuilds"] /
    ["eval.pruned"]; [?trace] emits a span around every underlying
    scheduler run and an instant event per replayed evaluation. *)

val run :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** The schedule of [arch], bit-identical to {!Schedule.run}: an
    unbounded {!evaluate} whose recording becomes the basis (its tail
    is adopted; a rebuild's recording already is the basis), then
    {!Schedule.Replay.schedule} of that basis.  The basis is kept
    unchanged on [Error].  For the schedules a synthesis keeps: a
    repaired architecture, an accepted merge, the chosen interface.  In
    reference mode, one plain {!Schedule.run}. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  ?limit:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.verdict, string) result
(** Verdict of a trial candidate, bit-identical to a fresh run's
    [total_tardiness] / [deadlines_met] / [scheduled_tasks] whenever
    that tardiness is at most [limit] (non-negative; default
    unbounded).  Served by a prefix replay whenever the engine's
    recording is {!Schedule.Replay.compatible} with the call, even from
    a zero-length prefix; otherwise by a rebuild, a
    {!Schedule.Replay.record_only} run whose recording then replaces
    the old one.

    A replay stops as soon as the candidate's tardiness provably exceeds
    [limit] and reports a tardiness above [limit] with [v_met = false]
    (see {!Schedule.Replay.replay_verdict}), possibly [Ok] where the
    full run fails.  A caller that rejects both [Error] and every
    verdict above [limit] therefore decides exactly as on the full run.
    A rebuild and the reference evaluator ignore [limit].

    A replay that ran to the end leaves the tail it recorded pending
    for {!take}.  A replay that [limit] stopped, a failed evaluation and
    the reference evaluator leave none, and so does a rebuild: its
    recording already is the basis. *)

val take : t -> Schedule.Replay.tail option
(** Removes and returns the last {!evaluate}'s pending tail, to adopt
    now or to hold beside a fallback candidate.  Always [None] in
    reference mode. *)

val adopt : t -> Schedule.Replay.tail -> unit
(** Makes the tail's recording the engine's basis by splicing it onto
    the prefix it replayed ({!Schedule.Replay.splice}).  The splice
    reads PE types, mode boot times and links from the architecture the
    candidate was evaluated on, so adopt while that architecture is in
    the evaluated state: right after a commit, or after re-applying the
    same option to the rolled-back base (a rollback restores the base
    bit for bit).  Not a scheduler run: {!rebuilds} does not count it. *)

val prunes : t -> int
(** Evaluations that returned a tardiness above their [limit]. *)

val replays : t -> int
(** Evaluations served by prefix replay. *)

val rebuilds : t -> int
(** Rebuilds: evaluations (a {!run}'s included) that found no
    compatible basis and ran the scheduler from scratch.  One per
    synthesis, on its first evaluation; none when {!create} was handed a
    compatible basis.  An {!adopt}ed splice is not one. *)
