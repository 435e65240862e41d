(** The static scheduler and finish-time estimator (Section 5).

    Deadline-based priority-level list scheduling over the hyperperiod:
    - every task-graph copy in the hyperperiod is instantiated (the
      association array), up to [copy_cap] explicit copies per graph —
      beyond the cap the explicit schedule is extrapolated periodically;
    - tasks become ready when their intra-copy predecessors finish and
      their input edges have been transferred over a connecting link;
    - general-purpose processors and links are serial resources scheduled
      by gap insertion, with restricted preemption on processors;
    - ASIC tasks own their circuits and run as soon as ready;
    - programmable-PE tasks additionally wait for their configuration
      mode: windows of different modes may not overlap, and switching
      modes costs the reboot task (Section 4.3).

    A run's one output is a recording of its steps ({!Replay}).  Its
    verdict gives finish-time estimation (deadline check and total
    tardiness); {!Replay.schedule} reads the full schedule off it: the
    per-graph activity windows used for compatibility detection
    (Fig. 3) and the per-device mode switch counts used by
    reconfiguration generation. *)

type instance = {
  i_task : int;  (** global task id *)
  i_copy : int;
  arrival : int;
  abs_deadline : int;
  mutable start : int;
  mutable finish : int;
}

type t = {
  instances : instance array;
  hyperperiod : int;
  deadlines_met : bool;
  total_tardiness : int;
  graph_windows : Crusade_util.Intervals.t array;
      (** activity (execution + communication) per graph over the full
          hyperperiod, capped copies replicated periodically *)
  mode_switches : int array;  (** reconfigurations per PE instance *)
  scheduled_tasks : int;  (** tasks covered (placed clusters only) *)
}

val default_copy_cap : int
(** 64: graphs with more copies in the hyperperiod than this are
    scheduled for the first [copy_cap] copies and extrapolated — the
    association-array compromise documented in DESIGN.md. *)

val run :
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (t, string) result
(** Schedules every task whose cluster is placed in the architecture:
    {!Replay.schedule} of {!Replay.record_only}.  Fails only when two
    communicating placed tasks sit on PEs with no connecting link (a
    broken allocation). *)

val estimate :
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int, string) result
(** An admissible lower bound on {!run}'s [total_tardiness] for the
    same placement, in O(V + E + I log I) without building any
    timeline.  Guarantees, for every architecture:
    - [estimate] never exceeds [run]'s total tardiness;
    - [estimate] is [Error] exactly when [run] is (two communicating
      placed tasks on unconnected PEs).
    The synthesis flow no longer calls it: candidate evaluation stops
    the replay itself once a candidate loses ({!Replay.replay_tail}'s
    [limit]; DESIGN.md "Bounded replay").  Kept for the per-call timing
    probe of the benchmark. *)

val priorities :
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  int array
(** Deadline-based priority levels under the current (partial)
    allocation: allocated tasks use their actual execution time, edges
    internal to a cluster or PE cost zero. *)

type verdict = {
  v_tardiness : int;  (** {!t}[.total_tardiness] of the same run *)
  v_met : bool;  (** {!t}[.deadlines_met] *)
  v_scheduled : int;  (** {!t}[.scheduled_tasks] *)
}
(** What candidate evaluation actually consumes from a schedule.  The
    incremental engine returns a verdict per trial and reads a full
    schedule only for the architectures a synthesis keeps. *)

(** Low-level record/replay interface of the incremental engine (see
    DESIGN.md "Incremental rescheduling").  A recording holds a run's
    pop sequence and the exact resource reservations of every step, plus
    a snapshot of everything the scheduler read from the architecture.
    [record_only] records a full run; [schedule] reads the schedule off
    a recording.  [prepare] diffs a candidate architecture against a
    recording's snapshot and computes the provably identical prefix;
    [replay_tail] fast-forwards through it, schedules and records only
    the remainder, which [splice] turns into the candidate's own
    recording.  Exposed for {!Incremental} (the policy layer), the
    differential tests and the fuzzer's self-test. *)
module Replay : sig
  type recording

  val steps : recording -> int
  (** Number of recorded scheduling steps (pops). *)

  val compatible :
    recording ->
    ?copy_cap:int ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    bool
  (** A recording only applies to the same spec and clustering (by
      physical identity) and the same copy cap it was captured with. *)

  val record_only :
    ?copy_cap:int ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    Crusade_alloc.Arch.t ->
    (recording, string) result
  (** Runs the scheduler from scratch and returns its recording; fails
      exactly when {!run} does.  For a caller that needs a basis for an
      architecture no replay has scheduled: an evaluator's first
      evaluation, or a warm re-synthesis seeding its evaluator. *)

  val schedule : recording -> t
  (** The schedule of the run the recording describes: starts and
      finishes from the pops (-1 when unscheduled), tardiness summed
      over them, each graph's windows from its steps' executions and
      the link transfers logged under its steps, each PPE's mode
      switches from its windows in final order.  The one function that
      builds a {!t}; a spliced recording reads off exactly as a fresh
      one of the same architecture. *)

  type prep

  val prepare :
    recording ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    Crusade_alloc.Arch.t ->
    prep
  (** Diffs [arch] against the recording's snapshot and computes the
      replayable prefix.  The caller must have checked {!compatible}. *)

  val cut : prep -> int
  (** Steps of the recording that will be replayed verbatim — equals
      {!steps} when the candidate provably schedules identically. *)

  type tail
  (** The steps a replay list-scheduled itself, with their resource
      reservations, on top of the recording prefix it replayed. *)

  val replay_tail : ?limit:int -> prep -> (verdict * tail option, string) result
  (** Replays the prefix, then schedules and records the remainder.
      The verdict is bit-identical to that of a fresh {!run} against the
      same architecture whenever that run's tardiness is at most [limit]
      (non-negative; default unbounded).  Otherwise the replay may stop
      as soon as the tardiness of the instances scheduled so far
      exceeds [limit]: it then reports that partial tardiness (above
      [limit], at most the full run's) with [v_met = false] and the
      steps taken so far, and returns [Ok] even where the full run
      would have failed on a disconnected edge it never reached.  The
      tail is [Some] when the run scheduled every instance, [None] when
      [limit] stopped it. *)

  val replay_verdict : ?limit:int -> prep -> (verdict, string) result
  (** {!replay_tail}'s verdict. *)

  val splice : tail -> recording
  (** The recording of the replayed candidate, equal field for field to
      {!record_only} of it: the basis prefix, then the tail, with each
      resource log merged in linear time.  The placement and levels come
      from the replay; PE types, mode boot times and links are read from
      the candidate architecture, so splice while it is still in the
      state the replay scheduled (a journal rollback restores a base bit
      for bit, so re-applying the same option to it restores that
      state). *)

  val equal : recording -> recording -> bool
  (** Field-for-field equality: spec, clustering, PE and link types by
      identity, every other field by value. *)

  val corrupt_for_selftest : ?step:int -> recording -> bool
  (** Mutates the recording at [step] (default: the last step) so that
      any replay whose prefix includes it diverges from a fresh run
      (testing only: proves differential checks can fail).  Returns
      [false] when the recording has no such step. *)
end
