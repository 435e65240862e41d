(** CRUSADE: the heuristic constructive co-synthesis flow (Fig. 5).

    Pre-processing (association array, clustering) -> synthesis (cluster
    allocation with scheduling and finish-time estimation in the inner
    loop) -> dynamic-reconfiguration generation (compatibility-driven
    merging of programmable devices into multi-mode devices, and
    reconfiguration-controller interface synthesis). *)

type traj
(** Per-trajectory portfolio control block carried in {!options}
    ([portfolio] field).  Constructed only by
    {!Portfolio.trajectory_options} / {!Portfolio.run}. *)

type options = {
  dynamic_reconfiguration : bool;
      (** enable multi-mode PPEs (new-mode allocations and the merge
          phase); off = every programmable device keeps one image *)
  copy_cap : int;  (** association-array explicit-copy cap per graph *)
  max_cluster_size : int;
  use_clustering : bool;  (** false = singleton clusters (ablation) *)
  eval_window : int;
      (** allocation options evaluated per cluster before falling back
          to the least-tardy one *)
  merge_trials_per_pass : int;
  allow_new_pes : bool;
      (** false restricts allocation to the existing PEs (plus new modes
          on programmable devices) — the field-upgrade scenario of
          Section 3, where features are added by reprogramming alone *)
  jobs : int;
      (** domains {!Portfolio.run} spreads its trajectories over
          ([min n jobs]); a single synthesis always evaluates its
          candidates on one domain, so results never depend on it.
          Defaults to the [CRUSADE_JOBS] environment variable (clamped
          to the machine), else 1. *)
  incremental : bool;
      (** incremental rescheduling (default true): evaluate trial
          candidates by replaying the provably unchanged prefix of the
          last full scheduler run ({!Crusade_sched.Incremental}) instead
          of rebuilding every timeline from scratch.  [false] selects the
          reference evaluator, one plain scheduler run per evaluation —
          the oracle tests and fuzzing compare against.  Synthesis
          results are bit-identical either way; [--no-incremental] in
          the CLI and benchmark drivers maps here. *)
  trace : Crusade_util.Trace.t option;
      (** when set, every synthesis phase (pre-processing, clustering,
          allocation per cluster and per candidate, repair, merge
          trials, interface synthesis) and every underlying
          [Schedule.run] emits span events into the sink, plus counter
          samples of the evaluator statistics at phase boundaries and an
          ["alloc.fallback"] instant per least-tardy fallback commit;
          [None] (the default) takes a no-op fast path that
          never reads the clock, and synthesis output is bit-identical
          either way.  Export with {!Crusade_util.Trace.write_file}. *)
  portfolio : traj option;
      (** portfolio trajectory control block ([None], the default, for
          plain runs — zero overhead).  When set (by {!Portfolio}), the
          flow perturbs its cluster pop order, allocation tie-breaks and
          merge knobs from the trajectory's seeded stream, and checks
          the wall-clock budget at commit points, stopping once it has
          expired. *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation hook ([None], the default, costs
          nothing): polled at the same commit points as the portfolio
          budget check — after each cluster allocation, each repair
          rip-up, each merge pass and before interface synthesis.  When
          it returns [true] the flow raises {!Cancelled}, which escapes
          {!synthesize} to the caller (a job server marks the job
          cancelled; nothing partial is returned). *)
}

exception Cancelled
(** Raised out of the synthesis flow when [options.cancel] reports the
    run should stop.  Never raised when [cancel = None]. *)

val default_options : options

type eval_stats = {
  pruned : int;
      (** evaluations given a threshold to beat (the incumbent fallback
          in allocation, the current tardiness in repair, feasibility in
          merge) whose replay came back above it — usually stopped
          early; see {!Crusade_sched.Incremental.evaluate} *)
  memo_hits : int;
      (** retired, always 0: the schedule memo table is gone — each
          phase hands its schedule to the next instead of looking it
          up.  Kept (with [memo_misses] and [memo_bypassed]) only so
          existing readers of the record still build. *)
  memo_misses : int;  (** retired, always 0 (see [memo_hits]) *)
  memo_bypassed : int;  (** retired, always 0 (see [memo_hits]) *)
  rollbacks : int;  (** journaled trial mutations undone in place *)
  replays : int;
      (** evaluations served by incremental prefix replay: candidate
          trials, and the unbounded replays behind every kept schedule *)
  rebuilds : int;
      (** evaluations that found no compatible basis and ran the
          scheduler from scratch: 1 per synthesis (its first
          evaluation), 0 in a {!Resynth} attempt seeded with a basis,
          and 0 when [options.incremental] is off *)
  merge_replays : int;
      (** the merge phase's share of [replays] — how much of the PPE
          merge/combine trial load the incremental basis absorbed *)
  merge_rebuilds : int;
      (** the merge phase's share of [rebuilds]: always 0, since the
          merge phase starts from the basis allocation left.  Kept so
          existing readers of the record still build. *)
  traj_launched : int;
      (** portfolio trajectories launched; 0 outside portfolio runs
          (the winning result is annotated via {!Portfolio.annotate}) *)
  traj_completed : int;  (** trajectories that ran to completion *)
  traj_aborted : int;  (** trajectories stopped by the budget *)
}
(** Evaluator counters of one synthesis flow.  Each flow owns
    its counters (and its evaluator), so back-to-back or concurrent
    syntheses in one process report fully independent, exact statistics.
    The [traj_*] fields are zero for plain flows; {!Portfolio.annotate}
    folds a portfolio run's counters into its winning result. *)

type result = {
  spec : Crusade_taskgraph.Spec.t;
  arch : Crusade_alloc.Arch.t;
  clustering : Crusade_cluster.Clustering.t;
  schedule : Crusade_sched.Schedule.t;
  cost : float;
  n_pes : int;
  n_links : int;
  n_modes : int;  (** configuration images across all PPEs *)
  deadlines_met : bool;
  cpu_seconds : float;
      (** [Sys.time] delta: processor time summed over every domain, so
          it exceeds elapsed time when portfolio trajectories run in
          parallel *)
  wall_seconds : float;  (** elapsed wall-clock time of the synthesis *)
  merge_stats : Crusade_reconfig.Merge.stats option;
  chosen_interface : Crusade_reconfig.Interface.option_t option;
  eval_stats : eval_stats;
}

val synthesize :
  ?options:options ->
  ?include_graph:(int -> bool) ->
  Crusade_taskgraph.Spec.t ->
  Crusade_resource.Library.t ->
  (result, string) Stdlib.result
(** Runs the full co-synthesis flow.  [Error] is returned only for
    structurally impossible inputs (a cluster no PE type can host);
    deadline misses are reported through [deadlines_met].
    [include_graph] restricts synthesis to a subset of the task graphs
    (the deployed base of a {!Resynth} graph arrival or field upgrade);
    excluded graphs' clusters stay unallocated. *)

(** Anytime portfolio-parallel search (DESIGN.md "Portfolio search").

    Runs N perturbed copies of a synthesis flow concurrently on the
    {!Crusade_util.Pool} domain pool.  Trajectory 0 is the unperturbed
    reference (bit-identical to the plain flow, exempt from the budget);
    trajectories 1..N-1 draw deterministic perturbations — cluster
    pop-order jitter, allocation tie-break jitter, evaluation-window /
    copy-cap / merge-knob variation — from a stream seeded by
    (seed, index).  Trajectories share nothing but the pool: each runs
    its own flow with its own evaluator, so every trajectory's result
    and counters, the winner — the lexicographic minimum of (deadlines
    missed, cost, index) over completed trajectories — and the
    portfolio's [stats] are a function of (seed, N), whatever the
    domain interleaving or [options.jobs] value.  With a [budget_ms]
    wall-clock budget, trajectories past the deadline stop at their next
    check point and the best result found so far is returned
    (determinism then extends only to the trajectories that
    completed). *)
module Portfolio : sig
  type stats = {
    launched : int;
    completed : int;
    failed : int;  (** flows that returned [Error] *)
    aborted : int;  (** stopped by the wall-clock budget *)
  }

  type trajectory_report =
    | Completed of { t_cost : float; t_met : bool }
    | Failed of string
    | Aborted  (** the wall-clock budget expired at a check point *)

  type 'a outcome = {
    best : 'a;
    best_index : int;
    best_cost : float;
    best_met : bool;
    baseline_cost : float option;
        (** trajectory 0's (unperturbed) cost; [None] only if it failed *)
    trajectories : trajectory_report array;
        (** per-trajectory diagnostics; only a budget makes any
            trajectory [Aborted] *)
    stats : stats;
  }

  val resolve_n : int -> int
  (** [resolve_n n] maps the CLI convention: [n <= 0] means one
      trajectory per available domain ({!Crusade_util.Pool.size}). *)

  val trajectory_options : options -> seed:int -> index:int -> options
  (** The exact options trajectory [index] of a [run] with this [seed]
      executes, minus the budget — for rerunning one trajectory alone
      (debugging).  [index = 0] returns the base options (the
      unperturbed reference). *)

  val annotate : eval_stats -> stats -> eval_stats
  (** Folds portfolio counters into a result's [eval_stats] (used by the
      CLI/bench drivers on the winning result). *)

  val run :
    ?budget_ms:int ->
    ?seed:int ->
    n:int ->
    options:options ->
    flow:(options -> ('a, string) Stdlib.result) ->
    cost:('a -> float) ->
    met:('a -> bool) ->
    unit ->
    ('a outcome, string) Stdlib.result
  (** [run ~n ~options ~flow ~cost ~met ()] drives the portfolio.
      [flow] is the full synthesis entry point (e.g.
      [fun o -> synthesize ~options:o spec lib], or the fault-tolerant
      flow); it receives each trajectory's derived options and must let
      exceptions pass through.  [cost]/[met] project the comparison key
      out of a flow result.  [n <= 0] resolves via {!resolve_n};
      [n = 1] without budget is a pure passthrough of [flow options].
      [min n options.jobs] trajectories run concurrently on the global
      pool (fewer when the machine has fewer domains).  [Error] is
      returned only when no trajectory completed — trajectory 0 cannot
      abort, so in practice exactly when the plain flow errors. *)
end

val audit : ?include_graph:(int -> bool) -> result -> Crusade_alloc.Audit.violation list
(** End-to-end first-principles audit of a synthesis result, empty when
    sound.  [include_graph] (default: all) restricts the coverage rule
    to the graphs the result is supposed to place — partial syntheses
    (an upgrade base, a post-departure repair) are otherwise flagged for
    their intentionally unplaced clusters.  Composes:
    - the architecture-level rules of {!Crusade_alloc.Audit.check}
      (placement feasibility, occupancy/capacity/cost/count accounting,
      exclusion, connectivity, mode discipline), judged against the
      schedule-discovered graph compatibility — the merge phase's own
      notion — refined by actual per-device serialization, so legal
      dynamic-reconfiguration sharings are never flagged;
    - a ["coverage"] rule: every cluster of the specification is placed;
    - a ["verdict-consistency"] rule: the result's [deadlines_met]
      agrees with its schedule;
    - the timeline rules of {!Crusade_sched.Validate.check} (precedence,
      arrivals, execution times, CPU capacity, mode exclusivity and
      boot gaps, deadline verdict).

    The audit runs once on a finished result — never inside the
    synthesis inner loop — so enabling it costs a single pass over the
    final architecture and schedule. *)

val pp_report : Format.formatter -> result -> unit
(** Human-readable architecture/synthesis report. *)

val schedule_fingerprint : Crusade_sched.Schedule.t -> int
(** Order-sensitive hash of every instance's (task, copy, start,
    finish): two schedules with equal fingerprints are the same
    timeline for differential purposes.  Deterministic within a build
    (it composes [Hashtbl.hash]). *)

val result_json : result -> string
(** Deterministic machine-readable summary of a result: spec name and
    sizes, cost, PE/link/image counts, deadline verdict, total
    tardiness, {!schedule_fingerprint} and a sorted per-PE-type tally.
    Two syntheses of the same (spec, options) — any [jobs] count, any
    evaluator configuration — produce byte-identical strings, which is
    what lets a result cache serve them interchangeably; wall/cpu times
    and interleaving-dependent counters are deliberately excluded. *)

(** Warm re-synthesis under change (DESIGN.md "Re-synthesis under
    change"): repair a deployed architecture after a change event
    instead of synthesizing from scratch.

    {!Resynth.apply} computes the invalidation closure of the change —
    the clusters it rips out of their sites — seeds the incremental
    engine with a recording of the post-change architecture so every
    schedule prefix the change provably left untouched replays verbatim,
    and re-runs the synthesis flow over only the cut tail (placed
    clusters are treated as already allocated).  Two attempts mirror the
    field-upgrade discipline: first with [allow_new_pes = false] (can
    the deployed hardware absorb the change by reprogramming alone?),
    then, if deadlines are still missed and the caller's options permit
    new parts, with new hardware allowed.  Both attempts' outcomes are
    reported, so an [Infeasible] verdict explains why each failed. *)
module Resynth : sig
  type change =
    | Graph_arrival of int list
        (** graphs (by id) previously excluded from synthesis start
            running: allocate their clusters onto the deployed
            architecture *)
    | Graph_departure of int list
        (** graphs stop running: vacate their clusters, then let repair
            and the merge phase shrink the architecture *)
    | Pe_failure of int
        (** the PE instance fails in the field: its residents are ripped
            up and restarted warm on the survivors (or, failing that, on
            replacement hardware) *)
    | Exec_drift of int
        (** measured execution times drift by the given percentage
            (e.g. [20] = 20% slower, [-10] = 10% faster); the
            specification is rebuilt with scaled execution vectors while
            clustering and placements are preserved *)
    | Upgrade of int list
        (** field upgrade (Section 3): same mechanics as
            [Graph_arrival] — the deployed base was synthesized without
            these graphs, and the verdict says whether the feature
            release ships as configuration images alone *)

  type attempt_outcome = Met | Tardy of int  (** total tardiness, us *) | Failed of string

  type verdict =
    | Images_only of { result : result; added_images : int }
        (** the deployed hardware absorbs the change by reprogramming
            alone ([added_images] may be negative after a departure) *)
    | Needs_hardware of {
        result : result;
        added_pes : int;
        added_cost : float;
      }
    | Infeasible
        (** both attempts failed; see the report's attempt outcomes *)

  type report = {
    deployed : result;
    change : change;
    verdict : verdict;
    reprogram_attempt : attempt_outcome;
    hardware_attempt : attempt_outcome option;
        (** [None] when reprogramming sufficed or new parts were
            forbidden by the caller's options *)
    ripped_clusters : int list;
        (** clusters the change vacated (empty for arrivals and drift,
            where only new or repair-chosen clusters move) *)
    added_pes : int;  (** in-use PE instances gained vs. deployed *)
    removed_pes : int;  (** in-use PE instances vacated vs. deployed *)
    cost_delta : float option;  (** final - deployed; [None] if infeasible *)
    resynth_seconds : float;  (** wall-clock re-synthesis latency *)
  }

  val apply :
    ?options:options -> result -> change -> (report, string) Stdlib.result
  (** [apply deployed change] repairs the deployed result.  [Error] only
      for invalid change targets (unknown graph/PE ids, drift <= -100%)
      or structurally impossible re-synthesis; deadline misses are
      reported through the verdict. *)

  val final_result : report -> result option
  (** The repaired result, [None] when the verdict is [Infeasible]. *)

  val audit_report : report -> Crusade_alloc.Audit.violation list
  (** {!audit} of the repaired result with the coverage rule restricted
      to the graphs the change left deployed (deployed + arrivals -
      departures); empty when infeasible or sound. *)

  val expected_graphs : result -> change -> int -> bool
  (** The coverage predicate {!audit_report} uses, exposed for callers
      auditing with extra context. *)

  val drift_spec :
    Crusade_taskgraph.Spec.t ->
    int ->
    (Crusade_taskgraph.Spec.t, string) Stdlib.result
  (** The rebuilt specification an [Exec_drift] change synthesizes
      against: every feasible execution time scaled by the given
      percentage, ids/edges/compatibility preserved.  Exposed so
      differential harnesses can run the from-scratch comparison on
      exactly the same drifted workload. *)

  val describe_change : change -> string

  val pp_report : Format.formatter -> report -> unit
end
