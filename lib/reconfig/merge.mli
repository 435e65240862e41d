(** Dynamic-reconfiguration generation (Sections 4.1 / 4.2 / Fig. 3).

    After an architecture meets its deadlines, CRUSADE computes its merge
    potential (number of PPEs plus links), builds a merge array of PPE
    pairs that could collapse into a single multi-mode device, and
    explores the merges in decreasing-saving order; a merge is kept when
    the re-scheduled architecture still meets every deadline and costs
    less.  A second pass combines modes of the same device when capacity
    allows, cutting configuration images and reboots.  The process
    repeats until neither the cost nor the merge potential improves. *)

type stats = {
  merges_accepted : int;
  merges_tried : int;
  modes_combined : int;
  iterations : int;
}

val merge_potential : Crusade_alloc.Arch.t -> int
(** Number of (occupied) programmable PEs plus links — the quantity the
    merge loop drives down. *)

val optimize :
  ?copy_cap:int ->
  ?max_trials_per_pass:int ->
  ?fit_scale:float * float ->
  ?on_pass:(unit -> unit) ->
  ?trace:Crusade_util.Trace.t ->
  eval:Crusade_sched.Incremental.t ->
  schedule:Crusade_sched.Schedule.t ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  Crusade_alloc.Arch.t * Crusade_sched.Schedule.t * stats
(** Returns the improved architecture with its final schedule.
    [schedule] must be the input architecture's own schedule (the caller
    has it already; it is never recomputed here).  The input
    architecture is never mutated: every trial mutates one private copy
    under the {!Crusade_alloc.Arch.checkpoint} journal and rolls back
    unless accepted, so each trial is a prefix replay against a warm
    per-pass basis of [eval], the calling run's evaluator; only accepted
    trials are scheduled in full.

    A trial that costs more than acceptance allows is rejected without
    scheduling; the others are evaluated with [~limit:0], so a replay
    stops at the trial's first late instance.  [trace] adds ["merge.trial"] / ["merge.combine"] spans
    and a ["merge.pass"] instant per pass.

    [fit_scale] (default [(1.0, 1.0)]) scales the usable PFU/pin caps
    used by the fit checks; portfolio trajectories perturb it
    {e downward} only, so a scaled pass can only reject merges the
    unperturbed pass would accept — never produce an over-capacity
    architecture.  [on_pass] is called at the start of every pass; the
    flow's budget and cancellation check may raise from it to stop the
    optimization. *)
