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
  ?prune:bool ->
  ?fit_scale:float * float ->
  ?on_pass:(Crusade_alloc.Arch.t -> unit) ->
  ?trace:Crusade_util.Trace.t ->
  memo:Crusade_sched.Memo.t ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Crusade_alloc.Arch.t * Crusade_sched.Schedule.t * stats, string) result
(** Returns the improved architecture with its final schedule.  The input
    architecture is never mutated: every trial mutates one private copy
    under the {!Crusade_alloc.Arch.checkpoint} journal and rolls back
    unless accepted, so with the incremental engine attached each trial
    is a prefix replay against a warm per-pass basis.

    [prune] (default true) rejects trials whose exact cost or tardiness
    bound already rules out acceptance, without scheduling them.  [memo]
    is the calling run's {!Crusade_sched.Memo} table — repeated
    schedules are served from it (create it with [~enabled:false] to
    switch stage 2 off).  Both leave the accepted architectures and the
    [stats] counters bit-identical.  [trace] adds ["merge.trial"] /
    ["merge.combine"] spans and a ["merge.pass"] instant per pass.

    [fit_scale] (default [(1.0, 1.0)]) scales the usable PFU/pin caps
    used by the fit checks; portfolio trajectories perturb it
    {e downward} only, so a scaled pass can only reject merges the
    unperturbed pass would accept — never produce an over-capacity
    architecture.  [on_pass] is called with the current architecture at
    the start of every pass; a portfolio trajectory's incumbent-bound /
    budget check may raise from it to abort the optimization. *)
