module Spec = Crusade_taskgraph.Spec
module Pe = Crusade_resource.Pe
module Library = Crusade_resource.Library
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Schedule = Crusade_sched.Schedule
module Memo = Crusade_sched.Memo
module Incremental = Crusade_sched.Incremental
module Merge = Crusade_reconfig.Merge
module Interface = Crusade_reconfig.Interface
module Vec = Crusade_util.Vec
module Pool = Crusade_util.Pool
module Rng = Crusade_util.Rng
module Trace = Crusade_util.Trace

(* ---------------- Portfolio trajectory control ----------------

   A portfolio run launches N perturbed copies of the synthesis flow.
   Each copy carries a [traj] control block in its options: its index,
   the seed of its perturbation stream, the shared incumbent bound, and
   its wall-clock deadline.  The flow raises [Trajectory_abort] from its
   commit points when the incumbent bound proves the trajectory can
   never produce the winning result, or when the budget expired. *)

type bound_state = {
  b_best : (float * int) option Atomic.t;
      (* best completed feasible (cost, trajectory index), lexicographic
         minimum; only completed results are published, so an abort
         decision never depends on a speculative value *)
  b_updates : int Atomic.t;
}

type abort_reason =
  | Bound_abort of {
      floor : float;
      incumbent_cost : float;
      incumbent_index : int;
    }
  | Budget_abort

exception Trajectory_abort of abort_reason

exception Cancelled

type traj = {
  t_index : int;
  t_seed : int;  (* perturbation stream seed; unused when t_index = 0 *)
  t_bound : bound_state option;
  t_deadline : float option;  (* absolute wall clock *)
  t_fit_scale : float * float;  (* merge PFU/pin cap scale, each <= 1.0 *)
  t_basis : Incremental.Store.t option;
      (* shared recording store: perturbed trajectories (index >= 1)
         publish and adopt replay bases across their physically distinct
         clusterings; [None] for trajectory 0, which stays bit-identical
         to a plain run down to its counters *)
}

type options = {
  dynamic_reconfiguration : bool;
  copy_cap : int;
  max_cluster_size : int;
  use_clustering : bool;
  eval_window : int;
  merge_trials_per_pass : int;
  allow_new_pes : bool;
  jobs : int;
  prune : bool;
  memo : bool;
  incremental : bool;
  trace : Trace.t option;
  portfolio : traj option;
  cancel : (unit -> bool) option;
}

let default_options =
  {
    dynamic_reconfiguration = true;
    copy_cap = Schedule.default_copy_cap;
    max_cluster_size = 8;
    use_clustering = true;
    eval_window = 24;
    merge_trials_per_pass = 400;
    allow_new_pes = true;
    jobs = Pool.default_jobs ();
    prune = true;
    memo = true;
    incremental = true;
    trace = None;
    portfolio = None;
    cancel = None;
  }

type eval_stats = {
  pruned : int;
  memo_hits : int;
  memo_misses : int;
  memo_bypassed : int;
  rollbacks : int;
  replays : int;
  rebuilds : int;
  merge_replays : int;
  merge_rebuilds : int;
  basis_adoptions : int;
  basis_cuts : int;
  traj_launched : int;
  traj_completed : int;
  traj_aborted : int;
  bound_aborts : int;
  incumbent_updates : int;
}

type result = {
  spec : Spec.t;
  arch : Arch.t;
  clustering : Clustering.t;
  schedule : Schedule.t;
  cost : float;
  n_pes : int;
  n_links : int;
  n_modes : int;
  deadlines_met : bool;
  cpu_seconds : float;
  wall_seconds : float;
  merge_stats : Merge.stats option;
  chosen_interface : Interface.option_t option;
  eval_stats : eval_stats;
}

(* Wall clock for the [wall_seconds] report: [Sys.time] sums processor
   time over every domain, so it overstates elapsed time as soon as
   portfolio trajectories run in parallel. *)
let wall_now () = Unix.gettimeofday ()

(* Per-run evaluator state, created at flow start and dropped with the
   run: the stage-2 memo table (entries retain whole specs and
   architectures, so it must not outlive the run), the metrics registry
   its counters live in, and the trace sink.  Nothing here is
   process-global — back-to-back or concurrent syntheses report fully
   independent [eval_stats] and can never share a memo entry. *)
type ctx = {
  memo : Memo.t;
  metrics : Trace.Metrics.t;
  rollback_counter : Trace.Counter.t;
  trace : Trace.t option;
  check_budget : unit -> unit;
      (* raises [Trajectory_abort Budget_abort] past the deadline; a
         no-op closure outside portfolio runs *)
  perturb : Rng.t option;
      (* the trajectory's perturbation stream; [None] for trajectory 0
         and plain runs, which therefore stay bit-identical *)
  mutable merge_replays : int;
  mutable merge_rebuilds : int;
      (* the merge phase's slice of the replay/rebuild counters, sampled
         around the [Merge.optimize] span in [run_flow] *)
}

let make_ctx (opts : options) =
  let metrics = Trace.Metrics.create () in
  (* Cooperative cancellation shares the budget check's commit points:
     a flow is cancellable exactly where it is budget-abortable. *)
  let check_cancel =
    match opts.cancel with
    | Some cancelled -> fun () -> if cancelled () then raise Cancelled
    | None -> fun () -> ()
  in
  let check_budget =
    match opts.portfolio with
    | Some { t_deadline = Some d; _ } ->
        fun () ->
          check_cancel ();
          if Unix.gettimeofday () > d then
            raise (Trajectory_abort Budget_abort)
    | Some { t_deadline = None; _ } | None -> check_cancel
  in
  let perturb =
    match opts.portfolio with
    | Some t when t.t_index > 0 -> Some (Rng.create t.t_seed)
    | Some _ | None -> None
  in
  let basis_store =
    match opts.portfolio with
    | Some { t_basis; _ } -> t_basis
    | None -> None
  in
  {
    memo =
      Memo.create ~enabled:opts.memo ~incremental:opts.incremental
        ?basis_store ?trace:opts.trace ~metrics ();
    metrics;
    rollback_counter = Trace.Metrics.counter metrics "eval.rollbacks";
    trace = opts.trace;
    check_budget;
    perturb;
    merge_replays = 0;
    merge_rebuilds = 0;
  }

let eval_stats_of ctx =
  {
    pruned = Memo.prunes ctx.memo;
    memo_hits = Memo.hits ctx.memo;
    memo_misses = Memo.misses ctx.memo;
    memo_bypassed = Memo.bypasses ctx.memo;
    rollbacks = Trace.Counter.get ctx.rollback_counter;
    replays = Memo.replays ctx.memo;
    rebuilds = Memo.rebuilds ctx.memo;
    merge_replays = ctx.merge_replays;
    merge_rebuilds = ctx.merge_rebuilds;
    basis_adoptions = Memo.adoptions ctx.memo;
    basis_cuts = Memo.basis_cuts ctx.memo;
    traj_launched = 0;
    traj_completed = 0;
    traj_aborted = 0;
    bound_aborts = 0;
    incumbent_updates = 0;
  }

(* ---------------- Incumbent-bound cost floors ----------------

   A trajectory may abort only when its floor — an admissible lower
   bound on the cost of the result it would eventually return — already
   loses to the incumbent (a *completed* feasible result), because then
   the trajectory provably cannot become the portfolio winner, whatever
   the interleaving.  Soundness rests on what the remaining phases can
   remove:

   - the merge phase only collapses programmable devices and drops
     detached links; it never vacates a CPU or ASIC, and mode combining
     stays on one device.  So the base + memory cost of in-use
     non-programmable PEs survives merging, and if any programmable
     device hosts clusters, at least one (from the current in-use set)
     survives too;
   - repair performs at most 20 rip-up attempts, each vacating at most
     the one PE the ripped cluster sat on (re-allocation only adds), so
     during allocation the floor is discounted by the costliest in-use
     PEs repair could still vacate — all 20 slots during allocation,
     only the remaining attempts once repair is under way.  With
     reconfiguration off the merge phase never runs, so the floor counts
     *every* in-use PE (headroom then also ranges over every in-use PE,
     as rip-ups can vacate programmable devices too); with it on, only
     non-programmable PEs are entitled to survive, and the headroom
     ranges over those;
   - interface synthesis replaces the PROM component of the cost with
     [interface_cost >= 0], so every floor excludes PROM and link terms
     it is not entitled to; fault-tolerance spare provisioning only adds
     cost on top of the core result. *)

let pe_floor_cost (pe : Arch.pe_inst) =
  pe.Arch.ptype.Pe.cost
  +.
  match pe.Arch.ptype.Pe.pe_class with
  | Pe.General_purpose cpu ->
      float_of_int (Arch.memory_banks pe) *. cpu.Pe.memory_bank_cost
  | Pe.Asic_pe _ | Pe.Programmable _ -> 0.0

let floor_nonprog arch =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      if Arch.pe_in_use pe && not (Pe.is_programmable pe.Arch.ptype) then
        acc +. pe_floor_cost pe
      else acc)
    0.0 arch.Arch.pes

(* Sum of the [rip_budget] costliest in-use PEs repair could still
   vacate or shrink: each remaining rip-up attempt vacates at most one
   PE.  [all] widens the candidate set to programmable devices — needed
   when the floor itself counts them (reconfiguration off). *)
let repair_headroom ?(rip_budget = 20) ~all arch =
  let costs =
    Vec.fold
      (fun acc (pe : Arch.pe_inst) ->
        if Arch.pe_in_use pe && (all || not (Pe.is_programmable pe.Arch.ptype))
        then pe_floor_cost pe :: acc
        else acc)
      [] arch.Arch.pes
  in
  let sorted = List.sort (fun a b -> compare b a) costs in
  let rec top n acc = function
    | [] -> acc
    | _ when n <= 0 -> acc
    | c :: tl -> top (n - 1) (acc +. c) tl
  in
  top rip_budget 0.0 sorted

(* Cheapest in-use programmable device: merging can collapse the PPEs
   down to (at least) one of the current in-use set when any cluster
   lives on a programmable device. *)
let floor_min_ppe arch =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      if Arch.pe_in_use pe && Pe.is_programmable pe.Arch.ptype then
        match acc with
        | None -> Some pe.Arch.ptype.Pe.cost
        | Some m -> Some (Float.min m pe.Arch.ptype.Pe.cost)
      else acc)
    None arch.Arch.pes
  |> Option.value ~default:0.0

(* Once the PE set is final (post-merge, or post-repair without the
   merge phase): base + memory of everything in use; PROM and links
   still excluded (interface synthesis is pending). *)
let floor_all arch =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      if Arch.pe_in_use pe then acc +. pe_floor_cost pe else acc)
    0.0 arch.Arch.pes

(* One counter sample per phase boundary: the evaluator counters as a
   Chrome counter track, so the trace shows where the prunes/hits
   accumulate. *)
let sample_eval_counters ctx =
  Trace.counter ctx.trace "eval_stats"
    [
      ("pruned", Memo.prunes ctx.memo);
      ("memo_hits", Memo.hits ctx.memo);
      ("memo_misses", Memo.misses ctx.memo);
      ("memo_bypassed", Memo.bypasses ctx.memo);
      ("rollbacks", Trace.Counter.get ctx.rollback_counter);
      ("replays", Memo.replays ctx.memo);
      ("rebuilds", Memo.rebuilds ctx.memo);
      ("basis_adoptions", Memo.adoptions ctx.memo);
      ("basis_cuts", Memo.basis_cuts ctx.memo);
    ]

let n_modes arch =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      if Pe.is_programmable pe.Arch.ptype then acc + Arch.n_images pe else acc)
    0 arch.Arch.pes

(* Allocate one cluster: evaluate the allocation array in increasing-cost
   order; commit the first allocation whose schedule meets all deadlines,
   falling back to the least-tardy evaluated option.  The commit mutates
   [arch] in place.

   Candidate evaluation is two-staged.  Stage 1 is the admissible bound
   [Schedule.estimate]: a candidate whose bound is already positive
   cannot be feasible, and when the bound paired with the candidate's
   exact cost does not beat the incumbent fallback score either, the
   full schedule can change nothing — the candidate is dropped without
   timeline construction (counted against the window exactly like its
   full evaluation would have been).  Stage 2 is the memoized scheduler
   [Memo.run].  Both stages preserve the committed candidate bit for
   bit; [opts.prune]/[opts.memo] switch them off for A/B runs.

   Candidates are trialled directly on the base architecture under the
   undo journal (checkpoint, mutate, schedule, rollback), sparing a deep
   [Arch.copy] per candidate; a least-tardy fallback is re-applied to
   the pristine base, which reproduces the trialled architecture exactly
   because rollback restores the base bit for bit. *)
let allocate_cluster ~opts ~ctx spec clustering arch cluster =
  let candidates =
    Options.enumerate arch spec clustering cluster
      ~allow_new_modes:opts.dynamic_reconfiguration
      ~max_new_pe:(if opts.allow_new_pes then 16 else 0)
      ()
  in
  if candidates = [] then
    Error
      (Printf.sprintf "cluster %d (graph %d) fits no PE type" cluster.Clustering.cid
         cluster.Clustering.graph)
  else begin
    let debug = Sys.getenv_opt "CRUSADE_DEBUG" <> None in
    let candidates = Array.of_list candidates in
    (* Portfolio perturbation: allocation tie-break jitter.  The
       candidate array arrives sorted by (delta cost, affinity desc); a
       multiplicative jitter on the delta-cost key reorders near-ties so
       perturbed trajectories explore different commit orders.  The sort
       falls back to the original index, so equal keys keep the
       unperturbed order, and exactly one draw per candidate keeps the
       trajectory's stream aligned whatever the evaluation path does. *)
    let candidates =
      match ctx.perturb with
      | None -> candidates
      | Some rng ->
          let keyed =
            Array.mapi
              (fun i (c : Options.t) ->
                (c.Options.delta_cost *. (1.0 +. Rng.float rng 0.15), i, c))
              candidates
          in
          Array.sort
            (fun (ka, ia, _) (kb, ib, _) ->
              match compare (ka : float) kb with 0 -> compare ia ib | c -> c)
            keyed;
          Array.map (fun (_, _, c) -> c) keyed
    in
    let n = Array.length candidates in
    let rollback a ck =
      Trace.Counter.incr ctx.rollback_counter;
      Arch.rollback a ck
    in
    (* Stage 1 on an applied candidate: [Some] iff the bound alone
       settles it — [`Unschedulable] when the disconnection check
       matches [run]'s failure, [`Dominated] when the bound proves the
       candidate infeasible and no better than the incumbent score. *)
    let stage1 incumbent trial =
      (* Without an incumbent the bound cannot settle anything (an
         infeasible candidate must still be evaluated to seed the
         least-tardy fallback), so it isn't worth computing. *)
      match incumbent with
      | None -> None
      | Some best_score when opts.prune -> (
          match Memo.estimate ctx.memo ~copy_cap:opts.copy_cap spec clustering trial with
          | Error _ ->
              Memo.note_prune ctx.memo;
              Some `Unschedulable
          | Ok lb ->
              if lb > 0 && best_score <= (lb, Arch.cost trial) then begin
                Memo.note_prune ctx.memo;
                Some `Dominated
              end
              else None)
      | Some _ -> None
    in
    (* Trials only need the verdict; [Memo.evaluate] routes through the
       incremental engine (prefix replay of the last full run) and skips
       materializing a schedule.  The winner is re-applied and scheduled
       through [Memo.run] by the caller, so nothing downstream misses
       the schedule object. *)
    let schedule_trial trial =
      Memo.evaluate ctx.memo ~copy_cap:opts.copy_cap spec clustering trial
    in
    (* The fallback holds the candidate *index* — re-applying it to the
       rolled-back base reproduces the winning architecture. *)
    let best_fallback = ref None in
    let tried = ref 0 in
    let window_open () = !tried < opts.eval_window || !best_fallback = None in
    let exception Commit in
    let reapply idx = Options.apply arch spec clustering cluster candidates.(idx) in
    match
      let i = ref 0 in
      while !i < n && window_open () do
        ctx.check_budget ();
        Trace.span ctx.trace
          ~args:[ ("index", Trace.Num !i) ]
          "alloc.candidate"
          (fun () ->
            let ck = Arch.checkpoint arch in
            match Options.apply arch spec clustering cluster candidates.(!i) with
            | Error _ -> rollback arch ck
            | Ok () -> (
                match stage1 (Option.map fst !best_fallback) arch with
                | Some (`Unschedulable | `Dominated) ->
                    rollback arch ck;
                    incr tried
                | None -> (
                    match schedule_trial arch with
                    | Error _ ->
                        rollback arch ck;
                        incr tried
                    | Ok v ->
                        if v.Schedule.v_met then begin
                          Arch.commit arch ck;
                          raise Commit
                        end
                        else begin
                          let score =
                            (v.Schedule.v_tardiness, Arch.cost arch)
                          in
                          (match !best_fallback with
                          | Some (best_score, _) when best_score <= score -> ()
                          | _ -> best_fallback := Some (score, !i));
                          rollback arch ck;
                          incr tried
                        end)));
        incr i
      done;
      if !i >= n then begin
        match !best_fallback with
        | Some (score, idx) ->
            if debug then
              Printf.eprintf
                "fallback commit: cluster %d (graph %d) tardiness %d after %d evals\n%!"
                cluster.Clustering.cid cluster.Clustering.graph (fst score) !tried;
            reapply idx
        | None ->
            Error
              (Printf.sprintf "no applicable allocation for cluster %d"
                 cluster.Clustering.cid)
      end
      else begin
        (* Evaluation window exhausted: settle for the least-tardy
           option seen. *)
        match !best_fallback with
        | Some (_, idx) -> reapply idx
        | None ->
            (* The window only closes once a fallback exists
               ([window_open]), so this branch is unreachable. *)
            failwith
              (Printf.sprintf
                 "allocate_cluster: evaluation window closed with no \
                  fallback for cluster %d (graph %d) after %d of %d \
                  candidates"
                 cluster.Clustering.cid cluster.Clustering.graph !tried n)
      end
    with
    | result -> result
    | exception Commit -> Ok ()
  end

(* The synthesis flow proper, shared by [synthesize] (fresh architecture)
   and [continue_allocation] (extend a partial result): allocate every
   cluster not yet placed and not skipped, repair residual tardiness,
   run dynamic-reconfiguration generation, synthesize the programming
   interface and assemble the result. *)
let run_flow ~opts ~t0 ~w0 (spec : Spec.t) lib (clustering : Clustering.t) arch ~skip =
  ignore lib;
  let ctx = make_ctx opts in
  let traj = opts.portfolio in
  (* Incumbent-bound check: abort iff (floor, index) strictly loses to
     the incumbent (cost, index) lexicographically — the final result's
     cost is >= floor, so it would lose too, whatever the interleaving.
     The floor thunk only runs when a bound is armed. *)
  let check_bound floor_of =
    match traj with
    | Some { t_bound = Some b; t_index; _ } -> (
        match Atomic.get b.b_best with
        | Some (bc, bi) ->
            let floor = floor_of () in
            if floor > bc || (floor = bc && t_index > bi) then
              raise
                (Trajectory_abort
                   (Bound_abort
                      { floor; incumbent_cost = bc; incumbent_index = bi }))
        | None -> ())
    | Some { t_bound = None; _ } | None -> ()
  in
  (* Admissible floor while repair (and, with reconfiguration on, the
     merge phase) is still ahead.  [rip_budget] is how many rip-up
     attempts remain: 20 during allocation, fewer once repair runs. *)
  let pre_merge_floor ?rip_budget () =
    if opts.dynamic_reconfiguration then
      floor_nonprog arch -. repair_headroom ?rip_budget ~all:false arch
    else floor_all arch -. repair_headroom ?rip_budget ~all:true arch
  in
  let total = Array.length clustering.Clustering.clusters in
  let allocated = Array.make total false in
  let remaining = ref 0 in
  Array.iter
    (fun (c : Clustering.cluster) ->
      if skip c || Arch.site_of_cluster arch c.cid <> None then
        allocated.(c.cid) <- true
      else incr remaining)
    clustering.Clustering.clusters;
  (* Portfolio perturbation: cluster pop-order jitter.  A fixed additive
     offset per cluster, drawn once in cid order with an amplitude set
     by the spread of the initial priority levels, nudges the
     greedy pop order without drowning the levels themselves. *)
  let pop_jitter =
    match ctx.perturb with
    | Some rng when total > 1 ->
        let levels = Schedule.priorities spec clustering arch in
        let lo = ref max_int and hi = ref min_int in
        Array.iter
          (fun (c : Clustering.cluster) ->
            let l = Clustering.cluster_priority clustering levels c.cid in
            if l < !lo then lo := l;
            if l > !hi then hi := l)
          clustering.Clustering.clusters;
        let amp = max 1 ((!hi - !lo) / 6) in
        Some (Array.init total (fun _ -> Rng.int rng (amp + 1)))
    | Some _ | None -> None
  in
  let rec allocate_all remaining =
    if remaining = 0 then Ok ()
    else begin
      let levels = Schedule.priorities spec clustering arch in
      let next = ref (-1) and next_level = ref min_int in
      Array.iter
        (fun (c : Clustering.cluster) ->
          if not allocated.(c.cid) then begin
            let level =
              Clustering.cluster_priority clustering levels c.cid
              + (match pop_jitter with Some j -> j.(c.cid) | None -> 0)
            in
            if !next < 0 || level > !next_level then begin
              next := c.cid;
              next_level := level
            end
          end)
        clustering.Clustering.clusters;
      let cluster = clustering.Clustering.clusters.(!next) in
      match
        Trace.span ctx.trace
          ~args:
            [
              ("cluster", Trace.Num cluster.Clustering.cid);
              ("graph", Trace.Num cluster.Clustering.graph);
            ]
          "alloc.cluster"
          (fun () -> allocate_cluster ~opts ~ctx spec clustering arch cluster)
      with
      | Error _ as e -> e
      | Ok () ->
          (* Refresh the incremental engine's recording on the committed
             architecture: the next cluster's trials then diff against a
             basis that differs only by their own placement, maximizing
             the replayable prefix.  One record-only run per cluster
             against dozens of trials served by replay. *)
          if opts.incremental then
            Memo.refresh ctx.memo ~copy_cap:opts.copy_cap spec clustering arch;
          allocated.(cluster.cid) <- true;
          ctx.check_budget ();
          (* During allocation, repair (<= 20 vacating rip-ups) and the
             merge phase are still ahead: discount accordingly. *)
          check_bound (fun () -> pre_merge_floor ());
          allocate_all (remaining - 1)
    end
  in
  (* Repair: when the constructive pass ends tardy (a fallback commit
     cascaded), rip up the cluster carrying the worst tardiness and
     re-allocate it against the now-complete architecture; the evaluation
     loop will find it a feasible (possibly fresh) site. *)
  let repair () =
    let blacklist = Hashtbl.create 8 in
    (* Tardy clusters, worst first, not yet tried. *)
    let tardy_clusters sched =
      let tally = Hashtbl.create 8 in
      let note cid late =
        if not (Hashtbl.mem blacklist cid) then begin
          let cur = Option.value ~default:0 (Hashtbl.find_opt tally cid) in
          Hashtbl.replace tally cid (max cur late)
        end
      in
      Array.iter
        (fun (inst : Schedule.instance) ->
          let late = inst.Schedule.finish - inst.Schedule.abs_deadline in
          if late > 0 then begin
            let cid = clustering.Clustering.of_task.(inst.Schedule.i_task) in
            note cid late;
            (* The blockers sharing the tardy cluster's PE are candidates
               too: moving one of them can free the needed slot. *)
            match Arch.site_of_cluster arch cid with
            | None -> ()
            | Some site ->
                let pe = Vec.get arch.Arch.pes site.Arch.s_pe in
                Vec.iter
                  (fun (m : Arch.mode) ->
                    List.iter (fun other -> if other <> cid then note other (late / 2))
                      m.Arch.m_clusters)
                  pe.Arch.modes
          end)
        sched.Schedule.instances;
      Hashtbl.fold (fun cid late acc -> (late, cid) :: acc) tally []
      |> List.sort (fun a b -> compare (fst b) (fst a))
      |> List.map snd
    in
    (* Does [trial] strictly beat the current schedule?  Stage 1 first:
       acceptance needs strictly lower tardiness, so a bound already at
       or above the incumbent tardiness — or a disconnection, which is
       exactly [run]'s failure — rejects without a full schedule. *)
    let improves (sched : Schedule.t) trial =
      let verdict =
        if not opts.prune then None
        else begin
          match Memo.estimate ctx.memo ~copy_cap:opts.copy_cap spec clustering trial with
          | Error _ -> Some false
          | Ok lb -> if lb >= sched.Schedule.total_tardiness then Some false else None
        end
      in
      match verdict with
      | Some v ->
          Memo.note_prune ctx.memo;
          v
      | None -> (
          match
            Memo.evaluate ctx.memo ~copy_cap:opts.copy_cap spec clustering trial
          with
          | Ok after -> after.Schedule.v_tardiness < sched.Schedule.total_tardiness
          | Error _ -> false)
    in
    let rec attempt k =
      if k > 0 then begin
        ctx.check_budget ();
        (* Each attempt is a full rip-up/re-allocate cycle; at most [k]
           remain, so the headroom discount shrinks as repair proceeds. *)
        check_bound (fun () -> pre_merge_floor ~rip_budget:k ());
        match Memo.run ctx.memo ~copy_cap:opts.copy_cap spec clustering arch with
        | Error _ -> ()
        | Ok sched ->
            if not sched.Schedule.deadlines_met then begin
              match tardy_clusters sched with
              | [] -> ()
              | cid :: _ ->
                  Hashtbl.replace blacklist cid ();
                  let cluster = clustering.Clustering.clusters.(cid) in
                  Trace.span ctx.trace
                    ~args:[ ("cluster", Trace.Num cid) ]
                    "repair.attempt"
                    (fun () ->
                      (* Rip-up and retry under the undo journal instead
                         of a deep safety copy. *)
                      let ck = Arch.checkpoint arch in
                      Arch.unplace_cluster arch clustering cluster;
                      match allocate_cluster ~opts ~ctx spec clustering arch cluster with
                      | Ok () ->
                          if improves sched arch then Arch.commit arch ck
                          else begin
                            Trace.Counter.incr ctx.rollback_counter;
                            Arch.rollback arch ck
                          end
                      | Error _ ->
                          Trace.Counter.incr ctx.rollback_counter;
                          Arch.rollback arch ck);
                  attempt (k - 1)
            end
      end
    in
    attempt 20
  in
  match Trace.span ctx.trace "allocation" (fun () -> allocate_all !remaining) with
  | Error msg -> Error msg
  | Ok () -> (
      sample_eval_counters ctx;
      Trace.span ctx.trace "repair" repair;
      sample_eval_counters ctx;
      ctx.check_budget ();
      (* Post-repair, a positive tardiness lower bound is terminal: the
         merge phase only accepts feasible trials and interface
         synthesis never flips a missed verdict, so the trajectory ends
         infeasible and loses to any feasible incumbent. *)
      (match traj with
      | Some { t_bound = Some b; _ } -> (
          match Atomic.get b.b_best with
          | Some (bc, bi) -> (
              match
                Memo.estimate ctx.memo ~copy_cap:opts.copy_cap spec clustering
                  arch
              with
              | Ok lb when lb > 0 ->
                  raise
                    (Trajectory_abort
                       (Bound_abort
                          {
                            floor = infinity;
                            incumbent_cost = bc;
                            incumbent_index = bi;
                          }))
              | Ok _ | Error _ -> ())
          | None -> ())
      | Some { t_bound = None; _ } | None -> ());
      check_bound (fun () ->
          if opts.dynamic_reconfiguration then
            floor_nonprog arch +. floor_min_ppe arch
          else floor_all arch);
      (* Dynamic-reconfiguration generation. *)
      let fit_scale =
        match traj with Some t -> t.t_fit_scale | None -> (1.0, 1.0)
      in
      let on_pass a =
        ctx.check_budget ();
        check_bound (fun () -> floor_nonprog a +. floor_min_ppe a)
      in
      let merged =
        if opts.dynamic_reconfiguration then begin
          let replays0 = Memo.replays ctx.memo
          and rebuilds0 = Memo.rebuilds ctx.memo in
          let outcome =
            Trace.span ctx.trace "merge" (fun () ->
                Merge.optimize ~copy_cap:opts.copy_cap
                  ~max_trials_per_pass:opts.merge_trials_per_pass
                  ~prune:opts.prune ~fit_scale ~on_pass ?trace:ctx.trace
                  ~memo:ctx.memo spec clustering arch)
          in
          ctx.merge_replays <- Memo.replays ctx.memo - replays0;
          ctx.merge_rebuilds <- Memo.rebuilds ctx.memo - rebuilds0;
          match outcome with
          | Ok (better, sched, stats) -> Ok (better, sched, Some stats)
          | Error msg -> Error msg
        end
        else begin
          match Memo.run ctx.memo ~copy_cap:opts.copy_cap spec clustering arch with
          | Ok sched -> Ok (arch, sched, None)
          | Error msg -> Error msg
        end
      in
      match merged with
      | Error msg -> Error msg
      | Ok (final_arch, sched, merge_stats) ->
          sample_eval_counters ctx;
          ctx.check_budget ();
          check_bound (fun () -> floor_all final_arch);
          (* Reconfiguration controller interface synthesis (Section 4.4):
             cheapest interface meeting the boot-time requirement without
             breaking deadlines. *)
          let sched = ref sched in
          let validate a =
            match Memo.run ctx.memo ~copy_cap:opts.copy_cap spec clustering a with
            | Ok s when s.Schedule.deadlines_met || not !sched.Schedule.deadlines_met ->
                sched := s;
                true
            | Ok _ | Error _ -> false
          in
          let chosen_interface =
            match
              Trace.span ctx.trace "interface" (fun () ->
                  Interface.synthesize final_arch spec ~validate)
            with
            | Ok option -> Some option
            | Error _ -> None
          in
          sample_eval_counters ctx;
          let cost = Arch.cost final_arch in
          Ok
            {
              spec;
              arch = final_arch;
              clustering;
              schedule = !sched;
              cost;
              n_pes = Arch.n_pes final_arch;
              n_links = Arch.n_links final_arch;
              n_modes = n_modes final_arch;
              deadlines_met = !sched.Schedule.deadlines_met;
              cpu_seconds = Sys.time () -. t0;
              wall_seconds = wall_now () -. w0;
              merge_stats;
              chosen_interface;
              eval_stats = eval_stats_of ctx;
            })

let synthesize ?(options = default_options) ?(include_graph = fun _ -> true)
    (spec : Spec.t) lib =
  let t0 = Sys.time () in
  let w0 = wall_now () in
  let opts = options in
  Trace.span opts.trace
    ~args:[ ("spec", Trace.Str spec.Spec.name) ]
    "synthesize"
    (fun () ->
      (* Pre-processing: every task must be mappable somewhere. *)
      let unmappable =
        Trace.span opts.trace "preprocess" (fun () ->
            Array.fold_left
              (fun acc (task : Crusade_taskgraph.Task.t) ->
                match acc with
                | Some _ -> acc
                | None ->
                    if Crusade_cluster.Clustering.task_mask lib task = 0 then
                      Some task.name
                    else None)
              None spec.Spec.tasks)
      in
      match unmappable with
      | Some name -> Error (Printf.sprintf "task %s can run on no PE type" name)
      | None ->
          (* Pre-processing: clustering (Fig. 5). *)
          let clustering =
            Trace.span opts.trace "clustering" (fun () ->
                if opts.use_clustering then
                  Clustering.run ~max_cluster_size:opts.max_cluster_size spec lib
                else Clustering.singletons spec lib)
          in
          run_flow ~opts ~t0 ~w0 spec lib clustering (Arch.create lib)
            ~skip:(fun (c : Clustering.cluster) -> not (include_graph c.graph)))

let continue_allocation ?(options = default_options) (base : result) =
  let t0 = Sys.time () in
  let w0 = wall_now () in
  Trace.span options.trace
    ~args:[ ("spec", Trace.Str base.spec.Spec.name) ]
    "synthesize.continue"
    (fun () ->
      let arch = Arch.copy base.arch in
      (* The interface chosen for the partial architecture is re-synthesized
         at the end of the extended flow. *)
      arch.Arch.interface_cost <- None;
      run_flow ~opts:options ~t0 ~w0 base.spec base.arch.Arch.lib base.clustering
        arch
        ~skip:(fun _ -> false))

(* ---------------- Anytime portfolio search ---------------- *)

module Portfolio = struct
  type stats = {
    launched : int;
    completed : int;
    failed : int;
    aborted : int;
    bound_aborts : int;
    budget_aborts : int;
    incumbent_updates : int;
  }

  type trajectory_report =
    | Completed of { t_cost : float; t_met : bool }
    | Failed of string
    | Aborted of abort_reason

  type 'a outcome = {
    best : 'a;
    best_index : int;
    best_cost : float;
    best_met : bool;
    baseline_cost : float option;
    trajectories : trajectory_report array;
    stats : stats;
  }

  let resolve_n ?pool n =
    if n > 0 then n
    else Pool.size (match pool with Some p -> p | None -> Pool.global ())

  (* Knob derivation for trajectory [index]: a short dedicated stream
     seeded from (seed, index) draws the option-level knobs in a fixed
     order, plus the seed of the flow-level jitter stream.  Trajectory 0
     is the unperturbed reference — no control block at all, so it is
     bit-identical to the plain flow and exempt from bound and budget
     aborts (it is the anytime fallback and the [baseline_cost]). *)
  let make_traj_options (base : options) ~seed ~index ~bound ~deadline
      ~basis =
    if index = 0 then base
    else begin
      let kr = Rng.create ((seed * 1_000_003) + (index * 7919)) in
      let flow_seed = Rng.int_in kr 1 max_int in
      let eval_window =
        let w = base.eval_window in
        max 4 (w + Rng.int_in kr (-(w / 3)) (w / 2))
      in
      let copy_cap =
        (* Upward only: the scheduler may exploit more copies; the audit
           never re-derives the cap, so any value is sound. *)
        if Rng.chance kr 0.25 then min 128 (base.copy_cap * 2)
        else base.copy_cap
      in
      let merge_trials_per_pass =
        if Rng.chance kr 0.25 then base.merge_trials_per_pass * 2
        else base.merge_trials_per_pass
      in
      let scales = [| 1.0; 0.95; 0.9; 0.8 |] in
      let t_fit_scale = (Rng.pick kr scales, Rng.pick kr scales) in
      {
        base with
        eval_window;
        copy_cap;
        merge_trials_per_pass;
        portfolio =
          Some
            {
              t_index = index;
              t_seed = flow_seed;
              t_bound = bound;
              t_deadline = deadline;
              t_fit_scale;
              t_basis = basis;
            };
      }
    end

  let trajectory_options (base : options) ~seed ~index =
    make_traj_options base ~seed ~index ~bound:None ~deadline:None ~basis:None

  let offer_incumbent bound ~cost ~index =
    match bound with
    | None -> ()
    | Some b ->
        let rec loop () =
          let cur = Atomic.get b.b_best in
          let better =
            match cur with
            | None -> true
            | Some (c, i) -> cost < c || (cost = c && index < i)
          in
          if better then
            if Atomic.compare_and_set b.b_best cur (Some (cost, index)) then
              Atomic.incr b.b_updates
            else loop ()
        in
        loop ()

  let annotate (es : eval_stats) (s : stats) =
    {
      es with
      traj_launched = s.launched;
      traj_completed = s.completed;
      traj_aborted = s.aborted;
      bound_aborts = s.bound_aborts;
      incumbent_updates = s.incumbent_updates;
    }

  let run ?pool ?budget_ms ?(seed = 0) ?(use_bound = true) ~n ~options ~flow
      ~cost ~met () =
    let pool = match pool with Some p -> p | None -> Pool.global () in
    let n = if n > 0 then n else Pool.size pool in
    if n = 1 && budget_ms = None then
      (* Pure passthrough: [--portfolio 1] is the plain flow, options
         untouched, bit for bit. *)
      match flow options with
      | Error _ as e -> e
      | Ok r ->
          let c = cost r and m = met r in
          Ok
            {
              best = r;
              best_index = 0;
              best_cost = c;
              best_met = m;
              baseline_cost = Some c;
              trajectories = [| Completed { t_cost = c; t_met = m } |];
              stats =
                {
                  launched = 1;
                  completed = 1;
                  failed = 0;
                  aborted = 0;
                  bound_aborts = 0;
                  budget_aborts = 0;
                  incumbent_updates = 0;
                };
            }
    else begin
      let jobs = min n (max 1 options.jobs) in
      let w0 = wall_now () in
      let deadline =
        Option.map (fun ms -> w0 +. (float_of_int ms /. 1000.0)) budget_ms
      in
      let bound =
        if use_bound then
          Some { b_best = Atomic.make None; b_updates = Atomic.make 0 }
        else None
      in
      (* One shared recording store for the perturbed trajectories: they
         run content-identical (or near-identical) clusterings over the
         same physical spec, so a basis recorded by one seeds the others
         through cross-clustering adoption.  Results are unaffected —
         adopted replays are bit-identical by construction and the
         copy-cap check excludes cap-perturbed trajectories — only
         wall-clock and the replay/adoption counters move. *)
      let basis = Some (Incremental.Store.create ()) in
      let run_traj k =
        let expired =
          k > 0
          &&
          match deadline with Some d -> wall_now () > d | None -> false
        in
        if expired then `Abort Budget_abort
        else begin
          let opts_k =
            make_traj_options options ~seed ~index:k
              ~bound:(if k = 0 then None else bound)
              ~deadline:(if k = 0 then None else deadline)
              ~basis
          in
          match flow opts_k with
          | Ok r ->
              let c = cost r and m = met r in
              (* Only completed feasible results arm the bound: an abort
                 decision can then never rest on a result that is not in
                 the final pool, which is what makes the winner
                 interleaving-independent. *)
              if m then offer_incumbent bound ~cost:c ~index:k;
              `Done (r, c, m)
          | Error e -> `Err e
          | exception Trajectory_abort reason -> `Abort reason
        end
      in
      let cells = Pool.map_n ~jobs pool run_traj n in
      let best = ref None in
      Array.iteri
        (fun k cell ->
          match cell with
          | `Done (r, c, m) ->
              let key = ((if m then 0 else 1), c, k) in
              (match !best with
              | Some (bkey, _) when bkey <= key -> ()
              | _ -> best := Some (key, (r, c, m, k)))
          | `Err _ | `Abort _ -> ())
        cells;
      let trajectories =
        Array.map
          (function
            | `Done (_, c, m) -> Completed { t_cost = c; t_met = m }
            | `Err e -> Failed e
            | `Abort reason -> Aborted reason)
          cells
      in
      let count p = Array.fold_left (fun a t -> if p t then a + 1 else a) 0 trajectories in
      let stats =
        {
          launched = n;
          completed = count (function Completed _ -> true | _ -> false);
          failed = count (function Failed _ -> true | _ -> false);
          aborted = count (function Aborted _ -> true | _ -> false);
          bound_aborts =
            count (function Aborted (Bound_abort _) -> true | _ -> false);
          budget_aborts =
            count (function Aborted Budget_abort -> true | _ -> false);
          incumbent_updates =
            (match bound with Some b -> Atomic.get b.b_updates | None -> 0);
        }
      in
      let baseline_cost =
        match trajectories.(0) with
        | Completed { t_cost; _ } -> Some t_cost
        | Failed _ | Aborted _ -> None
      in
      match !best with
      | Some (_, (r, c, m, k)) ->
          Ok
            {
              best = r;
              best_index = k;
              best_cost = c;
              best_met = m;
              baseline_cost;
              trajectories;
              stats;
            }
      | None -> (
          match cells.(0) with
          | `Err e -> Error e
          | `Done _ | `Abort _ -> Error "portfolio: no trajectory completed")
    end
end

module Audit = Crusade_alloc.Audit
module Validate = Crusade_sched.Validate
module Compat = Crusade_reconfig.Compat

(* The merge phase co-locates graphs using the schedule-*discovered*
   compatibility (Fig. 3), which is strictly more permissive than the
   design-time [Spec.static_compatible]; auditing a scheduled result must
   therefore judge mode sharing against the same discovered matrix, or
   legal merges would be flagged.  The matrix itself is conservative too
   (it compares whole-graph activity windows, while mode exclusivity only
   needs the two graphs' executions on the *shared device* to be
   disjoint), so it is further refined by the actual per-device
   occupancy: a sharing is accepted when every device the two graphs
   time-share serializes them.  Genuine temporal overlap on a device is
   still caught — both here and by [Validate]'s mode-exclusivity rule. *)
let discovered_compat (r : result) =
  let m = Compat.matrix r.spec r.schedule in
  let occ : (int * int * int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let modes_of : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (inst : Schedule.instance) ->
      if inst.Schedule.finish > inst.Schedule.start then
        match Arch.task_site r.arch r.clustering inst.Schedule.i_task with
        | None -> ()
        | Some site ->
            let g = (Spec.task r.spec inst.Schedule.i_task).Crusade_taskgraph.Task.graph in
            let key = (site.Arch.s_pe, g, site.Arch.s_mode) in
            let ivls = Option.value ~default:[] (Hashtbl.find_opt occ key) in
            Hashtbl.replace occ key
              ((inst.Schedule.start, inst.Schedule.finish) :: ivls);
            let mkey = (site.Arch.s_pe, g) in
            let ms = Option.value ~default:[] (Hashtbl.find_opt modes_of mkey) in
            if not (List.mem site.Arch.s_mode ms) then
              Hashtbl.replace modes_of mkey (site.Arch.s_mode :: ms))
    r.schedule.Schedule.instances;
  let intervals pid g mode =
    Option.value ~default:[] (Hashtbl.find_opt occ (pid, g, mode))
  in
  let overlapping xs ys =
    List.exists
      (fun (s, f) -> List.exists (fun (s', f') -> s < f' && s' < f) ys)
      xs
  in
  (* Only executions in *distinct* modes of the shared device must be
     disjoint — two graphs resident in one mode share a single image and
     may legally overlap there (exactly [Validate]'s mode-exclusivity
     semantics). *)
  let device_serialized a b =
    let ok = ref true in
    Vec.iter
      (fun (pe : Arch.pe_inst) ->
        let pid = pe.Arch.p_id in
        match (Hashtbl.find_opt modes_of (pid, a), Hashtbl.find_opt modes_of (pid, b)) with
        | Some ma, Some mb ->
            List.iter
              (fun x ->
                List.iter
                  (fun y ->
                    if
                      x <> y
                      && overlapping (intervals pid a x) (intervals pid b y)
                    then ok := false)
                  mb)
              ma
        | (Some _ | None), (Some _ | None) -> ())
      r.arch.Arch.pes;
    !ok
  in
  (* A graph split across several modes of one device (the merge phase
     produces these: two devices hosting the same graph merge) is sound
     only if the schedule never runs the graph in two of those modes at
     once — the device reconfigures between them mid-iteration. *)
  let self_serialized g =
    let ok = ref true in
    Vec.iter
      (fun (pe : Arch.pe_inst) ->
        let pid = pe.Arch.p_id in
        match Hashtbl.find_opt modes_of (pid, g) with
        | Some (_ :: _ :: _ as ms) ->
            let rec pairs = function
              | [] -> ()
              | m1 :: rest ->
                  List.iter
                    (fun m2 ->
                      if overlapping (intervals pid g m1) (intervals pid g m2)
                      then ok := false)
                    rest;
                  pairs rest
            in
            pairs ms
        | Some _ | None -> ())
      r.arch.Arch.pes;
    !ok
  in
  fun a b ->
    if a = b then self_serialized a else m.(a).(b) || device_serialized a b

let audit ?(include_graph = fun _ -> true) (r : result) =
  let compat = discovered_compat r in
  let reported =
    {
      Audit.r_cost = r.cost;
      r_n_pes = r.n_pes;
      r_n_links = r.n_links;
      r_n_modes = r.n_modes;
    }
  in
  let arch_violations = Audit.check ~compat r.spec r.clustering r.arch reported in
  let coverage =
    Array.to_list r.clustering.Clustering.clusters
    |> List.filter_map (fun (c : Clustering.cluster) ->
           if
             include_graph c.Clustering.graph
             && Arch.site_of_cluster r.arch c.Clustering.cid = None
           then
             Some
               {
                 Audit.rule = "coverage";
                 detail =
                   Printf.sprintf "cluster %d (graph %d) is not placed"
                     c.Clustering.cid c.Clustering.graph;
               }
           else None)
  in
  let verdict =
    if r.deadlines_met <> r.schedule.Schedule.deadlines_met then
      [
        {
          Audit.rule = "verdict-consistency";
          detail =
            Printf.sprintf "result says deadlines %s, schedule says %s"
              (if r.deadlines_met then "met" else "missed")
              (if r.schedule.Schedule.deadlines_met then "met" else "missed");
        };
      ]
    else []
  in
  let schedule_violations =
    Validate.check r.spec r.clustering r.arch r.schedule
    |> List.map (fun (v : Validate.violation) ->
           { Audit.rule = v.Validate.rule; detail = v.Validate.detail })
  in
  coverage @ verdict @ arch_violations @ schedule_violations

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "specification: %s (%d tasks, %d graphs)@," r.spec.Spec.name
    (Spec.n_tasks r.spec) (Spec.n_graphs r.spec);
  Format.fprintf fmt "architecture : %d PEs, %d links, %d configuration images@,"
    r.n_pes r.n_links r.n_modes;
  Format.fprintf fmt "cost         : $%s@,"
    (Crusade_util.Text_table.fmt_dollars r.cost);
  Format.fprintf fmt "deadlines    : %s (tardiness %d us)@,"
    (if r.deadlines_met then "met" else "MISSED")
    r.schedule.Schedule.total_tardiness;
  (match r.merge_stats with
  | Some s ->
      Format.fprintf fmt "merging      : %d device merges (%d tried), %d mode combines@,"
        s.Merge.merges_accepted s.Merge.merges_tried s.Merge.modes_combined
  | None -> ());
  (match r.chosen_interface with
  | Some option ->
      Format.fprintf fmt "programming  : %s@," (Interface.describe option)
  | None -> ());
  Format.fprintf fmt "cpu time     : %.2f s (wall %.2f s)@," r.cpu_seconds
    r.wall_seconds;
  let pes = ref [] in
  Vec.iter
    (fun (pe : Arch.pe_inst) ->
      let images = Arch.n_images pe in
      if Arch.pe_in_use pe then
        pes := (pe.Arch.ptype.Pe.name, images) :: !pes)
    r.arch.Arch.pes;
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (name, images) ->
      let count, total_images =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tally name)
      in
      Hashtbl.replace tally name (count + 1, total_images + images))
    !pes;
  Format.fprintf fmt "PEs          :";
  Hashtbl.iter
    (fun name (count, images) ->
      Format.fprintf fmt " %dx%s%s" count name
        (if images > count then Printf.sprintf "(%d images)" images else ""))
    tally;
  Format.fprintf fmt "@]"

(* ---------------- Deterministic result JSON ----------------

   The machine-readable counterpart of [pp_report], built for the job
   server's content-addressed result cache: two syntheses of the same
   (spec, options) must produce byte-identical JSON, so every field is a
   deterministic function of the synthesis result — no wall/cpu times,
   no interleaving-dependent evaluator counters, and the PE tally is
   emitted in sorted order. *)

let schedule_fingerprint (s : Schedule.t) =
  Array.fold_left
    (fun h (i : Schedule.instance) ->
      Hashtbl.hash
        (h, i.Schedule.i_task, i.Schedule.i_copy, i.Schedule.start, i.Schedule.finish))
    0 s.Schedule.instances

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let result_json (r : result) =
  let pes = Hashtbl.create 8 in
  Vec.iter
    (fun (pe : Arch.pe_inst) ->
      if Arch.pe_in_use pe then begin
        let name = pe.Arch.ptype.Pe.name in
        let count, images =
          Option.value ~default:(0, 0) (Hashtbl.find_opt pes name)
        in
        Hashtbl.replace pes name (count + 1, images + Arch.n_images pe)
      end)
    r.arch.Arch.pes;
  let pe_rows =
    Hashtbl.fold (fun name (count, images) acc -> (name, count, images) :: acc) pes []
    |> List.sort compare
    |> List.map (fun (name, count, images) ->
           Printf.sprintf "{\"type\":\"%s\",\"count\":%d,\"images\":%d}"
             (json_escape name) count images)
  in
  Printf.sprintf
    "{\"schema\":\"crusade-result-1\",\"spec\":\"%s\",\"n_tasks\":%d,\
     \"n_graphs\":%d,\"cost\":%.17g,\"n_pes\":%d,\"n_links\":%d,\
     \"n_modes\":%d,\"deadlines_met\":%b,\"total_tardiness\":%d,\
     \"schedule_fingerprint\":\"%08x\",\"pes\":[%s]}"
    (json_escape r.spec.Spec.name)
    (Spec.n_tasks r.spec) (Spec.n_graphs r.spec) r.cost r.n_pes r.n_links
    r.n_modes r.deadlines_met r.schedule.Schedule.total_tardiness
    (schedule_fingerprint r.schedule land 0xFFFFFFFF)
    (String.concat "," pe_rows)

(* ---------------- Warm re-synthesis under change ----------------

   Repair a deployed architecture after a change event instead of
   synthesizing from scratch: compute the invalidation closure of the
   change (the clusters it rips up), seed the incremental engine's
   recording store from the post-change architecture so untouched
   schedule prefixes replay verbatim, and re-run the flow over only the
   cut tail — placed clusters are treated as already allocated by
   [run_flow], so allocation touches exactly the ripped/arriving set. *)

module Resynth = struct
  module Task = Crusade_taskgraph.Task
  module Graph = Crusade_taskgraph.Graph

  let pp_result = pp_report

  type change =
    | Graph_arrival of int list
    | Graph_departure of int list
    | Pe_failure of int
    | Exec_drift of int
    | Upgrade of int list

  type attempt_outcome = Met | Tardy of int | Failed of string

  type verdict =
    | Images_only of { result : result; added_images : int }
    | Needs_hardware of {
        result : result;
        added_pes : int;
        added_cost : float;
      }
    | Infeasible

  type report = {
    deployed : result;
    change : change;
    verdict : verdict;
    reprogram_attempt : attempt_outcome;
    hardware_attempt : attempt_outcome option;
    ripped_clusters : int list;
    added_pes : int;
    removed_pes : int;
    cost_delta : float option;
    resynth_seconds : float;
  }

  let describe_change = function
    | Graph_arrival gs ->
        Printf.sprintf "graph arrival [%s]"
          (String.concat "," (List.map string_of_int gs))
    | Graph_departure gs ->
        Printf.sprintf "graph departure [%s]"
          (String.concat "," (List.map string_of_int gs))
    | Pe_failure pid -> Printf.sprintf "PE %d failure" pid
    | Exec_drift pct -> Printf.sprintf "execution-time drift %+d%%" pct
    | Upgrade gs ->
        Printf.sprintf "field upgrade [%s]"
          (String.concat "," (List.map string_of_int gs))

  let final_result rep =
    match rep.verdict with
    | Images_only { result; _ } | Needs_hardware { result; _ } -> Some result
    | Infeasible -> None

  (* Carry a replay-basis store through the options without perturbing
     anything else: a [t_index = 0] trajectory with no bound, no
     deadline and neutral fit scales runs bit-identically to the plain
     flow — its only effect is that [make_ctx] hands the store to the
     incremental engine. *)
  let with_basis_store (opts : options) store =
    let traj =
      match opts.portfolio with
      | Some t -> { t with t_basis = Some store }
      | None ->
          {
            t_index = 0;
            t_seed = 0;
            t_bound = None;
            t_deadline = None;
            t_fit_scale = (1.0, 1.0);
            t_basis = Some store;
          }
    in
    { opts with portfolio = Some traj }

  (* Rebuild the specification with every feasible execution time scaled
     by [pct] percent.  Ids, edges, compatibility vectors and the
     boot-time requirement are preserved verbatim, so the deployed
     clustering (pure task/cluster ids; its feasibility masks do not
     depend on execution magnitudes) and placements stay valid. *)
  let drift_spec (spec : Spec.t) pct =
    if pct <= -100 then
      Error (Printf.sprintf "drift of %d%% leaves no execution time" pct)
    else
    let scale e = if e <= 0 then e else max 1 (e * (100 + pct) / 100) in
    let scale_task (t : Task.t) =
      { t with Task.exec = Array.map scale t.Task.exec }
    in
    let graphs =
      Array.to_list spec.Spec.graphs
      |> List.map (fun (g : Graph.t) ->
             { g with Graph.tasks = Array.map scale_task g.Graph.tasks })
    in
    Spec.build ~name:spec.Spec.name
      ~boot_time_requirement:spec.Spec.boot_time_requirement graphs

  (* In-use PE delta by instance id: the repaired architecture is always
     grown from a copy of the deployed one, so instance ids align and
     the diff is exact (a replacement part counts once on each side). *)
  let pe_diff (deployed : result) (final : result) =
    let used (a : Arch.t) pid =
      pid < Vec.length a.Arch.pes
      &&
      let pe = Vec.get a.Arch.pes pid in
      (not pe.Arch.p_failed) && Arch.pe_in_use pe
    in
    let n =
      max (Vec.length deployed.arch.Arch.pes) (Vec.length final.arch.Arch.pes)
    in
    let added = ref 0 and removed = ref 0 in
    for pid = 0 to n - 1 do
      let before = used deployed.arch pid and after = used final.arch pid in
      if after && not before then incr added;
      if before && not after then incr removed
    done;
    (!added, !removed)

  (* Which graphs the repaired result must cover: what was deployed,
     plus arrivals, minus departures.  Drives the coverage rule of
     {!audit} — a graph that was never synthesized (e.g. the upgrade
     graphs of the deployed base) must not be flagged as unplaced. *)
  let expected_graphs (deployed : result) change =
    let n = Spec.n_graphs deployed.spec in
    let placed = Array.make n true in
    Array.iter
      (fun (c : Clustering.cluster) ->
        if Arch.site_of_cluster deployed.arch c.Clustering.cid = None then
          placed.(c.Clustering.graph) <- false)
      deployed.clustering.Clustering.clusters;
    match change with
    | Graph_arrival gs | Upgrade gs ->
        fun g -> (g >= 0 && g < n && placed.(g)) || List.mem g gs
    | Graph_departure gs ->
        fun g -> g >= 0 && g < n && placed.(g) && not (List.mem g gs)
    | Pe_failure _ | Exec_drift _ -> fun g -> g >= 0 && g < n && placed.(g)

  let audit_report rep =
    match final_result rep with
    | None -> []
    | Some r -> audit ~include_graph:(expected_graphs rep.deployed rep.change) r

  let validate_change (deployed : result) change =
    let n_graphs = Spec.n_graphs deployed.spec in
    let check_graphs what gs =
      match List.find_opt (fun g -> g < 0 || g >= n_graphs) gs with
      | Some g -> Error (Printf.sprintf "%s: unknown graph %d" what g)
      | None -> if gs = [] then Error (what ^ ": no graphs given") else Ok ()
    in
    match change with
    | Graph_arrival gs -> check_graphs "graph arrival" gs
    | Upgrade gs -> check_graphs "upgrade" gs
    | Graph_departure gs -> check_graphs "graph departure" gs
    | Pe_failure pid ->
        if pid < 0 || pid >= Vec.length deployed.arch.Arch.pes then
          Error (Printf.sprintf "PE failure: unknown PE %d" pid)
        else Ok ()
    | Exec_drift pct ->
        if pct <= -100 then
          Error (Printf.sprintf "drift of %d%% leaves no execution time" pct)
        else Ok ()

  let apply ?(options = default_options) (deployed : result) change =
    let w0 = wall_now () in
    let t0 = Sys.time () in
    match validate_change deployed change with
    | Error _ as e -> e
    | Ok () -> (
        let clustering = deployed.clustering in
        let placed0 cid = Arch.site_of_cluster deployed.arch cid <> None in
        let clusters_of gs =
          Array.fold_left
            (fun acc (c : Clustering.cluster) ->
              if List.mem c.Clustering.graph gs && placed0 c.Clustering.cid
              then c.Clustering.cid :: acc
              else acc)
            [] clustering.Clustering.clusters
          |> List.rev
        in
        (* The invalidation closure: [spec'] (rebuilt only under drift),
           the skip predicate for [run_flow], a thunk producing the
           post-change architecture (each attempt mutates its own copy),
           and the clusters the change rips out of their sites. *)
        let prepared =
          match change with
          | Graph_arrival gs | Upgrade gs ->
              let arriving (c : Clustering.cluster) =
                List.mem c.Clustering.graph gs
              in
              Ok
                ( deployed.spec,
                  (fun (c : Clustering.cluster) ->
                    not (placed0 c.Clustering.cid || arriving c)),
                  (fun () -> Arch.copy deployed.arch),
                  [] )
          | Graph_departure gs ->
              let departing (c : Clustering.cluster) =
                List.mem c.Clustering.graph gs
              in
              Ok
                ( deployed.spec,
                  (fun (c : Clustering.cluster) ->
                    departing c || not (placed0 c.Clustering.cid)),
                  (fun () ->
                    let a = Arch.copy deployed.arch in
                    Array.iter
                      (fun (c : Clustering.cluster) ->
                        if departing c then Arch.unplace_cluster a clustering c)
                      clustering.Clustering.clusters;
                    Arch.detach_unused a;
                    a),
                  clusters_of gs )
          | Pe_failure pid ->
              let victims =
                Array.fold_left
                  (fun acc (c : Clustering.cluster) ->
                    match Arch.site_of_cluster deployed.arch c.Clustering.cid with
                    | Some site when site.Arch.s_pe = pid ->
                        c.Clustering.cid :: acc
                    | Some _ | None -> acc)
                  [] clustering.Clustering.clusters
                |> List.rev
              in
              Ok
                ( deployed.spec,
                  (fun (c : Clustering.cluster) -> not (placed0 c.Clustering.cid)),
                  (fun () ->
                    let a = Arch.copy deployed.arch in
                    Arch.fail_pe a (Vec.get a.Arch.pes pid);
                    List.iter
                      (fun cid ->
                        Arch.unplace_cluster a clustering
                          clustering.Clustering.clusters.(cid))
                      victims;
                    Arch.detach_unused a;
                    a),
                  victims )
          | Exec_drift pct -> (
              match drift_spec deployed.spec pct with
              | Error msg -> Error ("drift: " ^ msg)
              | Ok spec' ->
                  Ok
                    ( spec',
                      (fun (c : Clustering.cluster) ->
                        not (placed0 c.Clustering.cid)),
                      (fun () -> Arch.copy deployed.arch),
                      [] ))
        in
        match prepared with
        | Error _ as e -> e
        | Ok (spec', skip, mk_arch, ripped) ->
            (* Warm start: record one schedule of the post-change
               architecture into a shared store; both attempts' engines
               then replay every schedule prefix the change provably
               left untouched.  (Under drift the recording is taken
               against the rebuilt spec — every execution time changed,
               so the deployed recording itself is useless, but the
               still-placed architecture is rescheduled once and that
               recording serves the repair trials.) *)
            let store = Incremental.Store.create () in
            if options.incremental then begin
              let eng = Incremental.create ~store () in
              Incremental.refresh eng ~copy_cap:options.copy_cap spec'
                clustering (mk_arch ())
            end;
            let attempt ~allow_new_pes =
              let opts = { options with allow_new_pes } in
              let opts =
                if opts.incremental then with_basis_store opts store else opts
              in
              let arch0 = mk_arch () in
              arch0.Arch.interface_cost <- None;
              Trace.span options.trace
                ~args:[ ("new_pes", Trace.Str (string_of_bool allow_new_pes)) ]
                "resynth.attempt"
                (fun () ->
                  run_flow ~opts ~t0 ~w0 spec' deployed.arch.Arch.lib
                    clustering arch0 ~skip)
            in
            let outcome = function
              | Ok (r : result) ->
                  if r.deadlines_met then (Met, Some r)
                  else (Tardy r.schedule.Schedule.total_tardiness, Some r)
              | Error msg -> (Failed msg, None)
            in
            let reprogram_attempt, rep_res =
              outcome (attempt ~allow_new_pes:false)
            in
            let verdict, hardware_attempt =
              match (reprogram_attempt, rep_res) with
              | Met, Some r ->
                  (* The reprogramming attempt forbids buying PE types,
                     but the architecture may carry instances a past
                     rip-up vacated — they cost nothing and are not on
                     the shipped board, so re-placing onto one is new
                     hardware no matter which attempt did it.  Classify
                     by the physical PE diff, not by the attempt. *)
                  let added, _ = pe_diff deployed r in
                  if added = 0 then
                    ( Images_only
                        {
                          result = r;
                          added_images = r.n_modes - deployed.n_modes;
                        },
                      None )
                  else
                    ( Needs_hardware
                        {
                          result = r;
                          added_pes = added;
                          added_cost = r.cost -. deployed.cost;
                        },
                      None )
              | _ ->
                  if not options.allow_new_pes then (Infeasible, None)
                  else begin
                    match outcome (attempt ~allow_new_pes:true) with
                    | Met, Some r ->
                        let added, _ = pe_diff deployed r in
                        ( Needs_hardware
                            {
                              result = r;
                              added_pes = added;
                              added_cost = r.cost -. deployed.cost;
                            },
                          Some Met )
                    | out, _ -> (Infeasible, Some out)
                  end
            in
            let final =
              match verdict with
              | Images_only { result; _ } | Needs_hardware { result; _ } ->
                  Some result
              | Infeasible -> None
            in
            let added_pes, removed_pes =
              match final with Some r -> pe_diff deployed r | None -> (0, 0)
            in
            Ok
              {
                deployed;
                change;
                verdict;
                reprogram_attempt;
                hardware_attempt;
                ripped_clusters = ripped;
                added_pes;
                removed_pes;
                cost_delta =
                  Option.map (fun (r : result) -> r.cost -. deployed.cost) final;
                resynth_seconds = wall_now () -. w0;
              })

  let pp_outcome fmt = function
    | Met -> Format.fprintf fmt "deadlines met"
    | Tardy t -> Format.fprintf fmt "deadlines missed by %d us" t
    | Failed msg -> Format.fprintf fmt "failed (%s)" msg

  let pp_report fmt rep =
    Format.fprintf fmt "@[<v>";
    Format.fprintf fmt "change       : %s@," (describe_change rep.change);
    Format.fprintf fmt "ripped       : %d cluster(s)@,"
      (List.length rep.ripped_clusters);
    Format.fprintf fmt "reprogramming: %a@," pp_outcome rep.reprogram_attempt;
    (match rep.hardware_attempt with
    | Some out -> Format.fprintf fmt "new hardware : %a@," pp_outcome out
    | None -> ());
    (match rep.verdict with
    | Images_only { added_images; _ } ->
        Format.fprintf fmt "verdict      : images only (%+d image(s))@,"
          added_images
    | Needs_hardware { added_pes; added_cost; _ } ->
        Format.fprintf fmt "verdict      : needs hardware (%d PE(s), $%s)@,"
          added_pes
          (Crusade_util.Text_table.fmt_dollars added_cost)
    | Infeasible -> Format.fprintf fmt "verdict      : INFEASIBLE@,");
    (match rep.cost_delta with
    | Some d ->
        Format.fprintf fmt "cost delta   : %s$%s (+%d/-%d PEs)@,"
          (if d < 0.0 then "-" else "+")
          (Crusade_util.Text_table.fmt_dollars (Float.abs d))
          rep.added_pes rep.removed_pes
    | None -> ());
    Format.fprintf fmt "latency      : %.2f s@," rep.resynth_seconds;
    (match final_result rep with
    | Some r -> Format.fprintf fmt "%a" pp_result r
    | None -> ());
    Format.fprintf fmt "@]"
end
