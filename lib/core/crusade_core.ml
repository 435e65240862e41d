module Spec = Crusade_taskgraph.Spec
module Pe = Crusade_resource.Pe
module Library = Crusade_resource.Library
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Schedule = Crusade_sched.Schedule
module Incremental = Crusade_sched.Incremental
module Merge = Crusade_reconfig.Merge
module Interface = Crusade_reconfig.Interface
module Vec = Crusade_util.Vec
module Pool = Crusade_util.Pool
module Rng = Crusade_util.Rng
module Trace = Crusade_util.Trace

(* ---------------- Portfolio trajectory control ----------------

   A portfolio run launches N perturbed copies of the synthesis flow.
   Each perturbed copy carries a [traj] control block in its options:
   the seed of its perturbation stream, its merge fit scales and its
   wall-clock deadline.  The
   flow raises [Budget_expired] from its commit points once the deadline
   has passed.  Trajectories share nothing but the domain pool. *)

exception Budget_expired

exception Cancelled

type traj = {
  t_seed : int;  (* perturbation stream seed *)
  t_deadline : float option;  (* absolute wall clock *)
  t_fit_scale : float * float;  (* merge PFU/pin cap scale, each <= 1.0 *)
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
  traj_launched : int;
  traj_completed : int;
  traj_aborted : int;
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
   run: the evaluator (its recordings retain whole specs and
   architectures, so it must not outlive the run), its counters (in a
   per-run metrics registry) and the trace sink.  Nothing here is
   process-global — back-to-back or concurrent syntheses report fully
   independent [eval_stats]. *)
type ctx = {
  eval : Incremental.t;
  rollback_counter : Trace.Counter.t;
  trace : Trace.t option;
  check_budget : unit -> unit;
      (* raises [Budget_expired] past the deadline; a no-op closure
         outside portfolio runs *)
  perturb : Rng.t option;
      (* the trajectory's perturbation stream; [None] for trajectory 0
         and plain runs, which therefore stay bit-identical *)
  mutable merge_replays : int;
  mutable merge_rebuilds : int;
      (* the merge phase's slice of the replay/rebuild counters, sampled
         around the [Merge.optimize] span in [run_flow] *)
}

let make_ctx ?basis (opts : options) =
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
          if Unix.gettimeofday () > d then raise Budget_expired
    | Some { t_deadline = None; _ } | None -> check_cancel
  in
  let perturb =
    match opts.portfolio with
    | Some t -> Some (Rng.create t.t_seed)
    | None -> None
  in
  {
    eval =
      Incremental.create ~reference:(not opts.incremental) ?basis
        ?trace:opts.trace ~metrics ();
    rollback_counter = Trace.Metrics.counter metrics "eval.rollbacks";
    trace = opts.trace;
    check_budget;
    perturb;
    merge_replays = 0;
    merge_rebuilds = 0;
  }

let eval_stats_of ctx =
  {
    pruned = Incremental.prunes ctx.eval;
    memo_hits = 0;
    memo_misses = 0;
    memo_bypassed = 0;
    rollbacks = Trace.Counter.get ctx.rollback_counter;
    replays = Incremental.replays ctx.eval;
    rebuilds = Incremental.rebuilds ctx.eval;
    merge_replays = ctx.merge_replays;
    merge_rebuilds = ctx.merge_rebuilds;
    traj_launched = 0;
    traj_completed = 0;
    traj_aborted = 0;
  }

(* One counter sample per phase boundary: the evaluator counters as a
   Chrome counter track, so the trace shows where the prunes and
   replays accumulate. *)
let sample_eval_counters ctx =
  Trace.counter ctx.trace "eval_stats"
    [
      ("pruned", Incremental.prunes ctx.eval);
      ("rollbacks", Trace.Counter.get ctx.rollback_counter);
      ("replays", Incremental.replays ctx.eval);
      ("rebuilds", Incremental.rebuilds ctx.eval);
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

   Once a fallback of score (T, c) exists, a candidate only matters if
   it beats that score, so its evaluation is bounded: the replay stops
   once the tardiness exceeds T - 1 (cost at least c) or T (cheaper),
   and the stopped verdict loses to the fallback exactly as the full one
   would.  T >= 1, so a feasible candidate is never stopped.

   Candidates are trialled directly on the base architecture under the
   undo journal (checkpoint, mutate, schedule, rollback), sparing a deep
   [Arch.copy] per candidate; a least-tardy fallback is re-applied to
   the pristine base, which reproduces the trialled architecture exactly
   because rollback restores the base bit for bit.

   The committed candidate's evaluation recorded the steps it scheduled,
   and the evaluator adopts that recording as the next cluster's basis:
   a commit costs a linear splice, not a scheduler run.  A fallback's
   recording is held beside its index and adopted after the re-apply,
   when the architecture is again the one it was evaluated on. *)
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
    (* The fallback holds the candidate *index* — re-applying it to the
       rolled-back base reproduces the winning architecture — and the
       tail its replay recorded, if any. *)
    let best_fallback = ref None in
    let adopt = Option.iter (Incremental.adopt ctx.eval) in
    (* Trials only need the verdict; [Incremental.evaluate] replays the
       basis prefix and reads no schedule.  The flow reads the finished
       architecture's schedule once, in [repair]. *)
    let schedule_trial trial =
      let limit =
        match !best_fallback with
        | None -> max_int
        | Some ((t, c), _, _) -> if Arch.cost trial >= c then t - 1 else t
      in
      Incremental.evaluate ctx.eval ~copy_cap:opts.copy_cap ~limit spec
        clustering trial
    in
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
                match schedule_trial arch with
                | Error _ ->
                    rollback arch ck;
                    incr tried
                | Ok v ->
                    if v.Schedule.v_met then begin
                      Arch.commit arch ck;
                      adopt (Incremental.take ctx.eval);
                      raise Commit
                    end
                    else begin
                      let score = (v.Schedule.v_tardiness, Arch.cost arch) in
                      (match !best_fallback with
                      | Some (best_score, _, _) when best_score <= score -> ()
                      | _ -> best_fallback := Some (score, !i, Incremental.take ctx.eval));
                      rollback arch ck;
                      incr tried
                    end));
        incr i
      done;
      (* Candidates exhausted or evaluation window closed (it only closes
         once a fallback exists): settle for the least-tardy option
         seen. *)
      match !best_fallback with
      | Some ((tardiness, _), idx, tail) ->
          Trace.instant ctx.trace
            ~args:
              [
                ("cluster", Trace.Num cluster.Clustering.cid);
                ("graph", Trace.Num cluster.Clustering.graph);
                ("tardiness", Trace.Num tardiness);
                ("evaluated", Trace.Num !tried);
              ]
            "alloc.fallback";
          Result.map (fun () -> adopt tail) (reapply idx)
      | None ->
          Error
            (Printf.sprintf "no applicable allocation for cluster %d"
               cluster.Clustering.cid)
    with
    | result -> result
    | exception Commit -> Ok ()
  end

(* The synthesis flow proper, shared by [synthesize] (fresh architecture)
   and [Resynth.apply] (repair a deployed one): allocate every cluster
   not yet placed and not skipped, repair residual tardiness, run
   dynamic-reconfiguration generation, synthesize the programming
   interface and assemble the result.  [basis], a recording of [arch]
   taken by the caller, seeds the run's evaluator. *)
let run_flow ~opts ~t0 ~w0 ?basis (spec : Spec.t) (clustering : Clustering.t)
    arch ~skip =
  let ctx = make_ctx ?basis opts in
  let copy_cap = opts.copy_cap in
  let evaluate ?limit a =
    Incremental.evaluate ctx.eval ~copy_cap ?limit spec clustering a
  and schedule a = Incremental.run ctx.eval ~copy_cap spec clustering a in
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
          allocated.(cluster.cid) <- true;
          ctx.check_budget ();
          allocate_all (remaining - 1)
    end
  in
  (* Repair: when the constructive pass ends tardy (a fallback commit
     cascaded), rip up the cluster carrying the worst tardiness and
     re-allocate it against the now-complete architecture; the evaluation
     loop will find it a feasible (possibly fresh) site.  Returns the
     repaired architecture's schedule, which the merge phase and
     interface synthesis start from. *)
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
    (* Does [trial] strictly beat the current schedule?  Its replay
       stops as soon as it reaches the current tardiness. *)
    let improves (sched : Schedule.t) trial =
      let current = sched.Schedule.total_tardiness in
      match evaluate ~limit:(current - 1) trial with
      | Ok after -> after.Schedule.v_tardiness < current
      | Error _ -> false
    in
    (* [current] is [arch]'s schedule when the previous attempt rolled
       back (the journal restored the architecture bit for bit), [None]
       at the start and after a commit changed it. *)
    let schedule_of = function Some sched -> Ok sched | None -> schedule arch in
    let rec attempt k current =
      if k = 0 then schedule_of current
      else begin
        ctx.check_budget ();
        match schedule_of current with
        | Error _ as e -> e
        | Ok sched when sched.Schedule.deadlines_met -> Ok sched
        | Ok sched -> (
            match tardy_clusters sched with
            | [] -> Ok sched
            | cid :: _ ->
                Hashtbl.replace blacklist cid ();
                let cluster = clustering.Clustering.clusters.(cid) in
                let committed =
                  Trace.span ctx.trace
                    ~args:[ ("cluster", Trace.Num cid) ]
                    "repair.attempt"
                    (fun () ->
                      (* Rip-up and retry under the undo journal instead
                         of a deep safety copy. *)
                      let ck = Arch.checkpoint arch in
                      Arch.unplace_cluster arch clustering cluster;
                      match allocate_cluster ~opts ~ctx spec clustering arch cluster with
                      | Ok () when improves sched arch ->
                          Arch.commit arch ck;
                          true
                      | Ok () | Error _ ->
                          Trace.Counter.incr ctx.rollback_counter;
                          Arch.rollback arch ck;
                          false)
                in
                attempt (k - 1) (if committed then None else Some sched))
      end
    in
    attempt 20 None
  in
  match Trace.span ctx.trace "allocation" (fun () -> allocate_all !remaining) with
  | Error msg -> Error msg
  | Ok () -> (
      sample_eval_counters ctx;
      let repaired = Trace.span ctx.trace "repair" repair in
      sample_eval_counters ctx;
      ctx.check_budget ();
      (* Dynamic-reconfiguration generation. *)
      let fit_scale =
        match opts.portfolio with Some t -> t.t_fit_scale | None -> (1.0, 1.0)
      in
      let merged =
        Result.map
          (fun schedule ->
            if opts.dynamic_reconfiguration then begin
              let replays0 = Incremental.replays ctx.eval
              and rebuilds0 = Incremental.rebuilds ctx.eval in
              let better, sched, stats =
                Trace.span ctx.trace "merge" (fun () ->
                    Merge.optimize ~copy_cap
                      ~max_trials_per_pass:opts.merge_trials_per_pass
                      ~fit_scale ~on_pass:ctx.check_budget
                      ?trace:ctx.trace ~eval:ctx.eval ~schedule spec clustering
                      arch)
              in
              ctx.merge_replays <- Incremental.replays ctx.eval - replays0;
              ctx.merge_rebuilds <- Incremental.rebuilds ctx.eval - rebuilds0;
              (better, sched, Some stats)
            end
            else (arch, schedule, None))
          repaired
      in
      match merged with
      | Error msg -> Error msg
      | Ok (final_arch, sched, merge_stats) ->
          sample_eval_counters ctx;
          ctx.check_budget ();
          (* Reconfiguration controller interface synthesis (Section 4.4):
             cheapest interface meeting the boot-time requirement without
             breaking deadlines.  Each option is judged by its verdict;
             only the accepted one is scheduled in full. *)
          let sched = ref sched in
          let validate a =
            match evaluate a with
            | Ok v when v.Schedule.v_met || not !sched.Schedule.deadlines_met -> (
                match schedule a with
                | Ok s ->
                    sched := s;
                    true
                | Error _ -> false)
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
          run_flow ~opts ~t0 ~w0 spec clustering (Arch.create lib)
            ~skip:(fun (c : Clustering.cluster) -> not (include_graph c.graph)))

(* ---------------- Anytime portfolio search ---------------- *)

module Portfolio = struct
  type stats = {
    launched : int;
    completed : int;
    failed : int;
    aborted : int;
  }

  type trajectory_report =
    | Completed of { t_cost : float; t_met : bool }
    | Failed of string
    | Aborted

  type 'a outcome = {
    best : 'a;
    best_index : int;
    best_cost : float;
    best_met : bool;
    baseline_cost : float option;
    trajectories : trajectory_report array;
    stats : stats;
  }

  let resolve_n n = if n > 0 then n else Pool.size (Pool.global ())

  (* Knob derivation for trajectory [index]: a short dedicated stream
     seeded from (seed, index) draws the option-level knobs in a fixed
     order, plus the seed of the flow-level jitter stream.  Trajectory 0
     is the unperturbed reference — no control block at all, so it is
     bit-identical to the plain flow and exempt from the budget (it is
     the anytime fallback and the [baseline_cost]). *)
  let make_traj_options (base : options) ~seed ~index ~deadline =
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
            { t_seed = flow_seed; t_deadline = deadline; t_fit_scale };
      }
    end

  let trajectory_options (base : options) ~seed ~index =
    make_traj_options base ~seed ~index ~deadline:None

  let annotate (es : eval_stats) (s : stats) =
    {
      es with
      traj_launched = s.launched;
      traj_completed = s.completed;
      traj_aborted = s.aborted;
    }

  let run ?budget_ms ?(seed = 0) ~n ~options ~flow ~cost ~met () =
    let n = resolve_n n in
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
                };
            }
    else begin
      let jobs = min n (max 1 options.jobs) in
      let w0 = wall_now () in
      let deadline =
        Option.map (fun ms -> w0 +. (float_of_int ms /. 1000.0)) budget_ms
      in
      (* Each trajectory is an independent flow with its own evaluator;
         only the budget can stop one early, so without a budget every
         trajectory's result and counters are a function of
         (seed, index) alone. *)
      let run_traj k =
        let expired =
          k > 0
          &&
          match deadline with Some d -> wall_now () > d | None -> false
        in
        if expired then `Abort
        else begin
          let opts_k =
            make_traj_options options ~seed ~index:k
              ~deadline:(if k = 0 then None else deadline)
          in
          match flow opts_k with
          | Ok r -> `Done (r, cost r, met r)
          | Error e -> `Err e
          | exception Budget_expired -> `Abort
        end
      in
      let cells = Pool.map_n ~jobs (Pool.global ()) run_traj n in
      let best = ref None in
      Array.iteri
        (fun k cell ->
          match cell with
          | `Done (r, c, m) ->
              let key = ((if m then 0 else 1), c, k) in
              (match !best with
              | Some (bkey, _) when bkey <= key -> ()
              | _ -> best := Some (key, (r, c, m, k)))
          | `Err _ | `Abort -> ())
        cells;
      let trajectories =
        Array.map
          (function
            | `Done (_, c, m) -> Completed { t_cost = c; t_met = m }
            | `Err e -> Failed e
            | `Abort -> Aborted)
          cells
      in
      let count p = Array.fold_left (fun a t -> if p t then a + 1 else a) 0 trajectories in
      let stats =
        {
          launched = n;
          completed = count (function Completed _ -> true | _ -> false);
          failed = count (function Failed _ -> true | _ -> false);
          aborted = count (function Aborted -> true | _ -> false);
        }
      in
      let baseline_cost =
        match trajectories.(0) with
        | Completed { t_cost; _ } -> Some t_cost
        | Failed _ | Aborted -> None
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
          | `Done _ | `Abort -> Error "portfolio: no trajectory completed")
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
   change (the clusters it rips up), seed the incremental engine with a
   recording of the post-change architecture so untouched schedule
   prefixes replay verbatim, and re-run the flow over only the cut
   tail — placed clusters are treated as already allocated by
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
               architecture; each attempt's evaluator starts from that
               recording and replays every schedule prefix the change
               provably left untouched.  (Under drift the recording is
               taken against the rebuilt spec — every execution time
               changed, so the deployed recording itself is useless, but
               the still-placed architecture is rescheduled once and
               that recording serves the repair trials.) *)
            let basis =
              if options.incremental then
                Result.to_option
                  (Schedule.Replay.record_only ~copy_cap:options.copy_cap
                     spec' clustering (mk_arch ()))
              else None
            in
            let attempt ~allow_new_pes =
              let opts = { options with allow_new_pes } in
              let arch0 = mk_arch () in
              arch0.Arch.interface_cost <- None;
              Trace.span options.trace
                ~args:[ ("new_pes", Trace.Str (string_of_bool allow_new_pes)) ]
                "resynth.attempt"
                (fun () ->
                  run_flow ~opts ~t0 ~w0 ?basis spec' clustering arch0 ~skip)
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
