(* The candidate evaluator: admissibility of [Schedule.estimate] (no
   longer called by the flow, kept for the benchmark's timing probe),
   the architecture undo journal, per-run evaluator counters, and
   end-to-end determinism of synthesis under the bounded incremental
   evaluator versus the reference evaluator. *)

module C = Crusade.Crusade_core
module Spec = Crusade_taskgraph.Spec
module Library = Crusade_resource.Library
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Export = Crusade_alloc.Export
module Schedule = Crusade_sched.Schedule
module Incremental = Crusade_sched.Incremental
module Vec = Crusade_util.Vec
module W = Crusade_workloads.Comm_system
module Examples = Crusade_workloads.Examples

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let tiny_params seed =
  {
    W.name = Printf.sprintf "eval%d" seed;
    n_tasks = 40;
    seed;
    hw_fraction = 0.5;
    family_slots = 3;
    asic_fraction = 0.1;
    cpld_fraction = 0.1;
  }

(* A random (possibly partial, usually tardy) placement: walk the
   clusters, apply a randomly chosen applicable allocation option for
   each — nothing here optimizes, so the architectures exercise the
   estimator far from the feasible region the synthesis flow converges
   to. *)
let random_placement rng spec clustering lib =
  let arch = Arch.create lib in
  Array.iter
    (fun (c : Clustering.cluster) ->
      let options =
        Options.enumerate arch spec clustering c ~allow_new_modes:true ()
      in
      let options = Array.of_list options in
      let n = Array.length options in
      if n > 0 then begin
        let start = Random.State.int rng n in
        let rec attempt k =
          if k < n then begin
            match
              Options.apply arch spec clustering c options.((start + k) mod n)
            with
            | Ok () -> ()
            | Error _ -> attempt (k + 1)
          end
        in
        attempt 0
      end)
    clustering.Clustering.clusters;
  arch

(* The estimator's contract: the bound never exceeds the scheduler's
   true total tardiness, and it fails exactly when the scheduler
   fails. *)
let estimate_admissible =
  QCheck.Test.make ~name:"estimate is an admissible tardiness bound" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let lib = Helpers.stock_lib in
      let spec = W.generate lib (tiny_params ((seed mod 997) + 1)) in
      let clustering = Clustering.run ~max_cluster_size:8 spec lib in
      let rng = Random.State.make [| seed |] in
      let arch = random_placement rng spec clustering lib in
      List.for_all
        (fun cap ->
          match
            ( Schedule.estimate ~copy_cap:cap spec clustering arch,
              Schedule.run ~copy_cap:cap spec clustering arch )
          with
          | Ok lb, Ok sched -> 0 <= lb && lb <= sched.Schedule.total_tardiness
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false)
        [ 1; 4; 64 ])

let estimate_matches_disconnection () =
  let spec, ids = Helpers.sw_chain 2 in
  let clustering = Clustering.singletons spec Helpers.small_lib in
  let arch = Arch.create Helpers.small_lib in
  let cpu_a = Arch.add_pe arch (Library.pe Helpers.small_lib 0) in
  let cpu_b = Arch.add_pe arch (Library.pe Helpers.small_lib 0) in
  let place t pe =
    let c = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t)) in
    match
      Arch.place_cluster arch spec clustering c ~pe ~mode:(Vec.get pe.Arch.modes 0)
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "place failed: %s" msg
  in
  (match ids with
  | [ t0; t1 ] ->
      place t0 cpu_a;
      place t1 cpu_b
  | _ -> Alcotest.fail "expected two tasks");
  (* Two communicating placed tasks, no link: both must refuse. *)
  (match (Schedule.estimate spec clustering arch, Schedule.run spec clustering arch) with
  | Error a, Error b -> check Alcotest.string "same failure" b a
  | _ -> Alcotest.fail "both evaluators must report the disconnection");
  (* Connecting the PEs makes both succeed. *)
  let link = Arch.add_link arch (Library.link Helpers.small_lib 0) in
  (match (Arch.attach arch link cpu_a, Arch.attach arch link cpu_b) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "attach failed");
  match (Schedule.estimate spec clustering arch, Schedule.run spec clustering arch) with
  | Ok lb, Ok sched ->
      check Alcotest.bool "admissible after connecting" true
        (lb <= sched.Schedule.total_tardiness)
  | _ -> Alcotest.fail "both evaluators must succeed once connected"

(* --- undo journal --- *)

(* Everything observable about an architecture, for bit-identity checks:
   structure (inventory + dot render), accounting, and the placement
   map. *)
let arch_signature (clustering : Clustering.t) (arch : Arch.t) =
  let sites =
    Array.to_list
      (Array.map
         (fun (c : Clustering.cluster) ->
           match Arch.site_of_cluster arch c.Clustering.cid with
           | Some site -> (c.Clustering.cid, site.Arch.s_pe, site.Arch.s_mode)
           | None -> (c.Clustering.cid, -1, -1))
         clustering.Clustering.clusters)
  in
  ( Export.inventory arch,
    Export.to_dot clustering ~t_arch:arch,
    Arch.cost arch,
    (Arch.n_pes arch, Arch.n_links arch),
    (Vec.length arch.Arch.pes, Vec.length arch.Arch.links),
    sites )

let journal_rollback_restores () =
  let spec, clustering, t1, t2 =
    let spec, t1, t2 = Helpers.two_hw_graphs ~overlap:false () in
    (spec, Clustering.singletons spec Helpers.small_lib, t1, t2)
  in
  let arch = Arch.create Helpers.small_lib in
  let fpga = Arch.add_pe arch (Library.pe Helpers.small_lib 4) in
  let c1 = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t1)) in
  let c2 = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t2)) in
  (match
     Arch.place_cluster arch spec clustering c1 ~pe:fpga
       ~mode:(Vec.get fpga.Arch.modes 0)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "seed place failed: %s" msg);
  let before = arch_signature clustering arch in
  let ck = Arch.checkpoint arch in
  (* A trial touching every journaled operation: new PE, new mode, a
     placement, a move, connectivity. *)
  let cpu = Arch.add_pe arch (Library.pe Helpers.small_lib 0) in
  let mode2 = Arch.add_mode arch fpga in
  (match Arch.place_cluster arch spec clustering c2 ~pe:fpga ~mode:mode2 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trial place failed: %s" msg);
  Arch.unplace_cluster arch clustering c1;
  let link = Arch.add_link arch (Library.link Helpers.small_lib 0) in
  (match (Arch.attach arch link fpga, Arch.attach arch link cpu) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "attach failed");
  Arch.detach_unused arch;
  check Alcotest.bool "trial visibly mutated the base" true
    (arch_signature clustering arch <> before);
  Arch.rollback arch ck;
  check Alcotest.bool "rollback restores the base exactly" true
    (arch_signature clustering arch = before);
  (* The restored architecture behaves identically, not just prints
     identically: a fresh deep copy of it schedules the same. *)
  match
    (Schedule.run spec clustering arch, Schedule.run spec clustering (Arch.copy arch))
  with
  | Ok a, Ok b ->
      check Alcotest.int "same tardiness" a.Schedule.total_tardiness
        b.Schedule.total_tardiness
  | _ -> Alcotest.fail "restored architecture must schedule"

let journal_commit_keeps () =
  let spec, t1, _ = Helpers.two_hw_graphs ~overlap:false () in
  let clustering = Clustering.singletons spec Helpers.small_lib in
  let arch = Arch.create Helpers.small_lib in
  let fpga = Arch.add_pe arch (Library.pe Helpers.small_lib 4) in
  let c1 = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t1)) in
  let ck = Arch.checkpoint arch in
  (match
     Arch.place_cluster arch spec clustering c1 ~pe:fpga
       ~mode:(Vec.get fpga.Arch.modes 0)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "place failed: %s" msg);
  Arch.commit arch ck;
  check Alcotest.bool "committed placement survives" true
    (Arch.site_of_cluster arch c1.cid <> None)

let journal_nested () =
  let spec, t1, t2 = Helpers.two_hw_graphs ~overlap:false () in
  let clustering = Clustering.singletons spec Helpers.small_lib in
  let arch = Arch.create Helpers.small_lib in
  let fpga = Arch.add_pe arch (Library.pe Helpers.small_lib 4) in
  let mode = Vec.get fpga.Arch.modes 0 in
  let c1 = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t1)) in
  let c2 = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t2)) in
  let outer = Arch.checkpoint arch in
  (match Arch.place_cluster arch spec clustering c1 ~pe:fpga ~mode with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "outer place failed: %s" msg);
  let inner = Arch.checkpoint arch in
  let mode2 = Arch.add_mode arch fpga in
  (match Arch.place_cluster arch spec clustering c2 ~pe:fpga ~mode:mode2 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "inner place failed: %s" msg);
  Arch.rollback arch inner;
  check Alcotest.bool "inner undone" true (Arch.site_of_cluster arch c2.cid = None);
  check Alcotest.int "inner mode gone" 1 (Vec.length fpga.Arch.modes);
  check Alcotest.bool "outer kept" true (Arch.site_of_cluster arch c1.cid <> None);
  Arch.rollback arch outer;
  check Alcotest.bool "outer undone" true (Arch.site_of_cluster arch c1.cid = None);
  check Alcotest.int "gates released" 0 mode.Arch.m_gates

(* --- end-to-end determinism --- *)

let result_signature (r : C.result) =
  let sched =
    Array.to_list
      (Array.map
         (fun (i : Schedule.instance) ->
           (i.Schedule.i_task, i.Schedule.i_copy, i.Schedule.start, i.Schedule.finish))
         r.C.schedule.Schedule.instances)
  in
  ( r.C.cost,
    (r.C.n_pes, r.C.n_links, r.C.n_modes),
    r.C.deadlines_met,
    r.C.schedule.Schedule.total_tardiness,
    arch_signature r.C.clustering r.C.arch,
    sched )

let synthesize_with ?(eval_window = C.default_options.C.eval_window) ~incremental
    spec lib =
  let options = { C.default_options with incremental; eval_window } in
  match C.synthesize ~options spec lib with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis failed: %s" msg

(* The bounded replay stops losing candidates early; the reference
   evaluator schedules every candidate in full, so any decision the
   bound got wrong shows up as a different result. *)
let determinism_on_spec ?eval_window name spec lib =
  let reference = synthesize_with ?eval_window ~incremental:false spec lib in
  let bounded = synthesize_with ?eval_window ~incremental:true spec lib in
  check Alcotest.bool
    (name ^ ": bounded incremental = reference")
    true
    (result_signature bounded = result_signature reference)

let determinism_figure2 () =
  determinism_on_spec "figure2" (Examples.figure2 Helpers.small_lib) Helpers.small_lib

let determinism_figure4 () =
  determinism_on_spec "figure4" (Examples.figure4 Helpers.small_lib) Helpers.small_lib

let determinism_generated () =
  List.iter
    (fun seed ->
      let spec = W.generate Helpers.stock_lib (tiny_params seed) in
      determinism_on_spec
        (Printf.sprintf "generated seed %d" seed)
        spec Helpers.stock_lib)
    [ 11; 42 ]

(* Every allocation of this chain settles for its least-tardy option
   (see [fallback_commits_traced]).  Repair's rip-up then adopts the
   tail its fallback's replay recorded, after the other trials, their
   rollbacks and the fallback's re-apply; a basis that did not match the
   re-applied architecture would misjudge the evaluations that follow.
   Checked at the default window and at a window of one. *)
let determinism_fallback () =
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib ~exec:9_000 ~deadline:1_000 2 in
  List.iter
    (fun eval_window ->
      determinism_on_spec ~eval_window
        (Printf.sprintf "fallback chain, window %d" eval_window)
        spec lib)
    [ C.default_options.C.eval_window; 1 ]

(* The per-run scoping contract: every synthesis owns its evaluator and
   counters, so identical back-to-back runs report identical, exact
   statistics — with process-global state the second run's numbers
   would be polluted by leftovers from the first. *)
let eval_stats_per_run () =
  let spec = W.generate Helpers.stock_lib (W.scaled (W.preset "A1TR") 16.0) in
  let stats_of () =
    let r = synthesize_with ~incremental:true spec Helpers.stock_lib in
    (result_signature r, r.C.eval_stats)
  in
  let sig1, s1 = stats_of () in
  let sig2, s2 = stats_of () in
  check Alcotest.bool "identical runs synthesize identically" true (sig1 = sig2);
  check Alcotest.bool "identical runs report identical eval stats" true (s1 = s2);
  List.iter
    (fun (name, count) ->
      check Alcotest.bool
        (Printf.sprintf "%s did not accumulate across runs" name)
        true
        (count s2 > 0 && count s2 = count s1))
    [
      ("replays", fun (s : C.eval_stats) -> s.C.replays);
      ("rebuilds", fun s -> s.C.rebuilds);
      ("rollbacks", fun s -> s.C.rollbacks);
    ];
  (* A fresh evaluator holds no recording from another run: its first
     evaluation is a rebuild, not a replay. *)
  let r = synthesize_with ~incremental:true spec Helpers.stock_lib in
  let fresh = Incremental.create () in
  (match Incremental.evaluate fresh spec r.C.clustering r.C.arch with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "no cross-run replay on a fresh evaluator" 0
    (Incremental.replays fresh);
  check Alcotest.int "fresh evaluator rebuilds" 1 (Incremental.rebuilds fresh)

(* Every result carries its own architecture's schedule.  Phases hand
   their schedules along instead of recomputing them, and every
   evaluator configuration shares those hand-offs, so comparing
   configurations cannot catch one that kept a stale schedule; a fresh
   run of the result's own architecture can.  Inputs: the table2 presets
   at 1/16 in both flavours (the two largest left out for time) and warm
   repairs of each reconfigured result. *)
let schedules_are_fresh () =
  let module R = C.Resynth in
  let lib = Helpers.stock_lib in
  let fresh what (r : C.result) =
    match Schedule.run r.C.spec r.C.clustering r.C.arch with
    | Error msg -> Alcotest.failf "%s: fresh run failed: %s" what msg
    | Ok s ->
        check Alcotest.bool (what ^ ": verdict") s.Schedule.deadlines_met
          r.C.schedule.Schedule.deadlines_met;
        check Alcotest.int (what ^ ": tardiness") s.Schedule.total_tardiness
          r.C.schedule.Schedule.total_tardiness;
        check Alcotest.bool (what ^ ": same instances") true
          (s.Schedule.instances = r.C.schedule.Schedule.instances)
  in
  List.iter
    (fun name ->
      let spec = W.generate lib (W.scaled (W.preset name) 16.0) in
      List.iter
        (fun reconfig ->
          let options =
            { C.default_options with C.dynamic_reconfiguration = reconfig }
          in
          let r =
            match C.synthesize ~options spec lib with
            | Ok r -> r
            | Error msg -> Alcotest.failf "%s: %s" name msg
          in
          fresh (Printf.sprintf "%s reconfig=%b" name reconfig) r;
          if reconfig then
            List.iter
              (fun change ->
                let what =
                  Printf.sprintf "%s %s" name (R.describe_change change)
                in
                match R.apply ~options r change with
                | Error msg -> Alcotest.failf "%s: %s" what msg
                | Ok rep -> Option.iter (fresh what) (R.final_result rep))
              [
                R.Pe_failure 0;
                R.Graph_departure [ Spec.n_graphs spec - 1 ];
                R.Exec_drift 5;
                R.Exec_drift (-5);
              ])
        [ false; true ])
    (List.filter (fun n -> n <> "B192G" && n <> "NGXM") W.preset_names)

(* Tracing covers every phase of the flow and never perturbs the
   synthesis result. *)
let trace_covers_phases () =
  let module Trace = Crusade_util.Trace in
  let spec = Examples.figure4 Helpers.small_lib in
  let trace = Trace.create () in
  let options = { C.default_options with C.trace = Some trace } in
  match C.synthesize ~options spec Helpers.small_lib with
  | Error msg -> Alcotest.failf "traced synthesis failed: %s" msg
  | Ok r ->
      let plain = synthesize_with ~incremental:true spec Helpers.small_lib in
      check Alcotest.bool "tracing does not perturb synthesis" true
        (result_signature r = result_signature plain);
      let json = Trace.to_json trace in
      (match Helpers.Json.parse json with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg);
      check Alcotest.bool "spans balance per thread" true
        (Helpers.Json.spans_balanced json);
      List.iter
        (fun phase ->
          check Alcotest.bool (Printf.sprintf "phase %S traced" phase) true
            (Helpers.contains json (Printf.sprintf "%S" phase)))
        [
          "synthesize";
          "preprocess";
          "clustering";
          "allocation";
          "alloc.cluster";
          "alloc.candidate";
          "repair";
          "merge";
          "interface";
          "schedule.run";
          "eval_stats";
        ]

(* Fallback commits are traced.  Each task of this chain runs nine
   times past the graph's deadline on every PE, so no candidate is ever
   feasible and each allocation (one in the constructive pass, one in
   repair) settles for its least-tardy option; every such commit must
   leave an "alloc.fallback" instant naming the cluster, its graph, the
   tardiness accepted and the candidates evaluated.  The default window
   sees every candidate, a window of one closes after the first. *)
let fallback_commits_traced () =
  let module Trace = Crusade_util.Trace in
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib ~exec:9_000 ~deadline:1_000 2 in
  List.iter
    (fun eval_window ->
      let what = Printf.sprintf "window %d" eval_window in
      let trace = Trace.create () in
      let fallbacks = ref [] in
      Trace.on_event trace (fun v ->
          if v.Trace.v_phase = "i" && v.Trace.v_name = "alloc.fallback" then
            fallbacks := v.Trace.v_args :: !fallbacks);
      let options = { C.default_options with C.eval_window } in
      let plain =
        match C.synthesize ~options spec lib with
        | Ok r -> r
        | Error msg -> Alcotest.failf "%s: synthesis failed: %s" what msg
      in
      match C.synthesize ~options:{ options with C.trace = Some trace } spec lib with
      | Error msg -> Alcotest.failf "%s: traced synthesis failed: %s" what msg
      | Ok r ->
          check Alcotest.bool (what ^ ": tracing does not perturb synthesis") true
            (result_signature r = result_signature plain);
          check Alcotest.int (what ^ ": one instant per fallback commit") 2
            (List.length !fallbacks);
          List.iter
            (fun args ->
              check
                Alcotest.(list string)
                (what ^ ": instant args")
                [ "cluster"; "graph"; "tardiness"; "evaluated" ]
                (List.map fst args);
              match (List.assoc "tardiness" args, List.assoc "evaluated" args) with
              | Trace.Num tardiness, Trace.Num evaluated ->
                  check Alcotest.bool (what ^ ": a tardy commit") true (tardiness > 0);
                  check Alcotest.bool (what ^ ": after evaluating candidates") true
                    (evaluated > 0 && (eval_window > 1 || evaluated = 1))
              | _ -> Alcotest.failf "%s: tardiness and evaluated must be numbers" what)
            !fallbacks)
    [ C.default_options.C.eval_window; 1 ]

let suite =
  [
    qcheck estimate_admissible;
    Alcotest.test_case "estimate matches run's disconnection" `Quick
      estimate_matches_disconnection;
    Alcotest.test_case "journal rollback restores the base" `Quick
      journal_rollback_restores;
    Alcotest.test_case "journal commit keeps the trial" `Quick journal_commit_keeps;
    Alcotest.test_case "journal checkpoints nest" `Quick journal_nested;
    Alcotest.test_case "determinism: figure2" `Quick determinism_figure2;
    Alcotest.test_case "determinism: figure4" `Quick determinism_figure4;
    Alcotest.test_case "determinism: fallback commits" `Quick determinism_fallback;
    Alcotest.test_case "determinism: generated workloads" `Slow determinism_generated;
    Alcotest.test_case "eval stats scoped per run" `Quick eval_stats_per_run;
    Alcotest.test_case "results carry their own schedule" `Slow
      schedules_are_fresh;
    Alcotest.test_case "trace covers every phase" `Quick trace_covers_phases;
    Alcotest.test_case "fallback commits are traced" `Quick
      fallback_commits_traced;
  ]
