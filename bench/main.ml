(* Benchmark harness: regenerates every table of the paper and registers
   one Bechamel micro-benchmark per table.

     dune exec bench/main.exe -- table1          ERUF/EPUF delay sweep
     dune exec bench/main.exe -- table2          CRUSADE with/without reconfiguration
     dune exec bench/main.exe -- table3          CRUSADE-FT with/without reconfiguration
     dune exec bench/main.exe -- figures         Fig. 2 / Fig. 4 walkthroughs
     dune exec bench/main.exe -- bench           Bechamel micro-benchmarks
     dune exec bench/main.exe -- scenarios       warm re-synthesis under change vs from scratch
     dune exec bench/main.exe -- all [--scale N] everything (default)

   scenarios runs the change matrix {graph-arrival, upgrade, pe-fail,
   drift} x presets: deploy a base architecture, apply the change with
   Crusade_core.Resynth (warm repair), synthesize the post-change
   workload from scratch, and report resynth_seconds vs
   full_synth_seconds, the cost delta, whether both reached the same
   feasibility verdict, and the repaired architecture's audit.
   --gate-warm exits 4 unless every warm case (drift excluded — its
   recording is rebuilt, so it carries no replay advantage) beats the
   from-scratch wall time with matching verdicts and a clean audit.

   --scale N divides the task counts of the eight big examples by N
   (default 8; use --scale 1 to reproduce the full paper sizes, which
   takes over an hour of single-core time).

   --jobs N spreads each --portfolio run's trajectories over up to N
   domains (also the CRUSADE_JOBS env var); a single synthesis always
   runs on one domain, so results never depend on it.

   --no-prune / --no-memo / --no-incremental disable the evaluator
   stages (the stage-1 tardiness lower bound, the stage-2 schedule memo
   table, the incremental prefix-replay engine); results are
   bit-identical either way, only the timings move.

   --only NAME[,NAME] restricts table2/table3 to the named examples.

   --portfolio N runs every table2/table3 synthesis as an N-trajectory
   portfolio (Crusade_core.Portfolio; 0 = one trajectory per available
   domain) and reports the best-of result.  Each row's wall/cpu columns
   then cover the whole portfolio, the JSON entry gains the portfolio
   counters and a best_cost_delta field (dollars saved vs trajectory 0,
   the unperturbed baseline — never negative), and the cost column can
   only improve on --portfolio 1.

   --audit runs the first-principles auditor (Crusade_core.audit /
   Ft.audit) on every synthesis result and records its seconds and
   violation count per entry in BENCH.json.  The audit is a single pass
   over the finished result, after the timed synthesis — the synthesis
   columns are identical with or without it.

   Alongside the text tables, every synthesis run is appended to a
   machine-readable BENCH.json (per-workload wall/cpu seconds, cost,
   prune/memo-hit counters, jobs); --bench-out PATH overrides the
   destination.

   --trace FILE writes a Chrome trace_event JSON profile covering every
   synthesis run of the invocation (one shared sink; load the file in
   chrome://tracing or Perfetto).  Tracing never changes the synthesized
   results, only adds the recording overhead to the timings. *)

module C = Crusade.Crusade_core
module F = Crusade_fault.Ft
module W = Crusade_workloads.Comm_system
module Ex = Crusade_workloads.Examples
module T = Crusade_util.Text_table

let erufs = [ 0.70; 0.75; 0.80; 0.85; 0.90; 0.95; 1.00 ]

(* Shared sink for --trace: every table's syntheses record into it, and
   main writes the file once at exit. *)
let trace_sink : Crusade_util.Trace.t option ref = ref None

(* Paper values for side-by-side comparison. *)
let paper_table1 =
  [
    ("cvs1", [ "0.0"; "0.0"; "4.6"; "7.1"; "18.2"; "42.1"; "121.6" ]);
    ("cvs2", [ "0.0"; "2.5"; "6.1"; "8.3"; "22.6"; "68.7"; "138.9" ]);
    ("xtrs1", [ "0.0"; "8.9"; "9.3"; "9.8"; "28.1"; "46.2"; "88.6" ]);
    ("xtrs2", [ "0.0"; "10.4"; "12.6"; "18.6"; "24.8"; "53.6"; "72.1" ]);
    ("rnvk", [ "0.0"; "9.1"; "9.3"; "11.9"; "18.9"; "39.6"; "88.7" ]);
    ("fcsdp", [ "0.0"; "7.4"; "7.8"; "10.6"; "29.6"; "121.8"; "156.1" ]);
    ("r2d2p", [ "0.0"; "11.1"; "11.1"; "12.8"; "24.2"; "78.6"; "NR" ]);
    ("cv46", [ "0.0"; "9.2"; "10.4"; "11.9"; "22.8"; "62.1"; "NR" ]);
    ("wamxp", [ "0.0"; "12.1"; "14.6"; "18.1"; "28.6"; "54.7"; "NR" ]);
    ("pewxfm", [ "0.0"; "8.6"; "10.2"; "16.8"; "21.7"; "39.2"; "144.5" ]);
  ]

(* (name, without: pes, links, cpu, cost; with: pes, links, cpu, cost, savings%) *)
let paper_table2 =
  [
    ("A1TR", ((74, 19, 19322.6, 26245), (61, 16, 20473.4, 16225, 38.2)));
    ("VDRTX", ((118, 33, 30118.0, 20160), (98, 21, 34665.8, 12890, 36.1)));
    ("HROST", ((244, 48, 68771.6, 34898), (219, 36, 77125.4, 24100, 30.9)));
    ("EST189A", ((334, 87, 82664.7, 48445), (312, 68, 91705.3, 33815, 30.2)));
    ("HRXC", ((388, 93, 89183.4, 51170), (348, 74, 104045.6, 37900, 25.9)));
    ("ADMR", ((406, 102, 112629.1, 64885), (375, 93, 124118.1, 40005, 38.3)));
    ("B192G", ((448, 132, 120336.2, 69745), (405, 128, 129810.6, 34030, 51.2)));
    ("NGXM", ((522, 142, 129876.1, 83885), (417, 138, 140018.2, 36325, 56.7)));
  ]

let paper_table3 =
  [
    ("A1TR", ((98, 28, 22800.6, 30815), (74, 21, 24487.8, 21355, 30.7)));
    ("VDRTX", ((144, 51, 39079.2, 27900), (130, 34, 45890.1, 18885, 32.3)));
    ("HROST", ((361, 88, 85690.6, 52830), (275, 59, 97550.4, 33075, 37.4)));
    ("EST189A", ((470, 116, 105943.1, 64965), (398, 85, 123540.2, 43115, 33.6)));
    ("HRXC", ((512, 131, 110968.9, 60688), (446, 108, 131627.7, 41930, 30.9)));
    ("ADMR", ((526, 136, 134559.8, 79025), (474, 136, 158864.7, 50810, 35.7)));
    ("B192G", ((579, 164, 146183.2, 88430), (518, 154, 161754.9, 41385, 53.2)));
    ("NGXM", ((628, 182, 168449.1, 99886), (531, 168, 183946.4, 48744, 51.2)));
  ]

let table1 () =
  print_endline "== Table 1: delay management through FPGAs/CPLDs ==";
  print_endline "   (% increase in post-route delay at EPUF = 0.80; NR = not routable)";
  let header =
    "circuit" :: "PFUs" :: "src"
    :: List.map (fun e -> Printf.sprintf "ERUF=%.2f" e) erufs
  in
  let rows =
    List.concat_map
      (fun (c : Ex.table1_circuit) ->
        let netlist = Ex.table1_netlist c in
        let measured =
          List.map
            (fun eruf ->
              match Crusade_pnr.Delay.measure netlist ~eruf ~epuf:0.80 ~seed:7 with
              | Crusade_pnr.Delay.Increase_pct p -> T.fmt_float p
              | Crusade_pnr.Delay.Unroutable -> "NR")
            erufs
        in
        let paper = List.assoc c.circuit_name paper_table1 in
        [
          (c.circuit_name :: string_of_int c.pfus :: "paper" :: paper);
          ("" :: "" :: "ours" :: measured);
        ])
      Ex.table1_circuits
  in
  print_string (T.render ~header rows);
  print_newline ()

(* --- machine-readable run log (BENCH.json) --- *)

type portfolio_info = {
  pi_n : int;
  pi_stats : C.Portfolio.stats;
  pi_best_traj : int;
  pi_best_cost_delta : float option;
      (* dollars saved vs trajectory 0 (the unperturbed baseline);
         None only when trajectory 0 failed *)
}

type bench_record = {
  br_table : string;
  br_example : string;
  br_variant : string;  (* "plain" or "reconfig" *)
  br_jobs : int;
  br_scale : int;  (* task-count divisor; 1 = full paper size *)
  br_wall : float;
  br_cpu : float;
  br_cost : float;
  br_met : bool;
  br_stats : C.eval_stats;
  br_audit : (float * int) option;  (* audit seconds, violations found *)
  br_portfolio : portfolio_info option;
}

let bench_records : bench_record list ref = ref []

(* --audit: run the first-principles auditor on every synthesis result.
   The audit is a single pass over the *finished* architecture and
   schedule, so its seconds appear as a separate JSON field and the
   synthesis wall/cpu columns are untouched — the flag demonstrably
   costs nothing on the hot path. *)
let audit_flag = ref false

let timed_audit violations_of =
  if not !audit_flag then None
  else begin
    let t0 = Sys.time () in
    let n = List.length (violations_of ()) in
    Some (Sys.time () -. t0, n)
  end

let record_run ~table ~example ~variant ~jobs ~scale ~cost ?audit ?wall ?cpu
    ?portfolio (r : C.result) =
  bench_records :=
    {
      br_table = table;
      br_example = example;
      br_variant = variant;
      br_jobs = jobs;
      br_scale = scale;
      br_wall = Option.value wall ~default:r.C.wall_seconds;
      br_cpu = Option.value cpu ~default:r.C.cpu_seconds;
      br_cost = cost;
      br_met = r.C.deadlines_met;
      br_stats = r.C.eval_stats;
      br_audit = audit;
      br_portfolio = portfolio;
    }
    :: !bench_records

(* --- scenario matrix (resynth vs from-scratch) --- *)

type scenario_record = {
  sr_example : string;
  sr_scenario : string;  (* graph-arrival | upgrade | pe-fail | drift *)
  sr_scale : int;
  sr_resynth_seconds : float;
  sr_full_synth_seconds : float;
  sr_cost_delta : float option;  (* None when the repair is infeasible *)
  sr_verdict : string;  (* images-only | needs-hardware | infeasible *)
  sr_verdict_match : bool;  (* warm feasibility = from-scratch feasibility *)
  sr_audit_violations : int;
}

let scenario_records : scenario_record list ref = ref []

let write_bench_json ~prune ~memo ~incremental path =
  let entries = List.rev !bench_records in
  let oc = open_out path in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"crusade-bench-2\",\n";
  Buffer.add_string b (Printf.sprintf "  \"prune\": %b,\n" prune);
  Buffer.add_string b (Printf.sprintf "  \"memo\": %b,\n" memo);
  Buffer.add_string b (Printf.sprintf "  \"incremental\": %b,\n" incremental);
  Buffer.add_string b "  \"entries\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      let audit_fields =
        match e.br_audit with
        | None -> ""
        | Some (seconds, violations) ->
            Printf.sprintf ", \"audit_seconds\": %.6f, \"audit_violations\": %d"
              seconds violations
      in
      let portfolio_fields =
        match e.br_portfolio with
        | None -> ""
        | Some p ->
            let s = p.pi_stats in
            Printf.sprintf
              ", \"portfolio_n\": %d, \"traj_launched\": %d, \
               \"traj_completed\": %d, \"traj_aborted\": %d, \
               \"bound_aborts\": %d, \"budget_aborts\": %d, \
               \"incumbent_updates\": %d, \"best_traj\": %d, \
               \"best_cost_delta\": %s"
              p.pi_n s.C.Portfolio.launched s.C.Portfolio.completed
              s.C.Portfolio.aborted s.C.Portfolio.bound_aborts
              s.C.Portfolio.budget_aborts s.C.Portfolio.incumbent_updates
              p.pi_best_traj
              (match p.pi_best_cost_delta with
              | Some d -> Printf.sprintf "%.3f" d
              | None -> "null")
      in
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"table\": %S, \"example\": %S, \"variant\": %S, \"jobs\": %d, \
            \"scale\": %d, \
            \"wall_seconds\": %.6f, \"cpu_seconds\": %.6f, \"cost\": %.3f, \
            \"deadlines_met\": %b, \"pruned\": %d, \"memo_hits\": %d, \
            \"memo_misses\": %d, \"memo_bypassed\": %d, \"rollbacks\": %d, \
            \"replays\": %d, \"rebuilds\": %d, \"merge_replays\": %d, \
            \"merge_rebuilds\": %d, \"basis_adoptions\": %d, \
            \"basis_cuts\": %d%s%s}"
           e.br_table e.br_example e.br_variant e.br_jobs e.br_scale e.br_wall
           e.br_cpu e.br_cost e.br_met e.br_stats.C.pruned
           e.br_stats.C.memo_hits e.br_stats.C.memo_misses
           e.br_stats.C.memo_bypassed e.br_stats.C.rollbacks
           e.br_stats.C.replays e.br_stats.C.rebuilds
           e.br_stats.C.merge_replays e.br_stats.C.merge_rebuilds
           e.br_stats.C.basis_adoptions e.br_stats.C.basis_cuts audit_fields
           portfolio_fields))
    entries;
  Buffer.add_string b "\n  ]";
  let scenarios = List.rev !scenario_records in
  if scenarios <> [] then begin
    Buffer.add_string b ",\n  \"scenarios\": [";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\n    {\"example\": %S, \"scenario\": %S, \"scale\": %d, \
              \"resynth_seconds\": %.6f, \"full_synth_seconds\": %.6f, \
              \"cost_delta\": %s, \"verdict\": %S, \"verdict_match\": %b, \
              \"audit_violations\": %d}"
             s.sr_example s.sr_scenario s.sr_scale s.sr_resynth_seconds
             s.sr_full_synth_seconds
             (match s.sr_cost_delta with
             | Some d -> Printf.sprintf "%.3f" d
             | None -> "null")
             s.sr_verdict s.sr_verdict_match s.sr_audit_violations))
      scenarios;
    Buffer.add_string b "\n  ]"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s (%d entries, %d scenarios)\n%!" path
    (List.length entries) (List.length scenarios)

(* Run a flow either plainly (portfolio = 1: bit-identical to the
   pre-portfolio harness) or as an N-trajectory portfolio whose winner —
   with the portfolio counters folded into its eval_stats — is recorded
   with whole-portfolio wall/cpu seconds. *)
let run_flow ~portfolio ~options ~flow ~cost ~met =
  if portfolio = 1 then
    match flow options with
    | Ok r -> Ok (r, None)
    | Error msg -> Error msg
  else begin
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    match C.Portfolio.run ~n:portfolio ~options ~flow ~cost ~met () with
    | Ok o ->
        let wall = Unix.gettimeofday () -. w0 and cpu = Sys.time () -. c0 in
        let info =
          {
            pi_n = portfolio;
            pi_stats = o.C.Portfolio.stats;
            pi_best_traj = o.C.Portfolio.best_index;
            pi_best_cost_delta =
              Option.map
                (fun b -> b -. o.C.Portfolio.best_cost)
                o.C.Portfolio.baseline_cost;
          }
        in
        Ok (o.C.Portfolio.best, Some (info, wall, cpu))
    | Error msg -> Error msg
  end

let synth_row ~jobs ~prune ~memo ~incremental ~portfolio ~scale ~table ~example
    spec lib reconfig =
  let options =
    {
      C.default_options with
      dynamic_reconfiguration = reconfig;
      jobs;
      prune;
      memo;
      incremental;
      trace = !trace_sink;
    }
  in
  match
    run_flow ~portfolio ~options
      ~flow:(fun o -> C.synthesize ~options:o spec lib)
      ~cost:(fun (r : C.result) -> r.C.cost)
      ~met:(fun (r : C.result) -> r.C.deadlines_met)
  with
  | Ok (r, pf) ->
      let r, portfolio, wall, cpu =
        match pf with
        | None -> (r, None, None, None)
        | Some (info, wall, cpu) ->
            ( {
                r with
                C.eval_stats =
                  C.Portfolio.annotate r.C.eval_stats info.pi_stats;
              },
              Some info,
              Some wall,
              Some cpu )
      in
      record_run ~table ~example
        ~variant:(if reconfig then "reconfig" else "plain")
        ~jobs ~scale ~cost:r.C.cost
        ?audit:(timed_audit (fun () -> C.audit r))
        ?wall ?cpu ?portfolio r;
      (r.C.n_pes, r.C.n_links, r.C.cpu_seconds, r.C.cost, r.C.deadlines_met)
  | Error msg -> failwith msg

let ft_row ~jobs ~prune ~memo ~incremental ~portfolio ~scale ~table ~example
    spec lib reconfig =
  let options =
    {
      C.default_options with
      dynamic_reconfiguration = reconfig;
      jobs;
      prune;
      memo;
      incremental;
      trace = !trace_sink;
    }
  in
  match
    run_flow ~portfolio ~options
      ~flow:(fun o -> F.synthesize ~options:o spec lib)
      ~cost:(fun (r : F.result) -> r.F.total_cost)
      ~met:(fun (r : F.result) -> r.F.core.C.deadlines_met)
  with
  | Ok (r, pf) ->
      let core, portfolio, wall, cpu =
        match pf with
        | None -> (r.F.core, None, None, None)
        | Some (info, wall, cpu) ->
            ( {
                r.F.core with
                C.eval_stats =
                  C.Portfolio.annotate r.F.core.C.eval_stats info.pi_stats;
              },
              Some info,
              Some wall,
              Some cpu )
      in
      record_run ~table ~example
        ~variant:(if reconfig then "reconfig" else "plain")
        ~jobs ~scale ~cost:r.F.total_cost
        ?audit:(timed_audit (fun () -> F.audit r))
        ?wall ?cpu ?portfolio core;
      ( r.F.n_pes_with_spares,
        r.F.core.C.n_links,
        r.F.core.C.cpu_seconds,
        r.F.total_cost,
        r.F.core.C.deadlines_met )
  | Error msg -> failwith msg

let comparison_table ~title ~paper ~scale ~only ~row_of =
  Printf.printf "== %s (examples scaled 1/%d) ==\n%!" title scale;
  let header =
    [
      "example"; "tasks"; "src"; "PEs-"; "links-"; "cpu- (s)"; "cost- ($)"; "PEs+";
      "links+"; "cpu+ (s)"; "cost+ ($)"; "savings %"; "deadlines";
    ]
  in
  let lib = Crusade_resource.Library.stock () in
  let names =
    match only with
    | [] -> W.preset_names
    | picked -> List.filter (fun n -> List.mem n picked) W.preset_names
  in
  let rows =
    List.concat_map
      (fun name ->
        let params = W.scaled (W.preset name) (float_of_int scale) in
        let spec = W.generate lib params in
        let p0, l0, t0, c0, ok0 = row_of ~example:name spec lib false in
        let p1, l1, t1, c1, ok1 = row_of ~example:name spec lib true in
        let savings = (c0 -. c1) /. c0 *. 100.0 in
        let (pp0, pl0, pt0, pc0), (pp1, pl1, pt1, pc1, psav) =
          List.assoc name paper
        in
        [
          [
            name; "(paper)"; "paper"; string_of_int pp0; string_of_int pl0;
            T.fmt_float pt0; T.fmt_dollars (float_of_int pc0); string_of_int pp1;
            string_of_int pl1; T.fmt_float pt1; T.fmt_dollars (float_of_int pc1);
            T.fmt_float psav; "met";
          ];
          [
            ""; string_of_int (Crusade_taskgraph.Spec.n_tasks spec); "ours";
            string_of_int p0; string_of_int l0; T.fmt_float t0; T.fmt_dollars c0;
            string_of_int p1; string_of_int l1; T.fmt_float t1; T.fmt_dollars c1;
            T.fmt_float savings;
            (if ok0 && ok1 then "met" else "MISSED");
          ];
        ])
      names
  in
  print_string
    (T.render
       ~align:
         [
           Left; Right; Left; Right; Right; Right; Right; Right; Right; Right; Right;
           Right; Left;
         ]
       ~header rows);
  print_newline ()

let table2 ~scale ~jobs ~prune ~memo ~incremental ~portfolio ~only () =
  comparison_table
    ~title:"Table 2: efficacy of CRUSADE (- without / + with dynamic reconfiguration)"
    ~paper:paper_table2 ~scale ~only
    ~row_of:
      (synth_row ~jobs ~prune ~memo ~incremental ~portfolio ~scale
         ~table:"table2")

let table3 ~scale ~jobs ~prune ~memo ~incremental ~portfolio ~only () =
  comparison_table
    ~title:
      "Table 3: efficacy of CRUSADE-FT (- without / + with dynamic reconfiguration)"
    ~paper:paper_table3 ~scale ~only
    ~row_of:
      (ft_row ~jobs ~prune ~memo ~incremental ~portfolio ~scale
         ~table:"table3")

let figures ~prune ~memo ~incremental () =
  print_endline "== Fig. 2 motivation example (small library) ==";
  let lib = Crusade_resource.Library.small () in
  let spec = Ex.figure2 lib in
  let fig_row =
    synth_row ~jobs:1 ~prune ~memo ~incremental ~portfolio:1 ~scale:1
      ~table:"figures" ~example:"figure2"
  in
  let p0, l0, _, c0, _ = fig_row spec lib false in
  let p1, l1, _, c1, _ = fig_row spec lib true in
  Printf.printf
    "  without reconfiguration: %d FPGAs, %d links, $%.0f\n\
    \  with    reconfiguration: %d FPGA,  %d links, $%.0f (one device, multiple modes)\n\
    \  saving: %.1f%%\n\n"
    p0 l0 c0 p1 l1 c1
    ((c0 -. c1) /. c0 *. 100.0);
  print_endline "== Fig. 4 allocation walk-through (small library) ==";
  let spec4 = Ex.figure4 lib in
  let options =
    {
      C.default_options with
      dynamic_reconfiguration = true;
      prune;
      memo;
      incremental;
      trace = !trace_sink;
    }
  in
  (match C.synthesize ~options spec4 lib with
  | Ok r ->
      record_run ~table:"figures" ~example:"figure4" ~variant:"reconfig" ~jobs:1
        ~scale:1 ~cost:r.C.cost
        ?audit:(timed_audit (fun () -> C.audit r))
        r;
      Format.printf "%a@.@." C.pp_report r
  | Error msg -> Printf.printf "  FAILED: %s\n" msg)

(* One Bechamel micro-benchmark per table: the Table 1 place-and-route
   kernel, a Table 2 co-synthesis run, a Table 3 CRUSADE-FT run (both on a
   1/16-scale A1TR so a sample stays sub-second). *)
let bechamel_benches () =
  let open Bechamel in
  print_endline "== Bechamel micro-benchmarks (ns per run, OLS estimate) ==";
  let lib = Crusade_resource.Library.stock () in
  let small_spec = W.generate lib (W.scaled (W.preset "A1TR") 16.0) in
  let circuit = Ex.table1_netlist (List.nth Ex.table1_circuits 0) in
  let tests =
    Test.make_grouped ~name:"crusade"
      [
        Test.make ~name:"table1-route-cvs1"
          (Staged.stage (fun () ->
               ignore
                 (Crusade_pnr.Delay.measure ~samples:3 circuit ~eruf:0.9 ~epuf:0.8
                    ~seed:7)));
        Test.make ~name:"table2-synthesize-A1TR/16"
          (Staged.stage (fun () ->
               ignore (C.synthesize ~options:C.default_options small_spec lib)));
        Test.make ~name:"table3-ft-synthesize-A1TR/16"
          (Staged.stage (fun () ->
               ignore (F.synthesize ~options:C.default_options small_spec lib)));
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 3.0) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (t :: _) -> Printf.sprintf "%.0f" t
        | Some [] | None -> "n/a"
      in
      rows := [ name; estimate ] :: !rows)
    analyzed;
  print_string
    (T.render ~align:[ Left; Right ] ~header:[ "benchmark"; "ns/run" ]
       (List.sort compare !rows));
  print_newline ()

(* Ablations of the design choices DESIGN.md calls out: critical-path
   clustering, the association-array copy cap, the evaluation window and
   the merge phase.  One row per variant on the 1/8-scale A1TR example. *)
let ablation () =
  print_endline "== Ablations (A1TR at 1/8 scale, dynamic reconfiguration on) ==";
  let lib = Crusade_resource.Library.stock () in
  let spec = W.generate lib (W.scaled (W.preset "A1TR") 8.0) in
  let row name options =
    match C.synthesize ~options spec lib with
    | Ok r ->
        [
          name; string_of_int r.C.n_pes; string_of_int r.C.n_links;
          string_of_int r.C.n_modes; T.fmt_dollars r.C.cost;
          (if r.C.deadlines_met then "met" else "MISSED");
          T.fmt_float ~decimals:2 r.C.cpu_seconds;
        ]
    | Error msg -> [ name; "error: " ^ msg ]
  in
  let d = C.default_options in
  let rows =
    [
      row "default" d;
      row "no clustering (singletons)" { d with C.use_clustering = false };
      row "cluster size 16" { d with C.max_cluster_size = 16 };
      row "copy cap 8" { d with C.copy_cap = 8 };
      row "copy cap 16" { d with C.copy_cap = 16 };
      row "eval window 4" { d with C.eval_window = 4 };
      row "no merge phase" { d with C.merge_trials_per_pass = 0 };
      row "no reconfiguration" { d with C.dynamic_reconfiguration = false };
      row "no incremental rescheduling" { d with C.incremental = false };
    ]
  in
  print_string
    (T.render
       ~align:[ Left; Right; Right; Right; Right; Left; Right ]
       ~header:[ "variant"; "PEs"; "links"; "images"; "cost ($)"; "deadlines"; "cpu (s)" ]
       rows);
  print_newline ()

(* The change matrix: deploy, repair warm with Resynth, synthesize the
   post-change workload cold, and compare.  Drift is measured but not
   gated — every execution time changes, so the deployed recording is
   rebuilt and the warm path carries no replay advantage to assert on. *)
let scenarios ~scale ~only ~gate_warm () =
  let module R = C.Resynth in
  Printf.printf
    "== Scenario matrix: warm re-synthesis vs from scratch (1/%d scale) ==\n%!"
    scale;
  let lib = Crusade_resource.Library.stock () in
  let names = match only with [] -> [ "A1TR"; "VDRTX" ] | picked -> picked in
  let options = { C.default_options with trace = !trace_sink } in
  let gate_failures = ref [] in
  let rows =
    List.concat_map
      (fun name ->
        let params = W.scaled (W.preset name) (float_of_int scale) in
        let spec = W.generate lib params in
        let last = Array.length spec.Crusade_taskgraph.Spec.graphs - 1 in
        let cases =
          [
            ("graph-arrival", R.Graph_arrival [ last ]);
            ("upgrade", R.Upgrade [ last ]);
            ("pe-fail", R.Pe_failure 0);
            ("drift", R.Exec_drift 20);
          ]
        in
        List.map
          (fun (kind, change) ->
            let where = Printf.sprintf "%s/%s" name kind in
            let deployed_include =
              match change with
              | R.Graph_arrival gs | R.Upgrade gs ->
                  fun g -> not (List.mem g gs)
              | R.Graph_departure _ | R.Pe_failure _ | R.Exec_drift _ ->
                  fun _ -> true
            in
            let deployed =
              match
                C.synthesize ~options ~include_graph:deployed_include spec lib
              with
              | Ok r -> r
              | Error msg ->
                  failwith (where ^ ": deployed synthesis: " ^ msg)
            in
            let rep =
              match R.apply ~options deployed change with
              | Ok rep -> rep
              | Error msg -> failwith (where ^ ": resynth: " ^ msg)
            in
            let scratch =
              match change with
              | R.Graph_arrival _ | R.Upgrade _ | R.Pe_failure _ ->
                  C.synthesize ~options spec lib
              | R.Graph_departure gs ->
                  C.synthesize ~options
                    ~include_graph:(fun g -> not (List.mem g gs))
                    spec lib
              | R.Exec_drift pct -> (
                  match R.drift_spec spec pct with
                  | Ok spec' -> C.synthesize ~options spec' lib
                  | Error _ as e -> e)
            in
            let full_secs, scratch_met =
              match scratch with
              | Ok s -> (s.C.wall_seconds, s.C.deadlines_met)
              | Error msg -> failwith (where ^ ": from scratch: " ^ msg)
            in
            let resynth_feasible = R.final_result rep <> None in
            let verdict =
              match rep.R.verdict with
              | R.Images_only _ -> "images-only"
              | R.Needs_hardware _ -> "needs-hardware"
              | R.Infeasible -> "infeasible"
            in
            let verdict_match = resynth_feasible = scratch_met in
            let violations = List.length (R.audit_report rep) in
            scenario_records :=
              {
                sr_example = name;
                sr_scenario = kind;
                sr_scale = scale;
                sr_resynth_seconds = rep.R.resynth_seconds;
                sr_full_synth_seconds = full_secs;
                sr_cost_delta = rep.R.cost_delta;
                sr_verdict = verdict;
                sr_verdict_match = verdict_match;
                sr_audit_violations = violations;
              }
              :: !scenario_records;
            if gate_warm && kind <> "drift" then begin
              if not (rep.R.resynth_seconds < full_secs) then
                gate_failures :=
                  Printf.sprintf "%s: resynth %.3f s >= full %.3f s" where
                    rep.R.resynth_seconds full_secs
                  :: !gate_failures;
              if not verdict_match then
                gate_failures := (where ^ ": verdicts differ") :: !gate_failures;
              if violations > 0 then
                gate_failures :=
                  Printf.sprintf "%s: %d audit violation(s)" where violations
                  :: !gate_failures
            end;
            [
              name;
              kind;
              verdict;
              T.fmt_float ~decimals:3 rep.R.resynth_seconds;
              T.fmt_float ~decimals:3 full_secs;
              (match rep.R.cost_delta with
              | Some d ->
                  (if d < 0.0 then "-$" else "+$")
                  ^ T.fmt_dollars (Float.abs d)
              | None -> "n/a");
              (if verdict_match then "match" else "DIFFER");
              string_of_int violations;
            ])
          cases)
      names
  in
  print_string
    (T.render
       ~align:[ Left; Left; Left; Right; Right; Right; Left; Right ]
       ~header:
         [
           "example"; "scenario"; "verdict"; "resynth (s)"; "full (s)";
           "cost delta"; "verdicts"; "violations";
         ]
       rows);
  print_newline ();
  if gate_warm then
    match !gate_failures with
    | [] -> print_endline "warm gate: every warm case beats from-scratch\n"
    | fs ->
        List.iter (fun f -> Printf.printf "warm gate FAILED: %s\n" f) fs;
        exit 4

let () =
  (* The synthesis inner loops allocate short-lived scratch (site maps,
     level arrays, timelines) at a rate that makes the default 256k-word
     minor heap a measurable share of the run; a larger nursery trades a
     few MB of RSS for fewer collections. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1024 * 1024 };
  let args = Array.to_list Sys.argv in
  let int_flag ?(min = 1) flag default =
    let rec find = function
      | f :: n :: _ when f = flag -> (
          match int_of_string_opt n with
          | Some v when v >= min -> v
          | _ ->
              Printf.eprintf "%s expects an integer >= %d, got %S\n" flag min n;
              exit 2)
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let string_flag flag default =
    let rec find = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let scale = int_flag "--scale" 8 in
  let jobs = int_flag "--jobs" (Crusade_util.Pool.default_jobs ()) in
  (* 0 = one trajectory per available domain (Pool.size); resolved here
     so every row reports the concrete trajectory count. *)
  let portfolio = C.Portfolio.resolve_n (int_flag ~min:0 "--portfolio" 1) in
  let prune = not (List.mem "--no-prune" args) in
  let memo = not (List.mem "--no-memo" args) in
  let incremental = not (List.mem "--no-incremental" args) in
  let only =
    match string_flag "--only" "" with
    | "" -> []
    | names ->
        let picked = String.split_on_char ',' names in
        List.iter
          (fun n ->
            if not (List.mem n W.preset_names) then begin
              Printf.eprintf "--only: unknown example %S (known: %s)\n" n
                (String.concat ", " W.preset_names);
              exit 2
            end)
          picked;
        picked
  in
  audit_flag := List.mem "--audit" args;
  let bench_out = string_flag "--bench-out" "BENCH.json" in
  let trace_out =
    match string_flag "--trace" "" with "" -> None | path -> Some path
  in
  if trace_out <> None then trace_sink := Some (Crusade_util.Trace.create ());
  let wants what =
    List.exists (fun a -> a = what) args
    || not
         (List.exists
            (fun a ->
              List.mem a
                [
                  "table1"; "table2"; "table3"; "figures"; "bench"; "ablation";
                  "scenarios";
                ])
            args)
  in
  if wants "figures" then figures ~prune ~memo ~incremental ();
  if wants "table1" then table1 ();
  if wants "table2" then
    table2 ~scale ~jobs ~prune ~memo ~incremental ~portfolio ~only ();
  if wants "table3" then
    table3 ~scale ~jobs ~prune ~memo ~incremental ~portfolio ~only ();
  if wants "ablation" then ablation ();
  if wants "scenarios" then
    scenarios ~scale ~only ~gate_warm:(List.mem "--gate-warm" args) ();
  if wants "bench" then bechamel_benches ();
  if !bench_records <> [] || !scenario_records <> [] then
    write_bench_json ~prune ~memo ~incremental bench_out;
  match (trace_out, !trace_sink) with
  | Some path, Some t ->
      Crusade_util.Trace.write_file t path;
      Printf.printf "wrote %s (%d trace events)\n%!" path
        (Crusade_util.Trace.n_events t)
  | _ -> ()
