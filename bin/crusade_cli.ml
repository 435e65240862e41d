(* crusade — command-line front end for the co-synthesis library.

     crusade synth A1TR --scale 8 --no-reconfig
     crusade ft NGXM --scale 16
     crusade delay cvs1
     crusade list *)

module C = Crusade.Crusade_core
module F = Crusade_fault.Ft
module W = Crusade_workloads.Comm_system
module Ex = Crusade_workloads.Examples

open Cmdliner

let spec_of_name ?seed name scale =
  let lib = Crusade_resource.Library.stock () in
  let small = Crusade_resource.Library.small () in
  match name with
  | "figure2" -> Ok (Ex.figure2 small, small)
  | "figure4" -> Ok (Ex.figure4 small, small)
  | "multirate" -> Ok (Ex.multirate lib, lib)
  | _ -> (
      match W.preset name with
      | params ->
          let params = W.scaled params scale in
          let params =
            match seed with Some s -> { params with W.seed = s } | None -> params
          in
          Ok (W.generate lib params, lib)
      | exception Not_found ->
          Error
            (Printf.sprintf
               "unknown workload %s (try `crusade list`)" name))

let name_arg =
  let doc = "Workload: one of the Table 2 examples (A1TR ... NGXM), figure2, figure4, multirate." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let scale_arg =
  let doc = "Divide the example's task count by $(docv) (generated examples only)." in
  Arg.(value & opt float 8.0 & info [ "scale" ] ~docv:"N" ~doc)

let reconfig_arg =
  let doc = "Disable dynamic reconfiguration (single configuration per device)." in
  Arg.(value & flag & info [ "no-reconfig" ] ~doc)

(* Integer converters that reject non-numeric and out-of-range values
   with a message naming the flag, instead of failing deep in the flow. *)
let int_conv ~flag ~ok ~expects =
  let parse s =
    match int_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some v ->
        Error (`Msg (Printf.sprintf "%s must be %s (got %d)" flag expects v))
    | None ->
        Error (`Msg (Printf.sprintf "%s expects an integer (got %s)" flag s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int flag = int_conv ~flag ~ok:(fun v -> v > 0) ~expects:"positive"

let non_negative_int flag =
  int_conv ~flag ~ok:(fun v -> v >= 0) ~expects:"non-negative"

let copy_cap_arg =
  let doc =
    "Cap on explicit association-array copies per graph (positive)."
  in
  Arg.(
    value
    & opt (some (positive_int "--copy-cap")) None
    & info [ "copy-cap" ] ~docv:"N" ~doc)

let eval_window_arg =
  let doc =
    "Allocation candidates evaluated per cluster before falling back to the \
     least-tardy one (positive)."
  in
  Arg.(
    value
    & opt (some (positive_int "--eval-window")) None
    & info [ "eval-window" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Override the workload generator seed (generated examples only)." in
  Arg.(
    value
    & opt (some (non_negative_int "--seed")) None
    & info [ "seed" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON profile of the synthesis phases to \
     $(docv) (load it in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let portfolio_arg =
  let doc =
    "Run $(docv) perturbed synthesis trajectories, spread over up to \
     $(b,CRUSADE_JOBS) domains (default 1), and keep the cheapest feasible \
     result (0 = one trajectory per available domain).  \
     Trajectory 0 is the unperturbed flow, so the portfolio never returns a \
     worse architecture than the plain run; 1 (the default) is the plain run \
     itself, bit for bit."
  in
  Arg.(
    value
    & opt (some (non_negative_int "--portfolio")) None
    & info [ "portfolio" ] ~docv:"N" ~doc)

let budget_ms_arg =
  let doc =
    "Anytime wall-clock budget in milliseconds: trajectories past the \
     deadline abort at their next check point and the best architecture \
     found so far is returned.  The unperturbed trajectory is exempt, so a \
     result is always produced."
  in
  Arg.(
    value
    & opt (some (positive_int "--budget-ms")) None
    & info [ "budget-ms" ] ~docv:"MS" ~doc)

let quality_arg =
  let doc =
    "Effort preset: $(b,fast) = single trajectory, $(b,balanced) = 4 \
     trajectories, $(b,max) = one trajectory per available domain.  An \
     explicit $(b,--portfolio) overrides it."
  in
  Arg.(
    value
    & opt (some (enum [ ("fast", `Fast); ("balanced", `Balanced); ("max", `Max) ])) None
    & info [ "quality" ] ~docv:"LEVEL" ~doc)

(* --portfolio wins over --quality; no flag at all means the plain flow. *)
let resolve_portfolio portfolio quality =
  match (portfolio, quality) with
  | Some n, _ -> n
  | None, Some `Fast -> 1
  | None, Some `Balanced -> 4
  | None, Some `Max -> 0
  | None, None -> 1

let pp_portfolio_summary (stats : C.Portfolio.stats) ~best_index ~best_cost
    ~baseline_cost =
  Format.printf
    "portfolio    : best of %d trajectories is #%d (%d completed, %d failed, \
     %d aborted: %d bound / %d budget; %d incumbent updates)@."
    stats.C.Portfolio.launched best_index stats.C.Portfolio.completed
    stats.C.Portfolio.failed stats.C.Portfolio.aborted
    stats.C.Portfolio.bound_aborts stats.C.Portfolio.budget_aborts
    stats.C.Portfolio.incumbent_updates;
  match baseline_cost with
  | Some b ->
      Format.printf "vs trajectory 0: $%s -> $%s (saved $%s)@."
        (Crusade_util.Text_table.fmt_dollars b)
        (Crusade_util.Text_table.fmt_dollars best_cost)
        (Crusade_util.Text_table.fmt_dollars (b -. best_cost))
  | None -> ()

let no_incremental_arg =
  let doc =
    "Disable incremental rescheduling (candidate evaluation by prefix replay \
     of the last full scheduler run).  Results are bit-identical with it on \
     or off; only the synthesis time moves.  Escape hatch and A/B lever."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let audit_arg =
  let doc =
    "After synthesis, re-derive every architecture and schedule invariant \
     from first principles (capacities, occupancy, connectivity, exclusion, \
     mode compatibility, cost and count accounting, timeline validity) and \
     exit with code 3 if any is violated.  Runs once on the finished result, \
     off the synthesis hot path."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

(* Shared by synth/ft: print violations (if any) and fold the audit
   verdict into the exit code — violations trump a deadline miss. *)
let audit_exit ~audit violations base_exit =
  if not audit then base_exit
  else begin
    match violations with
    | [] ->
        print_endline "audit: all invariants hold";
        base_exit
    | vs ->
        List.iter
          (fun v -> Format.printf "%a@." Crusade_alloc.Audit.pp_violation v)
          vs;
        Printf.printf "audit: %d violation(s)\n" (List.length vs);
        3
  end

let options_with ~no_reconfig ~no_incremental ~copy_cap ~eval_window ~trace =
  let opts =
    {
      C.default_options with
      dynamic_reconfiguration = not no_reconfig;
      incremental = not no_incremental;
    }
  in
  let opts =
    match copy_cap with Some v -> { opts with C.copy_cap = v } | None -> opts
  in
  let opts =
    match eval_window with
    | Some v -> { opts with C.eval_window = v }
    | None -> opts
  in
  { opts with C.trace }

(* The sink is flushed to disk even when synthesis fails: a trace of the
   failing run is exactly what the flag is for. *)
let with_trace trace_file k =
  let trace = Option.map (fun _ -> Crusade_util.Trace.create ()) trace_file in
  Fun.protect
    ~finally:(fun () ->
      match (trace_file, trace) with
      | Some path, Some t -> Crusade_util.Trace.write_file t path
      | _ -> ())
    (fun () -> k trace)

let synth_run name scale no_reconfig no_incremental copy_cap eval_window seed
    trace_file audit portfolio budget_ms quality =
  match spec_of_name ?seed name scale with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (spec, lib) ->
      with_trace trace_file (fun trace ->
          let options =
            options_with ~no_reconfig ~no_incremental ~copy_cap ~eval_window
              ~trace
          in
          let n = resolve_portfolio portfolio quality in
          if n = 1 && budget_ms = None then
            match C.synthesize ~options spec lib with
            | Ok r ->
                Format.printf "%a@." C.pp_report r;
                let base = if r.C.deadlines_met then 0 else 2 in
                audit_exit ~audit (if audit then C.audit r else []) base
            | Error msg ->
                prerr_endline msg;
                1
          else
            match
              C.Portfolio.run ?budget_ms ~n ~options
                ~flow:(fun o -> C.synthesize ~options:o spec lib)
                ~cost:(fun (r : C.result) -> r.C.cost)
                ~met:(fun (r : C.result) -> r.C.deadlines_met)
                ()
            with
            | Ok o ->
                let r =
                  {
                    o.C.Portfolio.best with
                    C.eval_stats =
                      C.Portfolio.annotate o.C.Portfolio.best.C.eval_stats
                        o.C.Portfolio.stats;
                  }
                in
                Format.printf "%a@." C.pp_report r;
                pp_portfolio_summary o.C.Portfolio.stats
                  ~best_index:o.C.Portfolio.best_index
                  ~best_cost:o.C.Portfolio.best_cost
                  ~baseline_cost:o.C.Portfolio.baseline_cost;
                let base = if r.C.deadlines_met then 0 else 2 in
                audit_exit ~audit (if audit then C.audit r else []) base
            | Error msg ->
                prerr_endline msg;
                1)

let ft_run name scale no_reconfig no_incremental copy_cap eval_window seed
    trace_file audit portfolio budget_ms quality =
  match spec_of_name ?seed name scale with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (spec, lib) ->
      with_trace trace_file (fun trace ->
      let options =
        options_with ~no_reconfig ~no_incremental ~copy_cap ~eval_window ~trace
      in
      let report (r : F.result) portfolio_outcome =
        Format.printf "%a@." C.pp_report r.F.core;
        Format.printf "spares cost $%s; total $%s@."
          (Crusade_util.Text_table.fmt_dollars
             r.F.provisioning.Crusade_fault.Dependability.spare_cost)
          (Crusade_util.Text_table.fmt_dollars r.F.total_cost);
        (match portfolio_outcome with
        | None -> ()
        | Some o ->
            pp_portfolio_summary o.C.Portfolio.stats
              ~best_index:o.C.Portfolio.best_index
              ~best_cost:o.C.Portfolio.best_cost
              ~baseline_cost:o.C.Portfolio.baseline_cost);
        let base = if r.F.core.C.deadlines_met then 0 else 2 in
        audit_exit ~audit (if audit then F.audit r else []) base
      in
      let n = resolve_portfolio portfolio quality in
      if n = 1 && budget_ms = None then
        match F.synthesize ~options spec lib with
        | Ok r -> report r None
        | Error msg ->
            prerr_endline msg;
            1
      else
        match
          C.Portfolio.run ?budget_ms ~n ~options
            ~flow:(fun o -> F.synthesize ~options:o spec lib)
            ~cost:(fun (r : F.result) -> r.F.total_cost)
            ~met:(fun (r : F.result) -> r.F.core.C.deadlines_met)
            ()
        with
        | Ok o ->
            let best = o.C.Portfolio.best in
            let r =
              {
                best with
                F.core =
                  {
                    best.F.core with
                    C.eval_stats =
                      C.Portfolio.annotate best.F.core.C.eval_stats
                        o.C.Portfolio.stats;
                  };
              }
            in
            report r (Some o)
        | Error msg ->
            prerr_endline msg;
            1)

let delay_run circuit =
  match
    List.find_opt
      (fun (c : Ex.table1_circuit) -> c.circuit_name = circuit)
      Ex.table1_circuits
  with
  | None ->
      Printf.eprintf "unknown circuit %s (cvs1 ... pewxfm)\n" circuit;
      1
  | Some c ->
      let netlist = Ex.table1_netlist c in
      Printf.printf "%s (%d PFUs, %d pins): delay increase vs ERUF at EPUF=0.80\n"
        c.circuit_name c.pfus c.pins;
      List.iter
        (fun eruf ->
          match Crusade_pnr.Delay.measure netlist ~eruf ~epuf:0.80 ~seed:7 with
          | Crusade_pnr.Delay.Increase_pct p ->
              Printf.printf "  ERUF %.2f: %6.1f %%\n" eruf p
          | Crusade_pnr.Delay.Unroutable ->
              Printf.printf "  ERUF %.2f: not routable\n" eruf)
        [ 0.70; 0.75; 0.80; 0.85; 0.90; 0.95; 1.00 ];
      0

let spec_run name scale seed =
  match spec_of_name ?seed name scale with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (spec, _) ->
      print_string (Crusade_taskgraph.Dsl.print spec);
      0

let list_run () =
  print_endline "Generated examples (Table 2/3; use --scale to shrink):";
  List.iter
    (fun name ->
      let p = W.preset name in
      Printf.printf "  %-8s %5d tasks\n" name p.W.n_tasks)
    W.preset_names;
  print_endline "Hand-built examples: figure2, figure4, multirate";
  print_endline "Table 1 circuits:";
  List.iter
    (fun (c : Ex.table1_circuit) -> Printf.printf "  %-8s %3d PFUs\n" c.circuit_name c.pfus)
    Ex.table1_circuits;
  0

let synth_cmd =
  let doc = "co-synthesize an architecture for a workload" in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const synth_run $ name_arg $ scale_arg $ reconfig_arg $ no_incremental_arg
      $ copy_cap_arg $ eval_window_arg $ seed_arg $ trace_arg $ audit_arg
      $ portfolio_arg $ budget_ms_arg $ quality_arg)

let ft_cmd =
  let doc = "co-synthesize a fault-tolerant architecture (CRUSADE-FT)" in
  Cmd.v (Cmd.info "ft" ~doc)
    Term.(
      const ft_run $ name_arg $ scale_arg $ reconfig_arg $ no_incremental_arg
      $ copy_cap_arg $ eval_window_arg $ seed_arg $ trace_arg $ audit_arg
      $ portfolio_arg $ budget_ms_arg $ quality_arg)

let delay_cmd =
  let doc = "run the ERUF/EPUF delay-management sweep for a Table 1 circuit" in
  let circuit =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc:"Circuit name.")
  in
  Cmd.v (Cmd.info "delay" ~doc) Term.(const delay_run $ circuit)

let report_run name scale fmt_kind =
  match spec_of_name name scale with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (spec, lib) -> (
      match C.synthesize spec lib with
      | Error msg ->
          prerr_endline msg;
          1
      | Ok r ->
          (match fmt_kind with
          | "dot" ->
              print_string
                (Crusade_alloc.Export.to_dot ~title:name r.C.clustering
                   ~t_arch:r.C.arch)
          | "gantt" ->
              print_string
                (Crusade_sched.Gantt.render spec r.C.clustering r.C.arch r.C.schedule)
          | "program" ->
              List.iter
                (Format.printf "%a@." Crusade_reconfig.Program.pp)
                (Crusade_reconfig.Program.extract spec r.C.clustering r.C.arch
                   r.C.schedule)
          | "inventory" -> print_string (Crusade_alloc.Export.inventory r.C.arch)
          | other -> Printf.eprintf "unknown format %s\n" other);
          0)

(* The base is synthesized without the upgrade graphs, then the feature
   release arrives as a [Resynth] field-upgrade change. *)
let upgrade_run audit =
  let lib = Crusade_resource.Library.small () in
  let spec, upgrade_graphs = Ex.upgrade_scenario lib in
  match
    Result.bind
      (C.synthesize
         ~include_graph:(fun g -> not (List.mem g upgrade_graphs))
         spec lib)
      (fun base -> C.Resynth.apply base (C.Resynth.Upgrade upgrade_graphs))
  with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok rep ->
      let base = rep.C.Resynth.deployed in
      Format.printf "deployed: %a@." C.pp_report base;
      Format.printf "%a@." C.Resynth.pp_report rep;
      let base_exit =
        match rep.C.Resynth.verdict with
        | C.Resynth.Images_only _ | C.Resynth.Needs_hardware _ -> 0
        | C.Resynth.Infeasible -> 2
      in
      audit_exit ~audit
        (if audit then
           C.audit
             ~include_graph:
               (C.Resynth.expected_graphs base (C.Resynth.Upgrade []))
             base
           @ C.Resynth.audit_report rep
         else [])
        base_exit

(* ---- resynth: warm re-synthesis under a change event ---- *)

(* Minimal JSON reader for --change-json: objects, arrays of ints,
   strings and integers — the full shape of a change event, e.g.
   {"kind": "pe-fail", "pe": 0} or {"kind": "arrival", "graphs": [2,3]}. *)
let parse_change_json s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = Error (Printf.sprintf "--change-json: %s at offset %d" msg !pos) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then begin incr pos; Ok () end
    else Error (Printf.sprintf "--change-json: expected '%c' at offset %d" c !pos)
  in
  let parse_string () =
    skip_ws ();
    match expect '"' with
    | Error _ as e -> e
    | Ok () ->
        let start = !pos in
        while !pos < n && s.[!pos] <> '"' do incr pos done;
        if !pos >= n then error "unterminated string"
        else begin
          let v = String.sub s start (!pos - start) in
          incr pos;
          Ok v
        end
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if !pos < n && (s.[!pos] = '-' || s.[!pos] = '+') then incr pos;
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Ok v
    | None -> error "expected an integer"
  in
  let parse_int_list () =
    match expect '[' with
    | Error _ as e -> e
    | Ok () ->
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin incr pos; Ok [] end
        else begin
          let rec elems acc =
            match parse_int () with
            | Error _ as e -> e
            | Ok v -> (
                skip_ws ();
                if !pos < n && s.[!pos] = ',' then begin incr pos; elems (v :: acc) end
                else
                  match expect ']' with
                  | Ok () -> Ok (List.rev (v :: acc))
                  | Error _ as e -> e)
          in
          elems []
        end
  in
  let kind = ref None and graphs = ref None and pe = ref None and percent = ref None in
  let rec members () =
    match parse_string () with
    | Error _ as e -> e
    | Ok key -> (
        match expect ':' with
        | Error _ as e -> e
        | Ok () -> (
            let field =
              match key with
              | "kind" -> Result.map (fun v -> kind := Some v) (parse_string ())
              | "graphs" -> Result.map (fun v -> graphs := Some v) (parse_int_list ())
              | "pe" -> Result.map (fun v -> pe := Some v) (parse_int ())
              | "percent" | "drift" -> Result.map (fun v -> percent := Some v) (parse_int ())
              | other -> Error (Printf.sprintf "--change-json: unknown key %S" other)
            in
            match field with
            | Error _ as e -> e
            | Ok () -> (
                skip_ws ();
                if !pos < n && s.[!pos] = ',' then begin incr pos; members () end
                else expect '}')))
  in
  match expect '{' with
  | Error _ as e -> e
  | Ok () -> (
      match members () with
      | Error _ as e -> e
      | Ok () -> (
          let need_graphs what k =
            match !graphs with
            | Some (_ :: _ as gs) -> Ok (k gs)
            | Some [] | None ->
                Error (Printf.sprintf "--change-json: %S needs \"graphs\"" what)
          in
          match !kind with
          | Some ("arrival" | "graph-arrival") ->
              need_graphs "arrival" (fun gs -> C.Resynth.Graph_arrival gs)
          | Some ("departure" | "graph-departure") ->
              need_graphs "departure" (fun gs -> C.Resynth.Graph_departure gs)
          | Some "upgrade" -> need_graphs "upgrade" (fun gs -> C.Resynth.Upgrade gs)
          | Some ("pe-fail" | "pe-failure") -> (
              match !pe with
              | Some p -> Ok (C.Resynth.Pe_failure p)
              | None -> Error "--change-json: \"pe-fail\" needs \"pe\"")
          | Some "drift" -> (
              match !percent with
              | Some p -> Ok (C.Resynth.Exec_drift p)
              | None -> Error "--change-json: \"drift\" needs \"percent\"")
          | Some other -> Error (Printf.sprintf "--change-json: unknown kind %S" other)
          | None -> Error "--change-json: missing \"kind\""))

let change_of_flags ~change_kind ~graphs ~pe ~drift_pct ~change_json =
  match change_json with
  | Some s -> parse_change_json s
  | None -> (
      let need_graphs what k =
        match graphs with
        | Some (_ :: _ as gs) -> Ok (k gs)
        | Some [] | None ->
            Error (Printf.sprintf "--change %s needs --graphs" what)
      in
      match change_kind with
      | None -> Error "resynth needs --change (or --change-json)"
      | Some `Arrival -> need_graphs "arrival" (fun gs -> C.Resynth.Graph_arrival gs)
      | Some `Departure ->
          need_graphs "departure" (fun gs -> C.Resynth.Graph_departure gs)
      | Some `Upgrade -> need_graphs "upgrade" (fun gs -> C.Resynth.Upgrade gs)
      | Some `Pe_fail -> (
          match pe with
          | Some p -> Ok (C.Resynth.Pe_failure p)
          | None -> Error "--change pe-fail needs --pe")
      | Some `Drift -> (
          match drift_pct with
          | Some p -> Ok (C.Resynth.Exec_drift p)
          | None -> Error "--change drift needs --drift-pct"))

(* The from-scratch synthesis the warm repair is measured against: the
   same post-change workload, no deployed architecture. *)
let scratch_of_change options spec lib change =
  match change with
  | C.Resynth.Graph_arrival _ | C.Resynth.Upgrade _ | C.Resynth.Pe_failure _ ->
      C.synthesize ~options spec lib
  | C.Resynth.Graph_departure gs ->
      C.synthesize ~options ~include_graph:(fun g -> not (List.mem g gs)) spec lib
  | C.Resynth.Exec_drift pct -> (
      match C.Resynth.drift_spec spec pct with
      | Ok spec' -> C.synthesize ~options spec' lib
      | Error _ as e -> e)

let resynth_run name scale change_kind graphs pe drift_pct change_json
    no_reconfig no_incremental copy_cap eval_window seed trace_file audit
    compare =
  match change_of_flags ~change_kind ~graphs ~pe ~drift_pct ~change_json with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok change -> (
      match spec_of_name ?seed name scale with
      | Error msg ->
          prerr_endline msg;
          1
      | Ok (spec, lib) ->
          with_trace trace_file (fun trace ->
              let options =
                options_with ~no_reconfig ~no_incremental ~copy_cap
                  ~eval_window ~trace
              in
              (* Arrivals/upgrades are deployed without the arriving
                 graphs; every other change starts from the full system. *)
              let deployed_include =
                match change with
                | C.Resynth.Graph_arrival gs | C.Resynth.Upgrade gs ->
                    fun g -> not (List.mem g gs)
                | C.Resynth.Graph_departure _ | C.Resynth.Pe_failure _
                | C.Resynth.Exec_drift _ ->
                    fun _ -> true
              in
              match
                C.synthesize ~options ~include_graph:deployed_include spec lib
              with
              | Error msg ->
                  prerr_endline ("deployed synthesis: " ^ msg);
                  1
              | Ok deployed -> (
                  match C.Resynth.apply ~options deployed change with
                  | Error msg ->
                      prerr_endline msg;
                      1
                  | Ok rep ->
                      Format.printf "deployed     : cost $%s, %d PEs@."
                        (Crusade_util.Text_table.fmt_dollars deployed.C.cost)
                        deployed.C.n_pes;
                      Format.printf "%a@." C.Resynth.pp_report rep;
                      if compare then begin
                        match scratch_of_change options spec lib change with
                        | Ok scratch ->
                            let resynth_feasible =
                              C.Resynth.final_result rep <> None
                            in
                            Format.printf
                              "from scratch : %.2f s, cost $%s, deadlines %s \
                               (warm resynth %.2f s, verdicts %s)@."
                              scratch.C.wall_seconds
                              (Crusade_util.Text_table.fmt_dollars
                                 scratch.C.cost)
                              (if scratch.C.deadlines_met then "met"
                               else "missed")
                              rep.C.Resynth.resynth_seconds
                              (if
                                 resynth_feasible = scratch.C.deadlines_met
                               then "match"
                               else "DIFFER")
                        | Error msg ->
                            Format.printf "from scratch : failed (%s)@." msg
                      end;
                      let base =
                        match rep.C.Resynth.verdict with
                        | C.Resynth.Images_only _ | C.Resynth.Needs_hardware _
                          ->
                            0
                        | C.Resynth.Infeasible -> 2
                      in
                      audit_exit ~audit
                        (if audit then C.Resynth.audit_report rep else [])
                        base)))

let report_cmd =
  let doc = "synthesize and export (dot | gantt | program | inventory)" in
  let fmt_arg =
    Arg.(value & opt string "inventory" & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output format.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const report_run $ name_arg $ scale_arg $ fmt_arg)

let upgrade_cmd =
  let doc = "run the field-upgrade analysis on the built-in scenario" in
  Cmd.v (Cmd.info "upgrade" ~doc) Term.(const upgrade_run $ audit_arg)

let change_kind_arg =
  let doc =
    "Change event kind: $(b,arrival), $(b,departure), $(b,pe-fail), \
     $(b,drift) or $(b,upgrade)."
  in
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("arrival", `Arrival);
                ("graph-arrival", `Arrival);
                ("departure", `Departure);
                ("graph-departure", `Departure);
                ("pe-fail", `Pe_fail);
                ("pe-failure", `Pe_fail);
                ("drift", `Drift);
                ("upgrade", `Upgrade);
              ]))
        None
    & info [ "change" ] ~docv:"KIND" ~doc)

let graphs_arg =
  let doc = "Comma-separated graph ids for arrival/departure/upgrade changes." in
  Arg.(value & opt (some (list int)) None & info [ "graphs" ] ~docv:"IDS" ~doc)

let pe_arg =
  let doc = "Failed PE instance id for $(b,--change pe-fail)." in
  Arg.(
    value
    & opt (some (non_negative_int "--pe")) None
    & info [ "pe" ] ~docv:"N" ~doc)

let drift_pct_arg =
  let doc =
    "Execution-time drift percentage for $(b,--change drift) (e.g. 20 means \
     every measured execution time grew 20%)."
  in
  Arg.(value & opt (some int) None & info [ "drift-pct" ] ~docv:"PCT" ~doc)

let change_json_arg =
  let doc =
    "Change event as JSON, e.g. '{\"kind\": \"pe-fail\", \"pe\": 0}' or \
     '{\"kind\": \"arrival\", \"graphs\": [2,3]}'.  Overrides the individual \
     change flags."
  in
  Arg.(value & opt (some string) None & info [ "change-json" ] ~docv:"JSON" ~doc)

let compare_arg =
  let doc =
    "Also run a cold from-scratch synthesis of the post-change workload and \
     report whether the warm repair reached the same feasibility verdict, \
     and how the wall times compare."
  in
  Arg.(value & flag & info [ "compare" ] ~doc)

let resynth_cmd =
  let doc =
    "repair a deployed architecture under a change event instead of \
     re-synthesizing from scratch"
  in
  Cmd.v (Cmd.info "resynth" ~doc)
    Term.(
      const resynth_run $ name_arg $ scale_arg $ change_kind_arg $ graphs_arg
      $ pe_arg $ drift_pct_arg $ change_json_arg $ reconfig_arg
      $ no_incremental_arg $ copy_cap_arg $ eval_window_arg $ seed_arg
      $ trace_arg $ audit_arg $ compare_arg)

let spec_cmd =
  let doc =
    "print a workload's specification in the textual DSL (the format \
     $(b,crusade-serve) jobs are submitted in)"
  in
  Cmd.v (Cmd.info "spec" ~doc)
    Term.(const spec_run $ name_arg $ scale_arg $ seed_arg)

let list_cmd =
  let doc = "list available workloads and circuits" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_run $ const ())

let main =
  let doc = "hardware/software co-synthesis of dynamically reconfigurable systems" in
  Cmd.group (Cmd.info "crusade" ~version:"1.0.0" ~doc)
    [ synth_cmd; ft_cmd; delay_cmd; report_cmd; upgrade_cmd; resynth_cmd;
      spec_cmd; list_cmd ]

let () = exit (Cmd.eval' main)
