(* The benchmark's OCaml runner (see perfbench/README.md).

     pb.exe run WORKLOAD --seed N --seconds S --trace 0|1 --out DIR
            [--instances K] [--server EXE] [--hits N]
         one workload: cold-synth, ft-cascade and warm-repair run in
         process, serve-mix drives the server binary EXE over HTTP with
         N cache hits per pass; prints human-readable lines, then one
         JSON line of raw metrics
     pb.exe scan cold-synth|ft-cascade FROM TO
         replays per rebuild of each synthesis at generator-seed offsets
         (cold-synth) or HRXC generator seeds (ft-cascade) FROM..TO: how
         [clean_offsets] and [cascade_seeds] were found

   The generated instances and the seed are separate inputs.  Instance
   set 0 (the default) is the presets' own generator seeds, i.e. the
   bench/BASELINE.json rows; set K > 0 keeps the property each workload
   was chosen for (see [clean_offsets], [cascade_seeds] and
   Serve_mix.specs) and is there to re-check a claim on instances it
   was not made on.  The seed orders the operations, sizes the drift
   events of warm-repair and samples the probe; it never changes which
   instances are synthesized, so runs at different seeds time the same
   work. *)

open Bench
module C = Crusade.Crusade_core
module R = C.Resynth
module F = Crusade_fault.Ft
module Trace = Crusade_util.Trace
module Rng = Crusade_util.Rng
module Vec = Crusade_util.Vec
module Arch = Crusade_alloc.Arch
module Merge = Crusade_reconfig.Merge
module Spec = Crusade_taskgraph.Spec
module Json = Crusade_serve.Json

(* ---- inputs ---- *)

(* HRXC generator seeds whose FT synthesis without reconfiguration goes
   through a tardy cascade of the preset's depth: every seed of 16..250
   that meets its deadlines with 3.4 to 4.6 replays per rebuild (the
   preset, seed 15, has 3.57; the other seeds have 1.3-1.5 or a deeper
   cascade of 4.8-11), found by [pb.exe scan ft-cascade 16 250]. *)
let cascade_seeds = [| 26; 57; 69; 83; 92; 187; 202; 239 |]

(* Generator-seed offsets (multiples of 100) at which none of the eight
   presets goes through the cascade in cold-synth (every operation below
   2 replays per rebuild): 33 of the offsets 1..45, found by
   [pb.exe scan cold-synth 1 45]. *)
let clean_offsets =
  [| 1; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 19; 20; 21; 22; 24; 25; 26; 29; 30; 31;
     32; 34; 36; 37; 39; 40; 41; 42; 43; 44; 45 |]

(* Instance set k > 0 picks entry k - 1 of a table, cyclically. *)
let nth_cyclic table k =
  let n = Array.length table in
  table.((((k - 1) mod n) + n) mod n)

let cold_offset instances = if instances = 0 then 0 else nth_cyclic clean_offsets instances

let ft_gen_seed instances =
  if instances = 0 then (W.preset "HRXC").W.seed else nth_cyclic cascade_seeds instances

(* The cost of a bench/BASELINE.json row at scale 8 and jobs 1: instance
   set 0 must reproduce the table2 reconfig rows (cold-synth) and the table3
   HRXC plain row (ft-cascade) exactly. *)
let baseline_rows =
  lazy
    (match Json.parse (read_file (Filename.concat "bench" "BASELINE.json")) with
    | Ok j -> ( match Json.member "entries" j with Some (Json.Arr rows) -> rows | _ -> [])
    | Error msg -> failwith ("bench/BASELINE.json: " ^ msg))

let baseline_cost (table, variant) example =
  let is k v row = Json.member k row = Some v in
  List.find_opt
    (fun row ->
      is "table" (Json.Str table) row && is "variant" (Json.Str variant) row
      && is "example" (Json.Str example) row && is "scale" (Json.Num scale) row
      && is "jobs" (Json.Num 1.0) row)
    (Lazy.force baseline_rows)
  |> Fun.flip Option.bind (Json.member "cost")
  |> Fun.flip Option.bind Json.num

(* ---- operations ---- *)

type outcome = {
  label : string;
  latency : float;  (* seconds *)
  cost : float;  (* dollars of the design; 0 when infeasible *)
  feasible : bool;
  must_meet : bool;  (* a missed deadline fails the operation *)
  digest : string;  (* must be identical in every pass *)
  error : string option;
  stats : C.eval_stats option;
  merge : Merge.stats option;
  clusters : int;
  audit : unit -> int;  (* violations, checked outside the timed window *)
  result : C.result option;
  candidates : int * float;
      (* traced run: alloc.candidate spans of this operation, count and
         self seconds *)
}

type op = {
  kind : string;  (* the public function called, for the benchmark span *)
  name : string;
  run : Trace.t option -> float -> outcome;
      (* timed work; the returned closure describes it, untimed *)
}

let failed label latency msg =
  {
    label; latency; cost = 0.0; feasible = false; must_meet = false;
    digest = ""; error = Some msg; stats = None; merge = None; clusters = 0;
    audit = (fun () -> 0); result = None; candidates = (0, 0.0);
  }

let of_result ~must_meet label latency (r : C.result) ~cost ~digest ~audit =
  {
    label; latency; cost; feasible = r.C.deadlines_met; must_meet; digest;
    error = None; stats = Some r.C.eval_stats; merge = r.C.merge_stats;
    clusters = Array.length r.C.clustering.Crusade_cluster.Clustering.clusters;
    audit; result = Some r; candidates = (0, 0.0);
  }

let options ~reconfig trace =
  { C.default_options with C.dynamic_reconfiguration = reconfig; trace }

let synth_op name spec =
  {
    kind = "synthesize";
    name;
    run =
      (fun trace ->
        match C.synthesize ~options:(options ~reconfig:true trace) spec lib with
        | Error msg -> fun lat -> failed name lat msg
        | Ok r ->
            fun lat ->
              of_result ~must_meet:true name lat r ~cost:r.C.cost
                ~digest:(C.result_json r)
                ~audit:(fun () -> List.length (C.audit r)));
  }

let ft_op name spec =
  {
    kind = "ft.synthesize";
    name;
    run =
      (fun trace ->
        match F.synthesize ~options:(options ~reconfig:false trace) spec lib with
        | Error msg -> fun lat -> failed name lat msg
        | Ok fr ->
            fun lat ->
              of_result ~must_meet:true name lat fr.F.core ~cost:fr.F.total_cost
                ~digest:(Printf.sprintf "%s total %.17g" (C.result_json fr.F.core) fr.F.total_cost)
                ~audit:(fun () -> List.length (F.audit fr)));
  }

let verdict_name = function
  | R.Images_only _ -> "images-only"
  | R.Needs_hardware _ -> "needs-hardware"
  | R.Infeasible -> "infeasible"

let repair_op deployed change =
  let name = R.describe_change change in
  {
    kind = "resynth.apply";
    name;
    run =
      (fun trace ->
        match R.apply ~options:(options ~reconfig:true trace) deployed change with
        | Error msg -> fun lat -> failed name lat msg
        | Ok rep ->
            fun lat ->
              let audit () = List.length (R.audit_report rep) in
              let verdict = verdict_name rep.R.verdict in
              (* Repairs reuse the deployment's clustering. *)
              (match R.final_result rep with
              | Some r ->
                  { (of_result ~must_meet:false name lat r ~cost:r.C.cost
                       ~digest:(verdict ^ " " ^ C.result_json r) ~audit)
                    with clusters = 0 }
              | None ->
                  { (failed name lat "") with error = None; digest = verdict; audit }));
  }

(* ---- workloads ---- *)

type workload = {
  w_name : string;
  per_pass_op : bool;  (* the timed operation is a whole pass *)
  setup : seed:int -> instances:int -> int -> op list;
      (* [setup ~seed ~instances] does the set-up work and returns the
         maker of each pass's operations *)
  baseline : (string * string) option;
      (* table and variant of the bench/BASELINE.json rows whose costs
         instance set 0 reproduces, one per operation label *)
  probe : string option;  (* label of the result the probe runs on *)
}

(* Set-up generates the first pass's specs; every later pass builds new
   Spec.t values, because the scheduler's spec_static cache is keyed by
   spec identity and a CLI user never gets it warm. *)
let fresh_each_pass make =
  let first = ref (Some (make ())) in
  fun _pass ->
    match !first with
    | Some ops ->
        first := None;
        ops
    | None -> make ()

(* [k] elements of [xs] in the order of a seeded shuffle. *)
let sample rng k xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

let cold_ops ?(order = W.preset_names) offset =
  List.map (fun name -> synth_op name (generate name (gen_seed name offset))) order

(* The seed orders the presets; every pass runs them in that order. *)
let cold_synth =
  {
    w_name = "cold-synth";
    per_pass_op = true;
    setup =
      (fun ~seed ~instances ->
        let order = sample (Rng.create seed) (List.length W.preset_names) W.preset_names in
        fresh_each_pass (fun () -> cold_ops ~order (cold_offset instances)));
    baseline = Some ("table2", "reconfig");
    probe = Some "NGXM";
  }

let ft_cascade =
  {
    w_name = "ft-cascade";
    per_pass_op = true;
    setup =
      (fun ~seed:_ ~instances ->
        fresh_each_pass (fun () -> [ ft_op "HRXC" (generate "HRXC" (ft_gen_seed instances)) ]));
    baseline = Some ("table3", "plain");
    probe = Some "HRXC";
  }

(* Warm repair: HRXC (of cold-synth's instance set), deployed twice, in
   full and with [held_back] graphs excluded.  One pass applies every
   change kind against the deployments: arrival and upgrade of each
   held-back graph, departure of every graph and failure of every PE in
   use of the full deployment, and a slower and a faster execution-time
   drift.  Both deployments, and so every event, are the same at every
   seed: the held-back graphs are a fixed sample.  The seed picks only
   the drift percentages and the order of the stream, so the latency
   percentiles describe one system's events rather than the spread
   between generated instances. *)
let held_back = 4

let deploy ?include_graph spec =
  match C.synthesize ?include_graph spec lib with
  | Ok r when r.C.deadlines_met -> r
  | Ok _ -> failwith "warm-repair: deployment misses deadlines"
  | Error msg -> failwith ("warm-repair: deployment: " ^ msg)

let warm_repair =
  {
    w_name = "warm-repair";
    per_pass_op = false;
    setup =
      (fun ~seed ~instances ->
        let spec = generate "HRXC" (gen_seed "HRXC" (cold_offset instances)) in
        let graphs = List.init (Array.length spec.Spec.graphs) Fun.id in
        let held = sample (Rng.create 0) held_back graphs in
        let rng = Rng.create seed in
        let full = deploy spec in
        let partial = deploy ~include_graph:(fun g -> not (List.mem g held)) spec in
        let in_use =
          Vec.fold (fun l (pe : Arch.pe_inst) -> if Arch.pe_in_use pe then pe.Arch.p_id :: l else l)
            [] full.C.arch.Arch.pes
          |> List.rev
        in
        let drift () = 3 + Rng.int rng 5 in
        let stream =
          List.concat_map (fun g -> [ (partial, R.Graph_arrival [ g ]); (partial, R.Upgrade [ g ]) ]) held
          @ List.map (fun g -> (full, R.Graph_departure [ g ])) graphs
          @ List.map (fun p -> (full, R.Pe_failure p)) in_use
          @ [ (full, R.Exec_drift (drift ())); (full, R.Exec_drift (-drift ())) ]
        in
        let stream = sample rng (List.length stream) stream in
        fun _pass -> List.map (fun (deployed, change) -> repair_op deployed change) stream);
    baseline = None;
    probe = None;
  }

let workloads = [ cold_synth; ft_cascade; warm_repair ]

(* ---- running ---- *)

let next_op = ref 0

let exec ?ledger op =
  let id = !next_op in
  incr next_op;
  let span name f =
    match ledger with
    | Some l -> Ledger.span l ~op:id ~parent:"bench.pass" name f
    | None -> f ()
  in
  let candidates () =
    match ledger with
    | Some l -> (Ledger.count l "alloc.candidate", Ledger.self_s l "alloc.candidate")
    | None -> (0, 0.0)
  in
  let n0, s0 = candidates () in
  let trace = Option.map (fun l -> l.Ledger.sink) ledger in
  let t0 = now () in
  let o =
    match span ("bench." ^ op.kind) (fun () -> op.run trace) with
    | describe -> (
        let lat = now () -. t0 in
        try span "bench.describe" (fun () -> describe lat)
        with e -> failed op.name lat (Printexc.to_string e))
    | exception e -> failed op.name (now () -. t0) (Printexc.to_string e)
  in
  let n1, s1 = candidates () in
  { o with candidates = (n1 - n0, s1 -. s0) }

let run_pass ?ledger make pass =
  let ops =
    match ledger with
    | Some l -> Ledger.span l ~op:(-1) ~parent:"bench.pass" "bench.generate" (fun () -> make pass)
    | None -> make pass
  in
  List.map (exec ?ledger) ops

type check = { mutable attempted : int; mutable failures : (string * string) list }

(* Correctness of every pass against the first one, audits of the
   first pass, and the costs of instance set 0; an operation fails at
   most once.  Runs outside the timed window. *)
let check w ~instances passes =
  let c = { attempted = 0; failures = [] } in
  let audit_s = ref 0.0 in
  let baseline = if instances = 0 then w.baseline else None in
  let first = List.hd passes in
  let problem k o o1 =
    match o.error with
    | Some msg -> Some msg
    | None when o.must_meet && not o.feasible -> Some "missed deadlines"
    | None when o.digest <> o1.digest ->
        Some (Printf.sprintf "pass %d result differs from pass 1" (k + 1))
    | None when k > 0 -> None
    | None -> (
        let t0 = now () in
        let v = o.audit () in
        audit_s := !audit_s +. (now () -. t0);
        if v > 0 then Some (Printf.sprintf "%d audit violation(s)" v)
        else
          match Option.map (fun row -> baseline_cost row o.label) baseline with
          | None -> None
          | Some None -> Some "no bench/BASELINE.json row"
          | Some (Some e) when Float.abs (o.cost -. e) > 0.0005 ->
              Some (Printf.sprintf "cost %.3f, baseline %.3f" o.cost e)
          | Some (Some _) -> None)
  in
  List.iteri
    (fun k pass ->
      List.iter2
        (fun o o1 ->
          c.attempted <- c.attempted + 1;
          Option.iter (fun why -> c.failures <- (o.label, why) :: c.failures) (problem k o o1))
        pass first)
    passes;
  (c, !audit_s)

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

let stat f o = match o.stats with Some s -> f s | None -> 0

let replays_per_rebuild pass =
  let rp = sumi (stat (fun s -> s.C.replays)) pass in
  let rb = sumi (stat (fun s -> s.C.rebuilds)) pass in
  ratio (float_of_int rp) (float_of_int rb)

(* Wall seconds of synthesize on NGXM at jobs 2 over jobs 1 (fresh
   specs each time); the two results must be identical. *)
let jobs2_ratio instances =
  let once jobs =
    let spec = generate "NGXM" (gen_seed "NGXM" (cold_offset instances)) in
    let t0 = now () in
    match C.synthesize ~options:{ C.default_options with C.jobs } spec lib with
    | Ok r -> (now () -. t0, C.result_json r)
    | Error msg -> failwith ("jobs2: " ^ msg)
  in
  let t1, j1 = once 1 in
  let t2, j2 = once 2 in
  (t2 /. t1, j1 = j2)

(* Median latency per change kind ("PE 3 failure" -> "PE failure"). *)
let per_kind passes =
  let kind label =
    String.split_on_char ' ' label
    |> List.filter (fun w -> w <> "" && not (String.exists (fun c -> c >= '0' && c <= '9') w))
    |> String.concat " "
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (List.iter (fun o ->
         let k = kind o.label in
         Hashtbl.replace groups k (o.latency :: Option.value (Hashtbl.find_opt groups k) ~default:[])))
    passes;
  Hashtbl.fold (fun k l acc -> (k, l) :: acc) groups []
  |> List.sort compare
  |> List.map (fun (k, l) -> Printf.sprintf "%s %d x %.1f ms" k (List.length l) (1000.0 *. median l))
  |> String.concat ", "

let layer_metrics (l : Ledger.t) pass ~audit_s =
  let s name = Ledger.total_s l name and n name = float_of_int (Ledger.count l name) in
  let st f = float_of_int (sumi (stat f) pass) in
  let tried = float_of_int (sumi (fun o -> match o.merge with Some m -> m.Merge.merges_tried | None -> 0) pass) in
  let accepted =
    float_of_int (sumi (fun o -> match o.merge with Some m -> m.Merge.merges_accepted | None -> 0) pass)
  in
  let hits = st (fun s -> s.C.memo_hits) and misses = st (fun s -> s.C.memo_misses) in
  let bypassed = st (fun s -> s.C.memo_bypassed) in
  [
    ("cluster.run_s", s "clustering");
    ("cluster.clusters", float_of_int (sumi (fun o -> o.clusters) pass));
    ("alloc.candidates", n "alloc.candidate");
    ("alloc.candidates_per_cluster", ratio (n "alloc.candidate") (n "alloc.cluster"));
    ("alloc.candidate_self_s", Ledger.self_s l "alloc.candidate");
    ("alloc.cluster_self_s", Ledger.self_s l "alloc.cluster");
    ("alloc.rollbacks", st (fun s -> s.C.rollbacks));
    ("alloc.audit_s", audit_s);
    ("sched.run_s", s "schedule.run");
    ("sched.rebuilds", st (fun s -> s.C.rebuilds));
    ("sched.replays", st (fun s -> s.C.replays));
    ("sched.replays_per_rebuild", replays_per_rebuild pass);
    ("sched.estimate_s", s "schedule.estimate");
    ("sched.estimates", n "schedule.estimate");
    ("sched.pruned", st (fun s -> s.C.pruned));
    ("sched.prune_yield", ratio (st (fun s -> s.C.pruned)) (n "schedule.estimate"));
    ("sched.memo_hits", hits);
    ("sched.memo_misses", misses);
    ("sched.memo_bypassed", bypassed);
    ("sched.memo_hit_ratio", ratio hits (hits +. misses +. bypassed));
    ("reconfig.merge_s", s "merge");
    ("reconfig.merge_trials", tried);
    ("reconfig.merge_accept_ratio", ratio accepted tried);
    ("reconfig.merge_replays", st (fun s -> s.C.merge_replays));
    ("reconfig.merge_rebuilds", st (fun s -> s.C.merge_rebuilds));
    ("reconfig.interface_s", s "interface");
    ("core.synthesize_s", s "synthesize");
    ("core.allocation_s", s "allocation");
    ("core.repair_s", s "repair");
    ("core.repair_attempts", n "repair.attempt");
    ("core.resynth_s", s "resynth.attempt");
    ("fault.transform_s", s "ft.transform");
    ("fault.provision_s", s "ft.provision");
  ]

(* The probe's per-call times, and how far their sum per candidate of
   the probed synthesis is from that synthesis's own self time per
   candidate: every candidate is applied and rolled back, only the ones
   that reach stage 2 are prepared and replayed.  The probe runs on the
   final architecture, so the distance is the probe's error as much as
   any work of the loop it does not see. *)
let probe_metrics (p : Probe.t) (o : outcome) =
  let count, self_s = o.candidates in
  let cands = float_of_int count in
  let replay_share = ratio (float_of_int (stat (fun s -> s.C.replays) o)) cands in
  let self_us = ratio (self_s *. 1e6) cands in
  let probed_us =
    p.Probe.apply_us +. p.Probe.rollback_us +. (replay_share *. (p.Probe.prepare_us +. p.Probe.replay_us))
  in
  Printf.printf "  probe: %.0f us per candidate of %.0f us candidate self time (%.2fx)\n" probed_us
    self_us (ratio probed_us self_us);
  [
    ("alloc.enumerate_us", p.Probe.enumerate_us);
    ("alloc.apply_us", p.Probe.apply_us);
    ("alloc.rollback_us", p.Probe.rollback_us);
    ("sched.prepare_us", p.Probe.prepare_us);
    ("sched.replay_us", p.Probe.replay_us);
    ("sched.run_us", p.Probe.run_us);
    ("sched.estimate_us", p.Probe.estimate_us);
    ("sched.record_only_us", p.Probe.record_only_us);
    ("alloc.probe_error_ratio", ratio (Float.abs (probed_us -. self_us)) self_us);
  ]

let print_ledger (l : Ledger.t) ~wall =
  Printf.printf "ledger (traced pass %.3f s; span, count, total s, self s, self share):\n" wall;
  List.iter
    (fun (name, count, total, self) ->
      Printf.printf "  %-24s %7d %10.4f %10.4f %6.1f%%\n" name count total self
        (100.0 *. self /. wall))
    (Ledger.rows l)

let run_workload w ~seed ~instances ~seconds ~trace ~out =
  let setup_s, setups, make = repeat_setup ~dispose:ignore (fun () -> w.setup ~seed ~instances) in
  let setup_generate_s = !generate_s in
  if not trace then begin
    let before = machine_ms () in
    let t0 = now () and passes = ref [] and rss = ref nan in
    while List.length !passes < min_passes || now () -. t0 < seconds do
      let pass = run_pass make (List.length !passes) in
      passes := pass :: !passes;
      if Float.is_nan !rss then rss := vm_hwm_mb "self"
    done;
    let wall = now () -. t0 in
    let after = machine_ms () in
    let passes = List.rev !passes in
    let c, _ = check w ~instances passes in
    let first = List.hd passes in
    let latencies =
      if w.per_pass_op then List.map (sum (fun o -> o.latency)) passes
      else List.concat_map (List.map (fun o -> o.latency)) passes
    in
    let ms q = 1000.0 *. quantile latencies q in
    let cost = sum (fun o -> o.cost) first in
    let feasible = List.length (List.filter (fun o -> o.feasible) first) in
    let deepest =
      List.fold_left (fun m o -> Float.max m (replays_per_rebuild [ o ])) 0.0 first
    in
    Printf.printf "%s seed %d instances %d: %d passes in %.1f s, %d operations, %d failed\n"
      w.w_name seed instances (List.length passes) wall c.attempted (List.length c.failures);
    Printf.printf "  machine check %.1f ms before, %.1f ms after\n" before after;
    Printf.printf "  sched.replays_per_rebuild %.3f (pass 1; deepest operation %.3f)\n"
      (replays_per_rebuild first) deepest;
    Printf.printf "  setup_s %.4f s (median of %d set-ups)\n" setup_s setups;
    if w.per_pass_op then
      Printf.printf "  synth_s %.4f s (median of %d passes), cost_usd %.2f\n" (ms 0.5 /. 1000.0)
        (List.length passes) cost
    else
      Printf.printf
        "  repair_p50_ms %.3f ms, repair_p90_ms %.3f ms (%d events), repairs_feasible %d, \
         cost_usd %.2f\n  %s\n"
        (ms 0.5) (ms 0.9) (List.length latencies) feasible cost (per_kind passes);
    emit ~attempted:c.attempted ~failures:c.failures
      [
        ("setup_s", setup_s);
        ("op_p50_ms", ms 0.5);
        ("op_p90_ms", ms 0.9);
        ("cost_usd", cost);
        ("feasible_ops", float_of_int feasible);
        ("peak_rss_mb", !rss);
      ]
  end
  else begin
    let t0 = now () in
    let plain = run_pass make 0 in
    let plain_wall = now () -. t0 in
    let l = Ledger.create () in
    let t0 = now () in
    let traced = Ledger.span l ~op:(-1) ~parent:"" "bench.pass" (fun () -> run_pass ~ledger:l make 1) in
    let traced_wall = now () -. t0 in
    let c, audit_s = check w ~instances [ traced; plain ] in
    let probe =
      match w.probe with
      | None -> []
      | Some label -> (
          let o = List.find (fun o -> o.label = label) traced in
          match o.result with
          | None -> []
          | Some r ->
              let before = (Arch.cost r.C.arch, C.result_json r) in
              let p = Probe.run ~seed:(seed + 1) ~reconfig:(w.w_name <> "ft-cascade") r in
              if (Arch.cost r.C.arch, C.result_json r) <> before then
                c.failures <- (label, "probe changed the result") :: c.failures;
              probe_metrics p o)
    in
    let jobs2 =
      if w.w_name <> "cold-synth" then []
      else begin
        let r, same = jobs2_ratio instances in
        c.attempted <- c.attempted + 2;
        if not same then c.failures <- ("NGXM", "jobs 2 result differs from jobs 1") :: c.failures;
        [ ("core.jobs2_ratio", r) ]
      end
    in
    Ledger.write l (Filename.concat out ("trace-" ^ w.w_name ^ ".json"));
    print_ledger l ~wall:traced_wall;
    Printf.printf "%s seed %d instances %d traced: %d operations, %d failed\n" w.w_name seed
      instances c.attempted (List.length c.failures);
    emit ~attempted:c.attempted ~failures:c.failures
      (layer_metrics l traced ~audit_s
      @ probe @ jobs2
      @ [
          ("workloads.generate_s", setup_generate_s);
          ("util.trace_overhead", traced_wall /. plain_wall);
          ("util.span_coverage", Ledger.covered_s l ~root:"bench.pass" /. traced_wall);
        ])
  end

(* ---- cascade scans ---- *)

(* Replays per rebuild of each operation: the tardy cascade shows as 3.4
   and more, against 1.3-1.6 without it. *)
let print_depths what pass =
  Printf.printf "%s:%s; %d rebuilds + replays, %.2f s\n%!" what
    (String.concat ""
       (List.map
          (fun o ->
            Printf.sprintf " %s %.2f%s" o.label (replays_per_rebuild [ o ])
              (if o.feasible then "" else " (missed deadlines)"))
          pass))
    (sumi (stat (fun s -> s.C.rebuilds + s.C.replays)) pass)
    (sum (fun o -> o.latency) pass)

(* ft-cascade scans raw HRXC generator seeds; cold-synth scans offsets. *)
let scan w lo hi =
  for k = lo to hi do
    if w.w_name = "ft-cascade" then
      print_depths (Printf.sprintf "HRXC gen %d" k) [ exec (ft_op "HRXC" (generate "HRXC" k)) ]
    else print_depths (Printf.sprintf "offset %d" k) (List.map exec (cold_ops k))
  done

(* ---- command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag name default =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let int_flag name default =
    match int_of_string_opt (flag name (string_of_int default)) with
    | Some n -> n
    | None -> failwith (name ^ ": not an integer")
  in
  match args with
  | "run" :: name :: _ -> (
      let seed = int_flag "--seed" 0 and seconds = float_of_int (int_flag "--seconds" 10) in
      let instances = int_flag "--instances" 0 and trace = int_flag "--trace" 0 = 1 in
      match List.find_opt (fun w -> w.w_name = name) workloads with
      | Some w -> run_workload w ~seed ~instances ~seconds ~trace ~out:(flag "--out" ".")
      | None when name = "serve-mix" ->
          Serve_mix.run ~seed ~instances ~seconds ~trace
            ~binary:(flag "--server" "crusade_serve.exe")
            ~hits:(int_flag "--hits" Serve_mix.default_hits)
      | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2)
  | [ "scan"; name; lo; hi ] when List.exists (fun w -> w.w_name = name) workloads ->
      scan (List.find (fun w -> w.w_name = name) workloads) (int_of_string lo) (int_of_string hi)
  | _ ->
      prerr_endline "usage: pb.exe run|scan ... (see the head of perfbench/pb.ml)";
      exit 2
