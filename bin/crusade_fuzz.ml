(* crusade_fuzz — deterministic fuzz / differential harness.

   Seeds drive [Comm_system.generate] parameters; every seed is
   synthesized under the full evaluator-configuration matrix
   ({prune,memo} on/off x incremental rescheduling on/off x dynamic
   reconfiguration on/off) and the harness asserts that

   (a) within each reconfiguration flavor, every evaluator configuration
       produces a bit-identical result (cost, counts, verdict and the
       full schedule fingerprint);
   (b) the reference result passes the end-to-end audit
       ([Crusade_core.audit] / [Ft.audit]), which includes the
       independent schedule validation;
   (b') on the reconfiguration flavor, a portfolio axis: --portfolio 1
       reproduces the plain flow bit for bit, and at --portfolio 4 the
       winner passes the audit, is never worse than the unperturbed
       trajectory 0, and is identical with the shared incumbent bound
       on or off (so bound aborts provably never kill a would-be
       winner); the portfolio runs at --jobs N, spreading its
       trajectories over N domains;
   (b'') on the reconfiguration flavor, a serve axis: the spec pushed
       through the in-process job server (DSL text in, JSON result out)
       is byte-identical to [Core.result_json] of the direct flow, and
       an identical re-submission is served from the result cache with
       the same bytes;
   (c) on any failure, a minimized repro (seed + generator parameters +
       configuration + findings) is written as JSON and the exit status
       is nonzero.

   [--selftest] turns the harness on itself: it corrupts an accepted
   architecture with every [Audit.Mutate] kind (plus schedule-level
   tamperings) and asserts the auditor flags each one, and corrupts a
   live scheduler recording to prove a broken prefix replay would
   diverge from a fresh run — so the oracles are tested, not trusted. *)

module Core = Crusade.Crusade_core
module Ft = Crusade_fault.Ft
module Audit = Crusade_alloc.Audit
module Arch = Crusade_alloc.Arch
module Compat = Crusade_reconfig.Compat
module Schedule = Crusade_sched.Schedule
module Clustering = Crusade_cluster.Clustering
module Spec = Crusade_taskgraph.Spec
module W = Crusade_workloads.Comm_system
module Rng = Crusade_util.Rng
module Pool = Crusade_util.Pool

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type args = {
  mutable seed_lo : int;
  mutable seed_hi : int;
  mutable ft_every : int;
  mutable jobs_max : int;
  mutable out : string;
  mutable selftest : bool;
}

let usage () =
  prerr_endline
    "usage: crusade_fuzz [--seeds A..B] [--ft-every N] [--jobs N] [--out FILE] \
     [--selftest]";
  exit 2

let parse_args () =
  let a =
    {
      seed_lo = 1;
      seed_hi = 50;
      ft_every = 10;
      jobs_max = max 2 (Pool.default_jobs ());
      out = "fuzz-repro.json";
      selftest = false;
    }
  in
  let rec loop = function
    | [] -> ()
    | "--seeds" :: range :: rest -> (
        match String.index_opt range '.' with
        | Some i
          when i + 1 < String.length range
               && range.[i + 1] = '.'
               && i > 0
               && i + 2 < String.length range -> (
            match
              ( int_of_string_opt (String.sub range 0 i),
                int_of_string_opt
                  (String.sub range (i + 2) (String.length range - i - 2)) )
            with
            | Some lo, Some hi when lo <= hi ->
                a.seed_lo <- lo;
                a.seed_hi <- hi;
                loop rest
            | _ -> usage ())
        | _ -> usage ())
    | "--ft-every" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            a.ft_every <- n;
            loop rest
        | _ -> usage ())
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 1 ->
            a.jobs_max <- n;
            loop rest
        | _ -> usage ())
    | "--out" :: file :: rest ->
        a.out <- file;
        loop rest
    | "--selftest" :: rest ->
        a.selftest <- true;
        loop rest
    | _ -> usage ()
  in
  loop (List.tl (Array.to_list Sys.argv));
  a

(* ------------------------------------------------------------------ *)
(* Minimized JSON repros                                               *)

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

let json_string s = Printf.sprintf "\"%s\"" (json_escape s)

let json_list items = "[" ^ String.concat ", " items ^ "]"

let json_params (p : W.params) =
  Printf.sprintf
    "{\"name\": %s, \"n_tasks\": %d, \"seed\": %d, \"hw_fraction\": %.17g, \
     \"family_slots\": %d, \"asic_fraction\": %.17g, \"cpld_fraction\": %.17g}"
    (json_string p.W.name) p.W.n_tasks p.W.seed p.W.hw_fraction p.W.family_slots
    p.W.asic_fraction p.W.cpld_fraction

type config = {
  reconfig : bool;
  prune : bool;
  memo : bool;
  inc : bool;  (* incremental rescheduling *)
  jobs : int;
}

let json_config c =
  Printf.sprintf
    "{\"reconfig\": %b, \"prune\": %b, \"memo\": %b, \"incremental\": %b, \
     \"jobs\": %d}"
    c.reconfig c.prune c.memo c.inc c.jobs

let describe_config c =
  Printf.sprintf
    "reconfig=%b prune=%b memo=%b incremental=%b jobs=%d"
    c.reconfig c.prune c.memo c.inc c.jobs

(* One failure is enough: the repro is minimized by construction (a
   single seed, its generator parameters and the offending
   configuration reproduce it deterministically). *)
let fail ~out ~kind ?seed ?params ?config details =
  let fields =
    [ ("schema", json_string "crusade-fuzz-repro-1"); ("kind", json_string kind) ]
    @ (match seed with Some s -> [ ("seed", string_of_int s) ] | None -> [])
    @ (match params with Some p -> [ ("params", json_params p) ] | None -> [])
    @ (match config with Some c -> [ ("config", json_config c) ] | None -> [])
    @ [ ("details", json_list (List.map json_string details)) ]
  in
  let json =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
    ^ "}\n"
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.eprintf "FAIL [%s]%s\n" kind
    (match seed with Some s -> Printf.sprintf " seed %d" s | None -> "");
  List.iter (fun d -> Printf.eprintf "  %s\n" d) details;
  Printf.eprintf "repro written to %s\n%!" out;
  exit 1

(* ------------------------------------------------------------------ *)
(* Differential synthesis                                              *)

let lib = Crusade_resource.Library.stock ()

let params_of_seed seed =
  let rng = Rng.create (0x5EED0 + seed) in
  {
    W.name = Printf.sprintf "fuzz-%d" seed;
    n_tasks = Rng.int_in rng 24 64;
    seed;
    hw_fraction = 0.3 +. Rng.float rng 0.4;
    family_slots = Rng.int_in rng 2 4;
    asic_fraction = Rng.float rng 0.2;
    cpld_fraction = Rng.float rng 0.2;
  }

let configs_of reconfig =
  [
    { reconfig; prune = true; memo = true; inc = true; jobs = 1 };
    { reconfig; prune = false; memo = false; inc = true; jobs = 1 };
    { reconfig; prune = true; memo = true; inc = false; jobs = 1 };
    { reconfig; prune = false; memo = false; inc = false; jobs = 1 };
  ]

let flavors = [ true; false ]

let options_of (c : config) =
  {
    Core.default_options with
    Core.dynamic_reconfiguration = c.reconfig;
    prune = c.prune;
    memo = c.memo;
    incremental = c.inc;
    jobs = c.jobs;
  }

let schedule_fingerprint (s : Schedule.t) =
  Array.fold_left
    (fun h (i : Schedule.instance) ->
      Hashtbl.hash
        (h, i.Schedule.i_task, i.Schedule.i_copy, i.Schedule.start, i.Schedule.finish))
    0 s.Schedule.instances

let signature_of (r : Core.result) =
  Printf.sprintf
    "cost=%h n_pes=%d n_links=%d n_modes=%d deadlines_met=%b tardiness=%d \
     schedule=%08x"
    r.Core.cost r.Core.n_pes r.Core.n_links r.Core.n_modes r.Core.deadlines_met
    r.Core.schedule.Schedule.total_tardiness
    (schedule_fingerprint r.Core.schedule)

let violation_strings vs =
  List.map (fun (v : Audit.violation) -> Printf.sprintf "[%s] %s" v.Audit.rule v.Audit.detail) vs

(* Portfolio axis (reconfig flavor only, to bound the per-seed cost):
   --portfolio 1 must be the plain flow bit for bit; at --portfolio 4
   the winner must pass the end-to-end audit, must never be worse than
   trajectory 0 (the unperturbed baseline), and must be the same with
   the incumbent bound on or off — the differential oracle that a bound
   abort never killed a trajectory that would have won. *)
let portfolio_checks ~out ~jobs_max ~seed ~params ~spec ~ref_sig reconfig =
  let config jobs = { reconfig; prune = true; memo = true; inc = true; jobs } in
  let flow o = Core.synthesize ~options:o spec lib in
  let cost (r : Core.result) = r.Core.cost in
  let met (r : Core.result) = r.Core.deadlines_met in
  (match
     Core.Portfolio.run ~n:1 ~options:(options_of (config 1)) ~flow ~cost ~met
       ()
   with
  | Error msg ->
      fail ~out ~kind:"portfolio-error" ~seed ~params ~config:(config 1) [ msg ]
  | Ok o ->
      let s = signature_of o.Core.Portfolio.best in
      if s <> ref_sig then
        fail ~out ~kind:"portfolio-passthrough-mismatch" ~seed ~params
          ~config:(config 1)
          [
            Printf.sprintf "plain flow:    %s" ref_sig;
            Printf.sprintf "portfolio 1:   %s" s;
          ]);
  let pf_config = config jobs_max in
  let run_4 use_bound =
    match
      Core.Portfolio.run ~n:4 ~use_bound ~options:(options_of pf_config) ~flow
        ~cost ~met ()
    with
    | Error msg ->
        fail ~out ~kind:"portfolio-error" ~seed ~params ~config:pf_config [ msg ]
    | Ok o -> o
  in
  let on = run_4 true in
  let off = run_4 false in
  let key (o : Core.result Core.Portfolio.outcome) =
    ( o.Core.Portfolio.best_index,
      signature_of o.Core.Portfolio.best )
  in
  if key on <> key off then
    fail ~out ~kind:"portfolio-bound-mismatch" ~seed ~params ~config:pf_config
      [
        Printf.sprintf "bound on:  trajectory %d, %s" on.Core.Portfolio.best_index
          (signature_of on.Core.Portfolio.best);
        Printf.sprintf "bound off: trajectory %d, %s"
          off.Core.Portfolio.best_index
          (signature_of off.Core.Portfolio.best);
      ];
  (match on.Core.Portfolio.trajectories.(0) with
  | Core.Portfolio.Completed { t_cost; t_met } ->
      (* The winner may only beat trajectory 0 (feasibility first, then
         cost); it can exceed its cost only by fixing a deadline miss. *)
      let best_met = on.Core.Portfolio.best_met in
      if (t_met && not best_met)
         || (t_met = best_met && on.Core.Portfolio.best_cost > t_cost)
      then
        fail ~out ~kind:"portfolio-worse-than-baseline" ~seed ~params
          ~config:pf_config
          [
            Printf.sprintf "trajectory 0: cost=%h met=%b" t_cost t_met;
            Printf.sprintf "winner (%d):  cost=%h met=%b"
              on.Core.Portfolio.best_index on.Core.Portfolio.best_cost best_met;
          ]
  | Core.Portfolio.Failed msg ->
      fail ~out ~kind:"portfolio-baseline-failed" ~seed ~params ~config:pf_config
        [ msg ]
  | Core.Portfolio.Aborted _ ->
      fail ~out ~kind:"portfolio-baseline-aborted" ~seed ~params
        ~config:pf_config
        [ "trajectory 0 is exempt from bound and budget; it cannot abort" ]);
  match Core.audit on.Core.Portfolio.best with
  | [] -> ()
  | vs ->
      fail ~out ~kind:"portfolio-audit-violation" ~seed ~params ~config:pf_config
        (violation_strings vs)

(* Resynth axis (reconfig flavor only, to bound the per-seed cost): take
   the already-synthesized reference as the deployed system, apply a
   change event with [Core.Resynth], and assert that (a) the repaired
   architecture audits clean and (b) the warm repair reaches the same
   feasibility verdict as synthesizing the post-change workload from
   scratch.  Costs may legitimately differ — the repair is constrained
   by the deployed placement — so the oracle is the verdict, not the
   signature.  The change kind rotates with the seed so a seed range
   covers the whole matrix. *)
let resynth_checks ~out ~seed ~params ~spec ~options ~reference =
  let module R = Core.Resynth in
  let n_graphs = Array.length spec.Spec.graphs in
  let last = n_graphs - 1 in
  let kind, change =
    match if n_graphs < 2 then 2 else seed mod 4 with
    | 0 -> ("graph-arrival", R.Graph_arrival [ last ])
    | 1 -> ("upgrade", R.Upgrade [ last ])
    | 2 -> ("pe-fail", R.Pe_failure 0)
    | _ -> ("drift", R.Exec_drift 20)
  in
  let deployed =
    match change with
    | R.Graph_arrival gs | R.Upgrade gs -> (
        match
          Core.synthesize ~options
            ~include_graph:(fun g -> not (List.mem g gs))
            spec lib
        with
        | Ok r -> r
        | Error msg ->
            fail ~out
              ~kind:("resynth-" ^ kind ^ "-deploy-error")
              ~seed ~params [ msg ])
    | R.Graph_departure _ | R.Pe_failure _ | R.Exec_drift _ -> reference
  in
  let rep =
    match R.apply ~options deployed change with
    | Ok rep -> rep
    | Error msg ->
        fail ~out ~kind:("resynth-" ^ kind ^ "-error") ~seed ~params [ msg ]
  in
  (match R.audit_report rep with
  | [] -> ()
  | vs ->
      fail ~out
        ~kind:("resynth-" ^ kind ^ "-audit-violation")
        ~seed ~params (violation_strings vs));
  let scratch =
    match change with
    | R.Graph_arrival _ | R.Upgrade _ | R.Pe_failure _ ->
        Core.synthesize ~options spec lib
    | R.Graph_departure gs ->
        Core.synthesize ~options
          ~include_graph:(fun g -> not (List.mem g gs))
          spec lib
    | R.Exec_drift pct -> (
        match R.drift_spec spec pct with
        | Ok spec' -> Core.synthesize ~options spec' lib
        | Error _ as e -> e)
  in
  match scratch with
  | Error msg ->
      fail ~out ~kind:("resynth-" ^ kind ^ "-scratch-error") ~seed ~params [ msg ]
  | Ok s ->
      let warm = R.final_result rep <> None in
      if warm <> s.Core.deadlines_met then
        fail ~out
          ~kind:("resynth-" ^ kind ^ "-verdict-mismatch")
          ~seed ~params
          [
            Printf.sprintf "warm repair:  %s"
              (if warm then "feasible" else "infeasible");
            Printf.sprintf "from scratch: %s"
              (if s.Core.deadlines_met then "feasible" else "infeasible");
          ]

(* Serve axis (reconfig flavor only): the seed's spec DSL-printed and
   pushed through an in-process job server must produce exactly
   [Core.result_json] of the reference result — the whole
   parse/canonicalize/queue/pool/trace pipeline adds nothing and loses
   nothing — and an identical re-submission must be served from the
   result cache byte for byte, without a second synthesis. *)
module Serve = Crusade_serve.Server
module SHttp = Crusade_serve.Http
module SJson = Crusade_serve.Json

let serve_checks ~out ~seed ~params ~spec ~reference =
  let expected = Core.result_json reference in
  let server =
    Serve.create
      { Serve.max_in_flight = 1; queue_cap = 4; default_jobs = 1; lib;
        pre_run = None }
  in
  let call ?(body = "") meth path =
    Serve.handle server { SHttp.meth; path; query = []; headers = []; body }
  in
  let body =
    Printf.sprintf "{\"spec\":\"%s\"}"
      (SJson.escape (Crusade_taskgraph.Dsl.print spec))
  in
  let submit () =
    let resp = call ~body "POST" "/jobs" in
    if resp.SHttp.status <> 201 then
      fail ~out ~kind:"serve-submit-rejected" ~seed ~params [ resp.SHttp.body ];
    let field name =
      Option.bind
        (Result.to_option (SJson.parse resp.SHttp.body))
        (SJson.member name)
    in
    match field "id" with
    | Some (SJson.Str id) -> (id, field "cache_hit" = Some (SJson.Bool true))
    | _ -> fail ~out ~kind:"serve-no-id" ~seed ~params [ resp.SHttp.body ]
  in
  let wait_done id =
    let deadline = Unix.gettimeofday () +. 300. in
    let rec go () =
      let st = call "GET" ("/jobs/" ^ id) in
      let state =
        Option.bind
          (Option.bind
             (Result.to_option (SJson.parse st.SHttp.body))
             (SJson.member "state"))
          SJson.str
      in
      match state with
      | Some "done" -> ()
      | Some ("failed" | "cancelled") ->
          fail ~out ~kind:"serve-job-failed" ~seed ~params [ st.SHttp.body ]
      | _ ->
          if Unix.gettimeofday () > deadline then
            fail ~out ~kind:"serve-timeout" ~seed ~params [ st.SHttp.body ];
          Thread.yield ();
          go ()
    in
    go ()
  in
  let result_of id = (call "GET" ("/jobs/" ^ id ^ "/result")).SHttp.body in
  let id, hit = submit () in
  if hit then
    fail ~out ~kind:"serve-phantom-cache-hit" ~seed ~params
      [ "first submission claimed a cache hit" ];
  wait_done id;
  let fresh = result_of id in
  if fresh <> expected then
    fail ~out ~kind:"serve-result-mismatch" ~seed ~params
      [
        Printf.sprintf "direct flow: %s" expected;
        Printf.sprintf "via server:  %s" fresh;
      ];
  let id2, hit2 = submit () in
  if not hit2 then
    fail ~out ~kind:"serve-cache-miss" ~seed ~params
      [ "identical re-submission was not served from the cache" ];
  let cached = result_of id2 in
  if cached <> fresh then
    fail ~out ~kind:"serve-cache-divergence" ~seed ~params
      [
        Printf.sprintf "fresh run: %s" fresh;
        Printf.sprintf "cached:    %s" cached;
      ]

let run_seed ~out ~jobs_max ~with_ft seed =
  let params = params_of_seed seed in
  let spec = W.generate lib params in
  List.iter
    (fun reconfig ->
      let configs = configs_of reconfig in
      let results =
        List.map
          (fun c ->
            match Core.synthesize ~options:(options_of c) spec lib with
            | Ok r -> (c, r)
            | Error msg ->
                fail ~out ~kind:"synthesis-error" ~seed ~params ~config:c [ msg ])
          configs
      in
      let (ref_config, reference), others =
        match results with r :: rest -> (r, rest) | [] -> assert false
      in
      let ref_sig = signature_of reference in
      List.iter
        (fun (c, r) ->
          let s = signature_of r in
          if s <> ref_sig then
            fail ~out ~kind:"differential-mismatch" ~seed ~params ~config:c
              [
                Printf.sprintf "reference (%s): %s" (describe_config ref_config)
                  ref_sig;
                Printf.sprintf "divergent (%s): %s" (describe_config c) s;
              ])
        others;
      (match Core.audit reference with
      | [] -> ()
      | vs ->
          fail ~out ~kind:"audit-violation" ~seed ~params ~config:ref_config
            (violation_strings vs));
      if reconfig then begin
        portfolio_checks ~out ~jobs_max ~seed ~params ~spec ~ref_sig reconfig;
        resynth_checks ~out ~seed ~params ~spec
          ~options:(options_of ref_config) ~reference;
        serve_checks ~out ~seed ~params ~spec ~reference
      end)
    flavors;
  if with_ft then begin
    match Ft.synthesize ~options:Core.default_options spec lib with
    | Error msg ->
        fail ~out ~kind:"ft-synthesis-error" ~seed ~params [ msg ]
    | Ok fr -> (
        match Ft.audit fr with
        | [] -> ()
        | vs ->
            fail ~out ~kind:"ft-audit-violation" ~seed ~params
              (violation_strings vs))
  end

(* ------------------------------------------------------------------ *)
(* Auditor self-test: seeded corruption must always be caught          *)

(* Per-cluster activity intervals, used to steer the
   incompatible-sharing mutation toward cluster pairs that actually
   overlap in time (so the corruption is undetectable only if the
   auditor is broken). *)
let cluster_intervals (r : Core.result) =
  let n = Array.length r.Core.clustering.Clustering.clusters in
  let ivls = Array.make n [] in
  Array.iter
    (fun (i : Schedule.instance) ->
      if i.Schedule.finish > i.Schedule.start then begin
        let cid = r.Core.clustering.Clustering.of_task.(i.Schedule.i_task) in
        ivls.(cid) <- (i.Schedule.start, i.Schedule.finish) :: ivls.(cid)
      end)
    r.Core.schedule.Schedule.instances;
  ivls

let lists_overlap xs ys =
  List.exists (fun (s, f) -> List.exists (fun (s', f') -> s < f' && s' < f) ys) xs

let reported_of (r : Core.result) =
  {
    Audit.r_cost = r.Core.cost;
    r_n_pes = r.Core.n_pes;
    r_n_links = r.Core.n_links;
    r_n_modes = r.Core.n_modes;
  }

(* Outcome of one architecture mutation kind against one fixture. *)
let try_mutation (r : Core.result) kind =
  let m = Compat.matrix r.Core.spec r.Core.schedule in
  let ivls = cluster_intervals r in
  let overlaps c c' = lists_overlap ivls.(c) ivls.(c') in
  let arch = Arch.copy r.Core.arch in
  match
    Audit.Mutate.apply
      ~compat:(fun a b -> m.(a).(b))
      ~overlaps r.Core.spec r.Core.clustering arch (reported_of r) kind
  with
  | Error why -> `Inapplicable why
  | Ok rep ->
      let r' =
        {
          r with
          Core.arch;
          cost = rep.Audit.r_cost;
          n_pes = rep.Audit.r_n_pes;
          n_links = rep.Audit.r_n_links;
          n_modes = rep.Audit.r_n_modes;
        }
      in
      let vs = Core.audit r' in
      let expected = Audit.Mutate.expected_rule kind in
      if List.exists (fun (v : Audit.violation) -> v.Audit.rule = expected) vs then
        `Detected
      else `Missed (expected, vs)

(* Schedule-level tamperings, caught by the composed audit through the
   independent validator. *)
let schedule_mutations =
  [
    (* The victim must arrive strictly after time zero: the validator
       treats a negative start as "never scheduled", so rewinding an
       arrival-0 instance would hide it rather than violate the rule. *)
    ( "early-start",
      "arrival",
      (fun (i : Schedule.instance) -> i.Schedule.arrival > 0),
      fun (i : Schedule.instance) -> i.Schedule.start <- i.Schedule.arrival - 1 );
    ( "short-execution",
      "execution-time",
      (fun (_ : Schedule.instance) -> true),
      fun (i : Schedule.instance) -> i.Schedule.finish <- i.Schedule.start );
  ]

let try_schedule_mutation (r : Core.result) (name, expected, eligible, tamper) =
  let instances =
    Array.map
      (fun (i : Schedule.instance) ->
        {
          Schedule.i_task = i.Schedule.i_task;
          i_copy = i.Schedule.i_copy;
          arrival = i.Schedule.arrival;
          abs_deadline = i.Schedule.abs_deadline;
          start = i.Schedule.start;
          finish = i.Schedule.finish;
        })
      r.Core.schedule.Schedule.instances
  in
  let victim =
    Array.to_list instances
    |> List.find_opt (fun (i : Schedule.instance) ->
           i.Schedule.finish > i.Schedule.start && eligible i)
  in
  match victim with
  | None -> (name, `Inapplicable "no eligible executing instance")
  | Some i ->
      tamper i;
      let schedule = { r.Core.schedule with Schedule.instances = instances } in
      let vs = Core.audit { r with Core.schedule } in
      if List.exists (fun (v : Audit.violation) -> v.Audit.rule = expected) vs then
        (name, `Detected)
      else (name, `Missed (expected, vs))

let verdict_flip (r : Core.result) =
  let schedule =
    {
      r.Core.schedule with
      Schedule.deadlines_met = not r.Core.schedule.Schedule.deadlines_met;
    }
  in
  let vs = Core.audit { r with Core.schedule } in
  if
    List.exists
      (fun (v : Audit.violation) ->
        v.Audit.rule = "verdict" || v.Audit.rule = "verdict-consistency")
      vs
  then ("verdict-flip", `Detected)
  else ("verdict-flip", `Missed ("verdict", vs))

(* Replay-oracle self-test: corrupt a live recording and assert that a
   full-prefix replay against the unchanged architecture diverges from
   the fresh run.  Proves the differential check (fuzz axis
   incremental on/off) is able to fail — a replay bug that alters the
   schedule cannot hide behind an insensitive fingerprint. *)
let replay_corruption (r : Core.result) =
  let name = "replay-corruption" in
  let spec = r.Core.spec
  and clustering = r.Core.clustering
  and arch = r.Core.arch in
  match Schedule.Replay.record spec clustering arch with
  | Error why -> (name, `Inapplicable ("record failed: " ^ why))
  | Ok (fresh, recording) ->
      if not (Schedule.Replay.corrupt_for_selftest recording) then
        (name, `Inapplicable "recording has no steps to corrupt")
      else begin
        let prep = Schedule.Replay.prepare recording spec clustering arch in
        if Schedule.Replay.cut prep < Schedule.Replay.steps recording then
          ( name,
            `Missed
              ( "full-prefix replay",
                [
                  {
                    Audit.rule = "replay-cut";
                    detail =
                      Printf.sprintf
                        "identical architecture replays only %d of %d steps"
                        (Schedule.Replay.cut prep)
                        (Schedule.Replay.steps recording);
                  };
                ] ) )
        else begin
          match Schedule.Replay.replay_run prep with
          | Error _ ->
              (* Divergence surfaced as an outright failure: detected. *)
              (name, `Detected)
          | Ok replayed ->
              if schedule_fingerprint replayed <> schedule_fingerprint fresh
              then (name, `Detected)
              else
                ( name,
                  `Missed
                    ( "schedule-fingerprint divergence",
                      [
                        {
                          Audit.rule = "replay-fingerprint";
                          detail =
                            "corrupted recording replayed to the fresh run's \
                             schedule";
                        };
                      ] ) )
        end
      end

(* Merge-basis self-test: an in-place merge trial perturbs the
   architecture under a journal checkpoint and rolls back on rejection;
   the per-pass basis must then replay the full prefix bit-identically
   against the restored architecture — unless the basis itself is
   corrupted, which must surface as a diverging schedule.  Unlike
   [replay_corruption] (final step), this corrupts a step in the middle
   of the prefix, the region a warm merge basis actually adopts. *)
let merge_basis_corruption (r : Core.result) =
  let name = "merge-basis-corruption" in
  let spec = r.Core.spec
  and clustering = r.Core.clustering in
  let arch = Arch.copy r.Core.arch in
  match Schedule.Replay.record spec clustering arch with
  | Error why -> (name, `Inapplicable ("record failed: " ^ why))
  | Ok (fresh, recording) ->
      (* Journaled merge-style perturbation round-trip: unplace every
         cluster, then roll back, exactly as a rejected trial does. *)
      let ck = Arch.checkpoint arch in
      Array.iter
        (fun (c : Clustering.cluster) ->
          if Arch.site_of_cluster arch c.Clustering.cid <> None then
            Arch.unplace_cluster arch clustering c)
        clustering.Clustering.clusters;
      Arch.rollback arch ck;
      let steps = Schedule.Replay.steps recording in
      if steps < 2 then (name, `Inapplicable "recording too short")
      else if
        not (Schedule.Replay.corrupt_for_selftest ~step:(steps / 2) recording)
      then (name, `Inapplicable "corruption step out of range")
      else begin
        let prep = Schedule.Replay.prepare recording spec clustering arch in
        if Schedule.Replay.cut prep < steps then
          ( name,
            `Missed
              ( "full-prefix replay after rollback",
                [
                  {
                    Audit.rule = "merge-basis-cut";
                    detail =
                      Printf.sprintf
                        "rolled-back architecture replays only %d of %d steps"
                        (Schedule.Replay.cut prep) steps;
                  };
                ] ) )
        else begin
          match Schedule.Replay.replay_run prep with
          | Error _ -> (name, `Detected)
          | Ok replayed ->
              if schedule_fingerprint replayed <> schedule_fingerprint fresh
              then (name, `Detected)
              else
                ( name,
                  `Missed
                    ( "merge-basis fingerprint divergence",
                      [
                        {
                          Audit.rule = "merge-basis-fingerprint";
                          detail =
                            "corrupted merge basis replayed to the fresh \
                             run's schedule";
                        };
                      ] ) )
        end
      end

let selftest ~out =
  (* Two fixtures: a plain synthesis of a generated workload, and the
     core of its CRUSADE-FT synthesis (which guarantees exclusion pairs
     through duplicate-and-compare tasks). *)
  let params = params_of_seed 1 in
  let spec = W.generate lib params in
  let plain =
    match Core.synthesize ~options:Core.default_options spec lib with
    | Ok r -> r
    | Error msg -> fail ~out ~kind:"selftest-setup" ~params [ msg ]
  in
  let ft_core =
    match Ft.synthesize ~options:Core.default_options spec lib with
    | Ok fr -> fr.Ft.core
    | Error msg -> fail ~out ~kind:"selftest-setup" ~params [ msg ]
  in
  (match Core.audit plain with
  | [] -> ()
  | vs ->
      fail ~out ~kind:"selftest-setup" ~params
        ("clean fixture fails its own audit:" :: violation_strings vs));
  let detected = ref [] in
  let missed = ref [] in
  List.iter
    (fun kind ->
      let name = Audit.Mutate.name kind in
      (* A mutation inapplicable to the plain fixture gets a second
         chance on the FT core (and vice versa). *)
      let outcome =
        match try_mutation plain kind with
        | `Inapplicable _ -> try_mutation ft_core kind
        | o -> o
      in
      match outcome with
      | `Detected ->
          detected := name :: !detected;
          Printf.printf "  %-26s detected\n" name
      | `Inapplicable why -> Printf.printf "  %-26s inapplicable (%s)\n" name why
      | `Missed (expected, vs) ->
          missed := (name, expected, vs) :: !missed;
          Printf.printf "  %-26s MISSED (expected %s)\n" name expected)
    Audit.Mutate.all;
  List.iter
    (fun mutation ->
      match try_schedule_mutation plain mutation with
      | name, `Detected ->
          detected := name :: !detected;
          Printf.printf "  %-26s detected\n" name
      | name, `Inapplicable why ->
          Printf.printf "  %-26s inapplicable (%s)\n" name why
      | name, `Missed (expected, vs) ->
          missed := (name, expected, vs) :: !missed;
          Printf.printf "  %-26s MISSED (expected %s)\n" name expected)
    schedule_mutations;
  List.iter
    (fun outcome ->
      match outcome with
      | name, `Detected ->
          detected := name :: !detected;
          Printf.printf "  %-26s detected\n" name
      | name, `Missed (expected, vs) ->
          missed := (name, expected, vs) :: !missed;
          Printf.printf "  %-26s MISSED (expected %s)\n" name expected
      | name, `Inapplicable why ->
          Printf.printf "  %-26s inapplicable (%s)\n" name why)
    [ verdict_flip plain; replay_corruption plain; merge_basis_corruption plain ];
  (match !missed with
  | [] -> ()
  | (name, expected, vs) :: _ ->
      fail ~out ~kind:"selftest-missed" ~params
        (Printf.sprintf "mutation %s not flagged as %s" name expected
        :: violation_strings vs));
  if List.length !detected < 10 then
    fail ~out ~kind:"selftest-coverage" ~params
      [
        Printf.sprintf "only %d mutation kinds were applicable and detected: %s"
          (List.length !detected)
          (String.concat ", " (List.rev !detected));
      ];
  Printf.printf "selftest: %d mutation kinds detected, 0 missed\n%!"
    (List.length !detected)

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  if a.selftest then selftest ~out:a.out
  else begin
    let n = a.seed_hi - a.seed_lo + 1 in
    Printf.printf
      "fuzzing seeds %d..%d (%d seeds x %d configurations + portfolio \
       {1,4}x{bound on,off} + resynth differential + serve round-trip, \
       jobs_max=%d)\n%!"
      a.seed_lo a.seed_hi n
      (List.length (List.concat_map configs_of flavors))
      a.jobs_max;
    for seed = a.seed_lo to a.seed_hi do
      let with_ft = (seed - a.seed_lo) mod a.ft_every = 0 in
      run_seed ~out:a.out ~jobs_max:a.jobs_max ~with_ft seed;
      if (seed - a.seed_lo + 1) mod 10 = 0 || seed = a.seed_hi then
        Printf.printf "  %d/%d seeds clean\n%!" (seed - a.seed_lo + 1) n
    done;
    Printf.printf "ok: %d seeds, zero violations, zero cross-config diffs\n%!" n
  end
