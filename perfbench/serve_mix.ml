(* serve-mix: the shipped crusade_serve binary at its defaults, driven
   over real HTTP by this process with two keep-alive connections in a
   closed loop.

   Each pass sends a fixed list of requests in a seeded order: two fresh
   specs of each of A1TR, VDRTX and HROST at 1/8 (cache misses, polled
   to done) and [hits] re-submissions of a warm set completed before the
   timed window (cache hits).  Latency runs from the POST until the
   result bytes arrive.  The timed operation is the cache-miss job; hit
   latency is printed by every run and reported per layer. *)

open Bench
module C = Crusade.Crusade_core
module Json = Crusade_serve.Json
module Server = Crusade_serve.Server
module Cache = Crusade_serve.Cache
module Http = Crusade_serve.Http
module Dsl = Crusade_taskgraph.Dsl
module Rng = Crusade_util.Rng

let presets = [ "A1TR"; "VDRTX"; "HROST" ]
let misses_per_preset = 2
let max_passes = 32
let poll_s = 0.005

(* The server's job store keeps every job's event log, so its peak
   resident set grows by some 14 MB a pass; it is read after this many
   passes, which every run makes, so that it compares equal work.  One
   pass is too few: where the garbage collector happens to run then
   moved the first pass's peak by up to 21% between runs. *)
let rss_passes = 8

(* Cache hits per pass: ten per miss.  No measured request mix stands
   behind this ratio; perfbench/README.md gives how the miss latencies
   move with it. *)
let default_hits = 60

type entry = { preset : string; gen : int; dsl : string }

(* The warm set (one spec per preset) and, for every pass, two fresh
   specs of each preset, at generator seeds [preset + 100 k + 10^6 + i]
   for instance set [k]: never a preset's own instance, fresh for every
   miss, and the same at every seed. *)
let specs instances =
  let base name = gen_seed name instances + 1_000_000 in
  let entry name gen = { preset = name; gen; dsl = Dsl.print (generate name gen) } in
  let warm = List.map (fun name -> entry name (base name)) presets in
  let misses =
    Array.init max_passes (fun p ->
        List.concat_map
          (fun name ->
            List.init misses_per_preset (fun k -> entry name (base name + 1 + (misses_per_preset * p) + k)))
          presets)
  in
  (warm, misses)

(* ---- the server process ---- *)

type server = { pid : int; port : int; out : in_channel }

(* Starts the binary on an ephemeral port; returns once it listens. *)
let start binary =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process binary [| binary; "--port"; "0" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match String.rindex_opt line ':' with
  | Some i when String.length line > 13 ->
      { pid; port = int_of_string (String.sub line (i + 1) (String.length line - i - 1)); out }
  | _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith ("server did not start: " ^ line)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

(* ---- requests ---- *)

type reply = {
  entry : entry;
  hit : bool;  (* submitted as a cache hit *)
  latency : float;  (* POST until the result bytes arrived *)
  payload : string;
  status : Json.t;  (* the last status document read *)
  seen_done : float;  (* when the client saw the job done *)
}

let parse s = match Json.parse s with Ok j -> j | Error msg -> failwith ("bad JSON: " ^ msg)
let str k j = Option.value (Option.bind (Json.member k j) Json.str) ~default:""

let ok (status, body) =
  if status / 100 = 2 then body
  else failwith (Printf.sprintf "HTTP %d %s" status (String.sub body 0 (min 200 (String.length body))))

let job_body dsl = Json.to_string (Json.Obj [ ("spec", Json.Str dsl) ])

(* POSTs a job, polls it to a final state and fetches the result. *)
let job client ~hit entry =
  let t0 = now () in
  let born = parse (ok (Client.call client "POST" "/jobs" (job_body entry.dsl))) in
  let id = str "id" born in
  let rec poll doc =
    match str "state" doc with
    | "done" | "failed" | "cancelled" -> doc
    | _ ->
        Thread.delay poll_s;
        poll (parse (ok (Client.call client "GET" ("/jobs/" ^ id) "")))
  in
  let status = poll born in
  let seen_done = now () in
  if str "state" status <> "done" then
    failwith (Printf.sprintf "job %s ended %s" id (str "state" status));
  if Json.member "cache_hit" born <> Some (Json.Bool hit) then
    failwith (Printf.sprintf "job %s: expected cache_hit %b" id hit);
  let payload = ok (Client.call client "GET" ("/jobs/" ^ id ^ "/result") "") in
  { entry; hit; latency = now () -. t0; payload; status; seen_done }

(* Two connections drain the request list in order, closed loop.  A
   request fails on an exception or a hit whose bytes differ from the
   fresh payload; a failed connection is replaced. *)
let run_pass port (requests : (entry * string option) array) =
  let next = ref 0 and lock = Mutex.create () in
  let results = Array.make (Array.length requests) (Error "not run") in
  let take () =
    Mutex.protect lock (fun () ->
        let i = !next in
        incr next;
        if i < Array.length requests then Some i else None)
  in
  let worker () =
    let client = ref (Client.connect port) in
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
          let entry, expected = requests.(i) in
          (results.(i) <-
             (match job !client ~hit:(expected <> None) entry with
             | r when expected <> None && expected <> Some r.payload ->
                 Error (Printf.sprintf "%s seed %d: hit bytes differ from the fresh payload" entry.preset entry.gen)
             | r -> Ok r
             | exception e ->
                 Client.close !client;
                 client := Client.connect port;
                 Error (Printf.sprintf "%s seed %d: %s" entry.preset entry.gen (Printexc.to_string e))));
          loop ()
    in
    Fun.protect ~finally:(fun () -> Client.close !client) loop
  in
  List.iter Thread.join [ Thread.create worker (); Thread.create worker () ];
  Array.to_list results

(* ---- the run ---- *)

let log_time (r : reply) state =
  match Json.member "log" r.status with
  | Some (Json.Arr log) ->
      List.find_map
        (fun e -> if str "state" e = state then Option.bind (Json.member "t" e) Json.num else None)
        log
      |> Option.value ~default:nan
  | _ -> nan

let phase_s stats0 stats1 name =
  let us s = Option.bind (Option.bind (Json.member "phases_us" s) (Json.member name)) Json.num in
  (Option.value (us stats1) ~default:0.0 -. Option.value (us stats0) ~default:0.0) /. 1e6

let mean_ms f =
  let reps = 20 in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps *. 1000.0

(* In process, outside the timed window: the serve-path pieces a cache
   hit goes through, timed one by one on each warm spec against an
   in-process server. *)
let decompose warm =
  let server = Server.create (Server.default_config ()) in
  let request meth path body = Server.handle server { Http.meth; path; query = []; headers = []; body } in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      List.map
        (fun e ->
          let spec = match Dsl.parse e.dsl with Ok s -> s | Error m -> failwith m in
          let canonical = Dsl.print spec in
          let id = str "id" (parse (request "POST" "/jobs" (job_body e.dsl)).Http.body) in
          let rec wait () =
            match str "state" (parse (request "GET" ("/jobs/" ^ id) "").Http.body) with
            | "done" -> ()
            | ("failed" | "cancelled") as s -> failwith ("in-process job " ^ s)
            | _ ->
                Thread.delay 0.002;
                wait ()
          in
          wait ();
          ( mean_ms (fun () -> Dsl.parse e.dsl),
            mean_ms (fun () -> Dsl.print spec),
            mean_ms (fun () -> Cache.key ~spec_canonical:canonical ~options_canonical:"reconfig=true"),
            mean_ms (fun () -> request "POST" "/jobs" (job_body e.dsl)) ))
        warm)

let run ~seed ~instances ~seconds ~trace ~binary ~hits =
  let setup_s, setups, ((warm, misses), server) =
    repeat_setup ~dispose:(fun (_, s) -> stop s) (fun () ->
        let specs = specs instances in
        (specs, start binary))
  in
  let setup_generate_s = !generate_s in
  let fresh, passes, stats0, stats1, stats_end, rss, window =
    Fun.protect ~finally:(fun () -> stop server) (fun () ->
        let c = Client.connect server.port in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            let stats () = parse (ok (Client.call c "GET" "/stats" "")) in
            (* The warm set runs one job at a time, before the timed
               window. *)
            let fresh = List.map (job c ~hit:false) warm in
            let stats0 = stats () and stats1 = ref Json.Null and rss = ref nan in
            let before = machine_ms () in
            let t0 = now () and passes = ref [] in
            while
              (List.length !passes < rss_passes || now () -. t0 < seconds)
              && List.length !passes < max_passes
            do
              let p = List.length !passes in
              let requests =
                Array.of_list
                  (List.map (fun e -> (e, None)) misses.(p)
                  @ List.init hits (fun i ->
                        let r = List.nth fresh (i mod List.length fresh) in
                        (r.entry, Some r.payload)))
              in
              Rng.shuffle (Rng.create ((seed * 1000) + p)) requests;
              passes := run_pass server.port requests :: !passes;
              if p = 0 then stats1 := stats ();
              if p = rss_passes - 1 then rss := vm_hwm_mb (string_of_int server.pid)
            done;
            let window = (now () -. t0, before, machine_ms ()) in
            (fresh, List.rev !passes, stats0, !stats1, stats (), !rss, window)))
  in
  let wall, before, after = window in
  let results = List.concat passes in
  let replies = List.filter_map Result.to_option results in
  let failures =
    ref
      (List.filter_map
         (function Error why -> Some ("request", why) | Ok _ -> None)
         results)
  in
  (* In-process reference, outside the timed window: the warm set and
     the first miss of each preset must equal Crusade_core.result_json
     of the same spec. *)
  let firsts =
    warm
    @ List.filter_map
        (fun name -> List.find_opt (fun e -> e.preset = name) misses.(0))
        presets
  in
  let reference =
    List.map
      (fun e ->
        let spec = match Dsl.parse e.dsl with Ok s -> s | Error m -> failwith m in
        let t0 = now () in
        let json =
          match C.synthesize ~options:C.default_options spec lib with
          | Ok r -> C.result_json r
          | Error m -> "error: " ^ m
        in
        let synth_s = now () -. t0 in
        let label = Printf.sprintf "%s seed %d" e.preset e.gen in
        (match List.find_opt (fun (r : reply) -> r.entry == e) (fresh @ replies) with
        | Some r when r.payload = json -> ()
        | Some _ -> failures := (label, "server result differs from in process") :: !failures
        | None -> failures := (label, "no server result") :: !failures);
        (e, synth_s))
      firsts
  in
  let miss = List.filter (fun r -> not r.hit) replies and hit = List.filter (fun r -> r.hit) replies in
  if miss = [] then failwith "serve-mix: no successful cache miss";
  let miss_ms = List.map (fun r -> 1000.0 *. r.latency) miss in
  let hit_ms = List.map (fun r -> 1000.0 *. r.latency) hit in
  let first =
    List.filter_map (function Ok r when not r.hit -> Some (parse r.payload) | _ -> None) (List.hd passes)
  in
  let attempted = List.length results + List.length reference in
  Printf.printf
    "serve-mix seed %d instances %d: %d passes in %.1f s, %d requests (%d misses, %d hits), %d \
     failed\n"
    seed instances (List.length passes) wall (List.length results) (List.length miss) (List.length hit)
    (List.length !failures);
  Printf.printf "  machine check %.1f ms before, %.1f ms after\n" before after;
  Printf.printf "  job_p50_s %.4f s, job_p90_s %.4f s\n" (quantile miss_ms 0.5 /. 1000.0)
    (quantile miss_ms 0.9 /. 1000.0);
  Printf.printf "  hit_p50_ms %.3f ms, hit_p99_ms %.3f ms\n" (quantile hit_ms 0.5) (quantile hit_ms 0.99);
  Printf.printf "  setup_s %.4f s (median of %d set-ups)\n" setup_s setups;
  let num k j = Option.value (Option.bind (Json.member k j) Json.num) ~default:0.0 in
  if not trace then
    emit ~attempted ~failures:!failures
      [
        ("setup_s", setup_s);
        ("op_p50_ms", quantile miss_ms 0.5);
        ("op_p90_ms", quantile miss_ms 0.9);
        ("cost_usd", List.fold_left (fun a d -> a +. num "cost" d) 0.0 first);
        ( "feasible_ops",
          float_of_int
            (List.length (List.filter (fun d -> Json.member "deadlines_met" d = Some (Json.Bool true)) first))
        );
        ("peak_rss_mb", rss);
      ]
  else begin
    let parts = decompose warm in
    let part f = mean (List.map f parts) in
    (* Server run time of the warm-set jobs (run alone) over in-process
       synthesize time of the same specs. *)
    let overhead =
      List.map
        (fun (r : reply) ->
          (log_time r "done" -. log_time r "running") /. List.assq r.entry reference)
        fresh
    in
    let med f = median (List.map f miss) in
    let cache k s = Option.fold ~none:0.0 ~some:(num k) (Json.member "cache" s) in
    let counts k = cache k stats_end -. cache k stats0 in
    let phase = phase_s stats0 stats1 in
    emit ~attempted ~failures:!failures
      [
        ("serve.handle_hit_ms", part (fun (_, _, _, h) -> h));
        ("serve.cache_key_ms", part (fun (_, _, k, _) -> k));
        ("serve.queue_wait_ms", med (fun r -> 1000.0 *. (log_time r "running" -. log_time r "queued")));
        ("serve.run_s", med (fun r -> log_time r "done" -. log_time r "running"));
        ("serve.overhead_ratio", median overhead);
        ("serve.events_per_job", med (fun r -> num "n_events" r.status));
        ("serve.poll_lag_ms", med (fun r -> 1000.0 *. (r.seen_done -. log_time r "done")));
        ("serve.cache_hits", counts "hits");
        ("serve.cache_misses", counts "misses");
        ("serve.hit_p50_ms", quantile hit_ms 0.5);
        ("serve.hit_p99_ms", quantile hit_ms 0.99);
        ("taskgraph.dsl_parse_ms", part (fun (p, _, _, _) -> p));
        ("taskgraph.dsl_print_ms", part (fun (_, p, _, _) -> p));
        ("workloads.generate_s", setup_generate_s);
        (* The server's own fold of its jobs' spans over pass 1, summed
           over concurrently running jobs. *)
        ("cluster.run_s", phase "clustering");
        ("core.synthesize_s", phase "synthesize");
        ("core.allocation_s", phase "allocation");
        ("core.repair_s", phase "repair");
        ("sched.run_s", phase "schedule.run");
        ("sched.estimate_s", phase "schedule.estimate");
        ("reconfig.merge_s", phase "merge");
        ("reconfig.interface_s", phase "interface");
      ]
  end
