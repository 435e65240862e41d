module C = Crusade.Crusade_core
module Dsl = Crusade_taskgraph.Dsl
module Pool = Crusade_util.Pool
module Jobqueue = Crusade_util.Jobqueue
module Trace = Crusade_util.Trace

type config = {
  max_in_flight : int;
  queue_cap : int;
  default_jobs : int;
  lib : Crusade_resource.Library.t;
  pre_run : (string -> unit) option;
}

let default_config () =
  {
    max_in_flight = 2;
    queue_cap = 64;
    default_jobs = Pool.default_jobs ();
    lib = Crusade_resource.Library.stock ();
    pre_run = None;
  }

(* Everything a job needs to run, resolved and validated at submission
   time so POST can reject bad requests with a 400 instead of failing
   later on a worker domain. *)
type job_request = {
  spec : Crusade_taskgraph.Spec.t;
  reconfig : bool;
  copy_cap : int option;
  eval_window : int option;
  jobs : int;
  portfolio_n : int;  (* resolved: explicit --portfolio > quality > 1 *)
  budget_ms : int option;
  audit : bool;
  change : C.Resynth.change option;
}

type t = {
  cfg : config;
  store : Store.t;
  cache : Cache.t;
  queue : Store.job Jobqueue.t;
  reqs : (string, job_request) Hashtbl.t;  (* job id -> request, under [lock] *)
  lock : Mutex.t;
  mutable in_flight : int;
  metrics : Trace.Metrics.t;
  mutable listener : Unix.file_descr option;
  mutable stopped : bool;
}

let create cfg =
  Pool.warm (Pool.global ()) cfg.max_in_flight;
  {
    cfg;
    store = Store.create ();
    cache = Cache.create ();
    queue = Jobqueue.create ~cap:cfg.queue_cap ();
    reqs = Hashtbl.create 64;
    lock = Mutex.create ();
    in_flight = 0;
    metrics = Trace.Metrics.create ();
    listener = None;
    stopped = false;
  }

let bump t name = Trace.Counter.incr (Trace.Metrics.counter t.metrics name)

(* ---- request parsing ---- *)

let obj_keys = function Json.Obj kvs -> List.map fst kvs | _ -> []

let check_keys what allowed json =
  match
    List.find_opt (fun k -> not (List.mem k allowed)) (obj_keys json)
  with
  | Some k -> Error (Printf.sprintf "%s: unknown key %S" what k)
  | None -> Ok ()

let want what conv field json =
  match Json.member field json with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "%s: bad %S" what field))

let ( let* ) = Result.bind

(* The CLI's --change-json shape, read from the request's [resynth]
   member. *)
let parse_change json =
  let* () =
    check_keys "resynth" [ "kind"; "graphs"; "pe"; "percent"; "drift" ] json
  in
  let* kind =
    match Json.member "kind" json with
    | Some (Json.Str k) -> Ok k
    | Some _ | None -> Error "resynth: missing \"kind\""
  in
  let* graphs =
    want "resynth"
      (function
        | Json.Arr vs ->
            List.fold_left
              (fun acc v ->
                match (acc, Json.int v) with
                | Some gs, Some g -> Some (g :: gs)
                | _ -> None)
              (Some []) vs
            |> Option.map List.rev
        | _ -> None)
      "graphs" json
  in
  let need_graphs k =
    match graphs with
    | Some (_ :: _ as gs) -> Ok (k gs)
    | Some [] | None ->
        Error (Printf.sprintf "resynth: %S needs \"graphs\"" kind)
  in
  match kind with
  | "arrival" | "graph-arrival" -> need_graphs (fun gs -> C.Resynth.Graph_arrival gs)
  | "departure" | "graph-departure" ->
      need_graphs (fun gs -> C.Resynth.Graph_departure gs)
  | "upgrade" -> need_graphs (fun gs -> C.Resynth.Upgrade gs)
  | "pe-fail" | "pe-failure" -> (
      let* pe = want "resynth" Json.int "pe" json in
      match pe with
      | Some p -> Ok (C.Resynth.Pe_failure p)
      | None -> Error "resynth: \"pe-fail\" needs \"pe\"")
  | "drift" -> (
      let* p1 = want "resynth" Json.int "percent" json in
      let* p2 = want "resynth" Json.int "drift" json in
      match (p1, p2) with
      | Some p, _ | None, Some p -> Ok (C.Resynth.Exec_drift p)
      | None, None -> Error "resynth: \"drift\" needs \"percent\"")
  | other -> Error (Printf.sprintf "resynth: unknown kind %S" other)

let parse_request cfg body =
  let* json =
    Result.map_error (fun m -> "bad JSON: " ^ m) (Json.parse body)
  in
  let* () = check_keys "body" [ "spec"; "options"; "resynth" ] json in
  let* spec_text =
    match Json.member "spec" json with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "\"spec\" must be a string"
    | None -> Error "missing \"spec\""
  in
  let* spec = Result.map_error (fun m -> "spec: " ^ m) (Dsl.parse spec_text) in
  let opts = Option.value (Json.member "options" json) ~default:(Json.Obj []) in
  let* () =
    check_keys "options"
      [
        "reconfig"; "jobs"; "portfolio"; "quality"; "budget_ms"; "audit";
        "copy_cap"; "eval_window";
      ]
      opts
  in
  let pos what v =
    match v with
    | Some n when n <= 0 -> Error (Printf.sprintf "options: %s must be positive" what)
    | _ -> Ok v
  in
  let* reconfig = want "options" Json.bool "reconfig" opts in
  let* audit = want "options" Json.bool "audit" opts in
  let* jobs = Result.bind (want "options" Json.int "jobs" opts) (pos "jobs") in
  let* portfolio = want "options" Json.int "portfolio" opts in
  let* () =
    match portfolio with
    | Some n when n < 0 -> Error "options: portfolio must be non-negative"
    | _ -> Ok ()
  in
  let* quality =
    want "options"
      (fun v ->
        match Json.str v with
        | Some ("fast" | "balanced" | "max") as q -> q
        | _ -> None)
      "quality" opts
  in
  let* budget_ms =
    Result.bind (want "options" Json.int "budget_ms" opts) (pos "budget_ms")
  in
  let* copy_cap =
    Result.bind (want "options" Json.int "copy_cap" opts) (pos "copy_cap")
  in
  let* eval_window =
    Result.bind (want "options" Json.int "eval_window" opts) (pos "eval_window")
  in
  let* change =
    match Json.member "resynth" json with
    | None -> Ok None
    | Some j -> Result.map Option.some (parse_change j)
  in
  (* Same precedence as the CLI: an explicit portfolio count wins over
     the quality preset; 0 means one trajectory per available domain,
     resolved here so the cache key is explicit about it. *)
  let n =
    match (portfolio, quality) with
    | Some n, _ -> n
    | None, Some "fast" -> 1
    | None, Some "balanced" -> 4
    | None, Some "max" -> 0
    | None, (Some _ | None) -> 1
  in
  let portfolio_n = if n = 0 then Pool.size (Pool.global ()) else n in
  Ok
    ( Dsl.print spec,
      {
        spec;
        reconfig = Option.value reconfig ~default:true;
        copy_cap;
        eval_window;
        jobs = Option.value jobs ~default:cfg.default_jobs;
        portfolio_n;
        budget_ms;
        audit = Option.value audit ~default:false;
        change;
      } )

(* The half of the request that determines the result.  [jobs] is
   deliberately absent: it only sets how many domains a portfolio's
   trajectories spread over, and the winner is the same for any count,
   so runs differing only in parallelism share a cache line. *)
let options_canonical req =
  String.concat ";"
    [
      Printf.sprintf "audit=%b" req.audit;
      Printf.sprintf "budget_ms=%s"
        (match req.budget_ms with Some v -> string_of_int v | None -> "none");
      Printf.sprintf "change=%s"
        (match req.change with
        | Some c -> C.Resynth.describe_change c
        | None -> "none");
      Printf.sprintf "copy_cap=%d"
        (Option.value req.copy_cap ~default:C.default_options.C.copy_cap);
      Printf.sprintf "eval_window=%d"
        (Option.value req.eval_window ~default:C.default_options.C.eval_window);
      Printf.sprintf "portfolio=%d" req.portfolio_n;
      Printf.sprintf "reconfig=%b" req.reconfig;
    ]

(* ---- job execution (on pool worker domains) ---- *)

let core_options req ~trace ~cancel =
  let o =
    {
      C.default_options with
      C.dynamic_reconfiguration = req.reconfig;
      C.jobs = req.jobs;
      C.trace;
      C.cancel;
    }
  in
  let o =
    match req.copy_cap with Some v -> { o with C.copy_cap = v } | None -> o
  in
  match req.eval_window with
  | Some v -> { o with C.eval_window = v }
  | None -> o

let line_of_view (v : Trace.view) =
  let args =
    List.map
      (fun (k, a) ->
        ( k,
          match a with
          | Trace.Str s -> Json.Str s
          | Trace.Num n -> Json.Num (float_of_int n) ))
      v.Trace.v_args
  in
  Json.to_string
    (Json.Obj
       [
         ("phase", Json.Str v.Trace.v_phase);
         ("name", Json.Str v.Trace.v_name);
         ("ts", Json.Num v.Trace.v_ts);
         ("tid", Json.Num (float_of_int v.Trace.v_tid));
         ("args", Json.Obj args);
       ])

(* Stream every trace event into the job's NDJSON log, and fold closed
   spans into the server-wide per-phase latency counters.  The hook runs
   under the sink's lock; it only takes the store and metrics locks,
   neither of which ever takes a sink lock back. *)
let attach_events t job sink =
  let open_spans : (int * string, float list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  Trace.on_event sink (fun v ->
      Store.append_event t.store job (line_of_view v);
      let key = (v.Trace.v_tid, v.Trace.v_name) in
      match v.Trace.v_phase with
      | "B" -> (
          match Hashtbl.find_opt open_spans key with
          | Some stack -> stack := v.Trace.v_ts :: !stack
          | None -> Hashtbl.add open_spans key (ref [ v.Trace.v_ts ]))
      | "E" -> (
          match Hashtbl.find_opt open_spans key with
          | Some ({ contents = start :: rest } as stack) ->
              stack := rest;
              Trace.Counter.add
                (Trace.Metrics.counter t.metrics
                   ("phase_us/" ^ v.Trace.v_name))
                (int_of_float (v.Trace.v_ts -. start))
          | Some { contents = [] } | None -> ())
      | _ -> ())

let synth_result req options spec lib =
  if req.portfolio_n = 1 && req.budget_ms = None then
    C.synthesize ~options spec lib
  else
    match
      C.Portfolio.run ?budget_ms:req.budget_ms ~n:req.portfolio_n ~options
        ~flow:(fun o -> C.synthesize ~options:o spec lib)
        ~cost:(fun (r : C.result) -> r.C.cost)
        ~met:(fun (r : C.result) -> r.C.deadlines_met)
        ()
    with
    | Ok o -> Ok o.C.Portfolio.best
    | Error _ as e -> e

let resynth_result options spec lib change =
  (* Arrivals/upgrades are deployed without the arriving graphs; every
     other change starts from the full system (the CLI's convention). *)
  let deployed_include =
    match change with
    | C.Resynth.Graph_arrival gs | C.Resynth.Upgrade gs ->
        fun g -> not (List.mem g gs)
    | C.Resynth.Graph_departure _ | C.Resynth.Pe_failure _
    | C.Resynth.Exec_drift _ ->
        fun _ -> true
  in
  match C.synthesize ~options ~include_graph:deployed_include spec lib with
  | Error msg -> Error ("deployed synthesis: " ^ msg)
  | Ok deployed -> C.Resynth.apply ~options deployed change

let resynth_payload (rep : C.Resynth.report) =
  match rep.C.Resynth.verdict with
  | C.Resynth.Images_only { result; added_images } ->
      Printf.sprintf
        "{\"schema\":\"crusade-resynth-1\",\"verdict\":\"images-only\",\"added_images\":%d,\"result\":%s}"
        added_images (C.result_json result)
  | C.Resynth.Needs_hardware { result; added_pes; added_cost } ->
      Printf.sprintf
        "{\"schema\":\"crusade-resynth-1\",\"verdict\":\"needs-hardware\",\"added_pes\":%d,\"added_cost\":%.17g,\"result\":%s}"
        added_pes added_cost (C.result_json result)
  | C.Resynth.Infeasible ->
      "{\"schema\":\"crusade-resynth-1\",\"verdict\":\"infeasible\",\"result\":null}"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rec pump t =
  let claimed =
    locked t (fun () ->
        if t.in_flight >= t.cfg.max_in_flight then None
        else
          match Jobqueue.try_pop t.queue with
          | Some job ->
              t.in_flight <- t.in_flight + 1;
              Some job
          | None -> None)
  in
  match claimed with
  | None -> ()
  | Some job ->
      Pool.submit (Pool.global ()) (fun () -> run_job t job);
      pump t

and release_slot t =
  locked t (fun () -> t.in_flight <- t.in_flight - 1);
  pump t

and run_job t job =
  Fun.protect ~finally:(fun () -> release_slot t) @@ fun () ->
  ignore (Store.transition t.store job Store.Running);
  (match t.cfg.pre_run with
  | Some f -> ( try f job.Store.id with _ -> ())
  | None -> ());
  if Atomic.get job.Store.cancel_requested then begin
    ignore (Store.transition t.store job Store.Cancelled);
    bump t "jobs_cancelled"
  end
  else begin
    let req = locked t (fun () -> Hashtbl.find t.reqs job.Store.id) in
    bump t "synth_runs";
    let sink = Trace.create () in
    attach_events t job sink;
    let cancel = Some (fun () -> Atomic.get job.Store.cancel_requested) in
    let options = core_options req ~trace:(Some sink) ~cancel in
    let fail msg =
      job.Store.error <- Some msg;
      ignore (Store.transition t.store job Store.Failed);
      bump t "jobs_failed"
    in
    match
      match req.change with
      | None ->
          Result.map
            (fun r -> `Plain r)
            (synth_result req options req.spec t.cfg.lib)
      | Some change ->
          Result.map
            (fun rep -> `Resynth rep)
            (resynth_result options req.spec t.cfg.lib change)
    with
    | exception C.Cancelled ->
        ignore (Store.transition t.store job Store.Cancelled);
        bump t "jobs_cancelled"
    | exception e -> fail ("synthesis raised: " ^ Printexc.to_string e)
    | Error msg -> fail msg
    | Ok outcome -> (
        let violations =
          if not req.audit then []
          else
            match outcome with
            | `Plain r -> C.audit r
            | `Resynth rep -> C.Resynth.audit_report rep
        in
        match violations with
        | _ :: _ ->
            fail (Printf.sprintf "audit: %d violation(s)" (List.length violations))
        | [] ->
            let payload =
              match outcome with
              | `Plain r -> C.result_json r
              | `Resynth rep -> resynth_payload rep
            in
            job.Store.payload <- Some payload;
            if job.Store.cacheable then
              Cache.add t.cache job.Store.cache_key payload;
            ignore (Store.transition t.store job Store.Done);
            bump t "jobs_completed")
  end

(* ---- HTTP handlers ---- *)

let err_body msg = Printf.sprintf "{\"error\":\"%s\"}" (Json.escape msg)
let not_found () = Http.response 404 (err_body "not found")

let submit t body =
  if t.stopped then Http.response 503 (err_body "server stopping")
  else
    match parse_request t.cfg body with
    | Error msg -> Http.response 400 (err_body msg)
    | Ok (spec_canonical, req) -> (
        let cache_key =
          Cache.key ~spec_canonical ~options_canonical:(options_canonical req)
        in
        (* Anytime (budgeted) results are time-dependent, never cached. *)
        let cacheable = req.budget_ms = None in
        let born id state cache_hit =
          Printf.sprintf
            "{\"id\":\"%s\",\"state\":\"%s\",\"cache_hit\":%b,\"cache_key\":\"%s\"}"
            id (Store.state_name state) cache_hit cache_key
        in
        let cached =
          if cacheable then Cache.find t.cache cache_key else None
        in
        match cached with
        | Some payload ->
            (* Serve without running: the payload is byte-identical to a
               fresh synthesis by construction. *)
            let job =
              Store.add t.store ~spec_text:spec_canonical ~cache_key ~cacheable
            in
            job.Store.cache_hit <- true;
            job.Store.payload <- Some payload;
            ignore (Store.transition t.store job Store.Done);
            bump t "cache_served";
            Http.response 201 (born job.Store.id Store.Done true)
        | None ->
            let job =
              Store.add t.store ~spec_text:spec_canonical ~cache_key ~cacheable
            in
            locked t (fun () -> Hashtbl.replace t.reqs job.Store.id req);
            if Jobqueue.push t.queue job then begin
              bump t "jobs_submitted";
              pump t;
              Http.response 201 (born job.Store.id Store.Queued false)
            end
            else begin
              ignore (Store.transition t.store job Store.Cancelled);
              Http.response 503 (err_body "job queue full")
            end)

let status_json t job =
  let log = Store.log_of t.store job in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str job.Store.id);
         ("state", Json.Str (Store.state_name job.Store.state));
         ("cache_hit", Json.Bool job.Store.cache_hit);
         ("cacheable", Json.Bool job.Store.cacheable);
         ("cache_key", Json.Str job.Store.cache_key);
         ( "error",
           match job.Store.error with
           | Some e -> Json.Str e
           | None -> Json.Null );
         ("n_events", Json.Num (float_of_int job.Store.n_events));
         ("has_result", Json.Bool (job.Store.payload <> None));
         ( "log",
           Json.Arr
             (List.map
                (fun (ts, s) ->
                  Json.Obj
                    [
                      ("state", Json.Str (Store.state_name s));
                      ("t", Json.Num ts);
                    ])
                log) );
       ])

let job_result job =
  match (job.Store.state, job.Store.payload) with
  | Store.Done, Some payload -> Http.response 200 payload
  | Store.Failed, _ ->
      Http.response 409
        (err_body
           ("failed: "
           ^ Option.value job.Store.error ~default:"unknown error"))
  | state, _ ->
      Http.response 409
        (err_body ("no result yet: job is " ^ Store.state_name state))

let job_events t req job =
  let since =
    match Option.bind (Http.query_param req "since") int_of_string_opt with
    | Some n when n >= 0 -> n
    | Some _ | None -> 0
  in
  let lines, _total = Store.events_since t.store job since in
  Http.response ~content_type:"application/x-ndjson" 200
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let cancel t job =
  match job.Store.state with
  | Store.Done | Store.Failed | Store.Cancelled ->
      Http.response 409
        (err_body ("already " ^ Store.state_name job.Store.state))
  | Store.Queued ->
      if Jobqueue.remove t.queue (fun j -> j == job) then begin
        ignore (Store.transition t.store job Store.Cancelled);
        bump t "jobs_cancelled";
        Http.response 200 "{\"cancelled\":true,\"was\":\"queued\"}"
      end
      else begin
        (* Already claimed by the pump: signal the run instead. *)
        Atomic.set job.Store.cancel_requested true;
        Http.response 202 "{\"cancelling\":true}"
      end
  | Store.Running ->
      Atomic.set job.Store.cancel_requested true;
      Http.response 202 "{\"cancelling\":true}"

let stats_json t =
  let hits, misses, entries = Cache.stats t.cache in
  let in_flight = locked t (fun () -> t.in_flight) in
  let counters, phases =
    List.partition
      (fun (name, _) ->
        not (String.length name > 9 && String.sub name 0 9 = "phase_us/"))
      (Trace.Metrics.to_alist t.metrics)
  in
  let obj_of kvs strip =
    Json.Obj
      (List.map
         (fun (name, v) ->
           let name =
             if strip then String.sub name 9 (String.length name - 9)
             else name
           in
           (name, Json.Num (float_of_int v)))
         kvs)
  in
  Json.to_string
    (Json.Obj
       [
         ("queue_depth", Json.Num (float_of_int (Jobqueue.length t.queue)));
         ("in_flight", Json.Num (float_of_int in_flight));
         ("max_in_flight", Json.Num (float_of_int t.cfg.max_in_flight));
         ( "jobs",
           Json.Obj
             (List.map
                (fun s ->
                  ( Store.state_name s,
                    Json.Num (float_of_int (Store.count_in t.store s)) ))
                [ Store.Queued; Store.Running; Store.Done; Store.Failed;
                  Store.Cancelled ]) );
         ( "cache",
           Json.Obj
             [
               ("hits", Json.Num (float_of_int hits));
               ("misses", Json.Num (float_of_int misses));
               ("entries", Json.Num (float_of_int entries));
             ] );
         ("counters", obj_of counters false);
         ("phases_us", obj_of phases true);
       ])

let handle t (req : Http.request) =
  let segments =
    String.split_on_char '/' req.Http.path |> List.filter (fun s -> s <> "")
  in
  let with_job id k =
    match Store.find t.store id with None -> not_found () | Some job -> k job
  in
  match (req.Http.meth, segments) with
  | "GET", [ "healthz" ] -> Http.response 200 "{\"ok\":true}"
  | "GET", [ "stats" ] -> Http.response 200 (stats_json t)
  | "POST", [ "jobs" ] -> submit t req.Http.body
  | "GET", [ "jobs"; id ] ->
      with_job id (fun job -> Http.response 200 (status_json t job))
  | "GET", [ "jobs"; id; "result" ] -> with_job id job_result
  | "GET", [ "jobs"; id; "events" ] -> with_job id (job_events t req)
  | "DELETE", [ "jobs"; id ] -> with_job id (cancel t)
  | ("GET" | "POST" | "DELETE" | "PUT" | "HEAD" | "PATCH"), _ -> not_found ()
  | _, _ -> Http.response 405 (err_body "method not allowed")

(* ---- sockets ---- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

let handle_conn t fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let conn = Http.conn_of_fd fd in
  let rec loop () =
    match Http.read_request conn with
    | Error (Http.Eof | Http.Truncated) -> ()
    | Error (Http.Too_large what) ->
        write_all fd
          (Http.to_bytes ~close:true (Http.response 413 (err_body what)))
    | Error (Http.Bad msg) ->
        write_all fd
          (Http.to_bytes ~close:true (Http.response 400 (err_body msg)))
    | Ok req ->
        let resp =
          try handle t req
          with e -> Http.response 500 (err_body (Printexc.to_string e))
        in
        let close = Http.wants_close req in
        write_all fd (Http.to_bytes ~close resp);
        if not close then loop ()
  in
  try loop () with Unix.Unix_error _ -> ()

let listen ?(addr = "127.0.0.1") ~port t =
  (* A peer that hangs up before reading its responses must cost only
     its own connection: with SIGPIPE ignored the write raises [EPIPE],
     which [handle_conn] treats as the end of the connection, instead of
     the signal killing the process and every running job with it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen fd 64;
  let actual =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  t.listener <- Some fd;
  (fd, actual)

(* Transient accept failures never end the loop: a connection aborted
   before it was accepted or an interrupted call retries at once, and
   running out of descriptors or buffers retries after a pause that
   lets open connections close.  Only [stop] ends the loop; any other
   error is raised. *)
let serve t fd =
  let rec loop () =
    match Unix.accept fd with
    | cfd, _ ->
        ignore (Thread.create (fun () -> handle_conn t cfd) ());
        loop ()
    | exception Unix.Unix_error _ when t.stopped -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        loop ()
    | exception
        Unix.Unix_error
          ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
        Thread.delay 0.05;
        loop ()
  in
  loop ()

let start ?addr ~port t =
  let fd, actual = listen ?addr ~port t in
  ignore (Thread.create (fun () -> serve t fd) ());
  actual

let stop t =
  t.stopped <- true;
  (match t.listener with
  | Some fd ->
      t.listener <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Jobqueue.close t.queue;
  (* Queued jobs never run once the queue is closed; cancel them so
     their state is terminal and auditable. *)
  let rec drain () =
    match Jobqueue.try_pop t.queue with
    | Some job ->
        ignore (Store.transition t.store job Store.Cancelled);
        bump t "jobs_cancelled";
        drain ()
    | None -> ()
  in
  drain ()
