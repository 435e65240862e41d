(* The job server, outside-in: the HTTP parser on hostile byte streams,
   the job queue under contention, the store's state machine, the full
   API in process, and finally the real thing over loopback sockets with
   a test-local HTTP client. *)

module C = Crusade.Crusade_core
module Dsl = Crusade_taskgraph.Dsl
module Http = Crusade_serve.Http
module Json = Crusade_serve.Json
module Server = Crusade_serve.Server
module Store = Crusade_serve.Store
module Jobqueue = Crusade_util.Jobqueue

let check = Alcotest.check

(* --- HTTP parser --- *)

let ok_exn = function
  | Ok r -> r
  | Error _ -> Alcotest.fail "expected a parsed request"

let simple_get () =
  let c =
    Http.conn_of_string
      "GET /jobs/j1/events?since=2&full HTTP/1.1\r\nHost: x\r\nX-Weird:  padded \r\n\r\n"
  in
  let r = ok_exn (Http.read_request c) in
  check Alcotest.string "method" "GET" r.Http.meth;
  check Alcotest.string "path" "/jobs/j1/events" r.Http.path;
  check (Alcotest.option Alcotest.string) "since" (Some "2")
    (Http.query_param r "since");
  check (Alcotest.option Alcotest.string) "valueless param" (Some "")
    (Http.query_param r "full");
  check (Alcotest.option Alcotest.string) "header lowercased+trimmed"
    (Some "padded") (Http.header r "x-weird");
  check Alcotest.string "no body" "" r.Http.body

let post_with_body () =
  let c =
    Http.conn_of_string
      "POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world"
  in
  let r = ok_exn (Http.read_request c) in
  check Alcotest.string "body" "hello world" r.Http.body

let pipelined_keepalive () =
  (* Two requests in one byte stream: the leftover bytes of the second
     must survive the first parse. *)
  let c =
    Http.conn_of_string
      ("GET /healthz HTTP/1.1\r\n\r\n"
      ^ "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nok")
  in
  let r1 = ok_exn (Http.read_request c) in
  let r2 = ok_exn (Http.read_request c) in
  check Alcotest.string "first path" "/healthz" r1.Http.path;
  check Alcotest.string "second path" "/jobs" r2.Http.path;
  check Alcotest.string "second body" "ok" r2.Http.body;
  match Http.read_request c with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "stream should be drained"

let drip_fed_request () =
  (* One byte per read call: parsing must be independent of packet
     boundaries. *)
  let s = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
  let pos = ref 0 in
  let c =
    Http.conn_of_read (fun b off _len ->
        if !pos >= String.length s then 0
        else begin
          Bytes.set b off s.[!pos];
          incr pos;
          1
        end)
  in
  check Alcotest.string "path" "/healthz" (ok_exn (Http.read_request c)).Http.path

let truncation_and_eof () =
  (match Http.read_request (Http.conn_of_string "") with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "empty stream is Eof");
  (match Http.read_request (Http.conn_of_string "GET /x HTTP/1.1\r\nHost") with
  | Error Http.Truncated -> ()
  | _ -> Alcotest.fail "mid-header end is Truncated");
  match
    Http.read_request
      (Http.conn_of_string "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi")
  with
  | Error Http.Truncated -> ()
  | _ -> Alcotest.fail "mid-body end is Truncated"

let limits_enforced () =
  let big_header =
    "GET /x HTTP/1.1\r\nX-Big: " ^ String.make 4096 'a' ^ "\r\n\r\n"
  in
  (match Http.read_request ~max_header:256 (Http.conn_of_string big_header) with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized header block must be rejected");
  let big_body =
    "POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n" ^ String.make 4096 'b'
  in
  match Http.read_request ~max_body:256 (Http.conn_of_string big_body) with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized body must be rejected before reading it"

let malformed_requests () =
  let bad s =
    match Http.read_request (Http.conn_of_string s) with
    | Error (Http.Bad _) -> ()
    | _ -> Alcotest.failf "should be Bad: %S" s
  in
  bad "GARBAGE\r\n\r\n";
  bad "GET /x HTTP/2\r\n\r\n";
  bad "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n";
  bad "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
  bad "POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n"

let bare_lf_accepted () =
  let c = Http.conn_of_string "GET /x HTTP/1.0\nHost: y\n\n" in
  check Alcotest.string "path" "/x" (ok_exn (Http.read_request c)).Http.path

let percent_decoding () =
  let c = Http.conn_of_string "GET /a%20b?k=v%2Fw+x HTTP/1.1\r\n\r\n" in
  let r = ok_exn (Http.read_request c) in
  check Alcotest.string "path decoded" "/a b" r.Http.path;
  check (Alcotest.option Alcotest.string) "query decoded" (Some "v/w x")
    (Http.query_param r "k")

let response_wire_format () =
  let r = Http.response 200 "{}" in
  check Alcotest.string "wire"
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
    (Http.to_bytes r);
  check Alcotest.string "close adds header"
    "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    (Http.to_bytes ~close:true (Http.response 404 ""))

(* --- the JSON codec the API speaks --- *)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 42.);
        ("f", Json.Num 2.5);
        ("l", Json.Arr [ Json.Bool true; Json.Null ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "roundtrips" true (v = v')
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let json_strictness () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject: %S" s
  in
  bad "{} trailing";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"unterminated";
  bad "{\"a\" 1}";
  check Alcotest.bool "escapes decode" true
    (Json.parse "\"\\u0041\\n\"" = Ok (Json.Str "A\n"))

(* --- job queue --- *)

let queue_fifo () =
  let q = Jobqueue.create () in
  List.iter (fun i -> assert (Jobqueue.push q i)) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list Alcotest.int) "strict arrival order" [ 1; 2; 3; 4; 5 ]
    (List.init 5 (fun _ -> Option.get (Jobqueue.try_pop q)))

let queue_cap_and_close () =
  let q = Jobqueue.create ~cap:2 () in
  check Alcotest.bool "first fits" true (Jobqueue.push q 1);
  check Alcotest.bool "second fits" true (Jobqueue.push q 2);
  check Alcotest.bool "third bounces" false (Jobqueue.push q 3);
  Jobqueue.close q;
  check Alcotest.bool "push after close bounces" false (Jobqueue.push q 9);
  check (Alcotest.option Alcotest.int) "drains" (Some 1) (Jobqueue.pop q);
  check (Alcotest.option Alcotest.int) "drains" (Some 2) (Jobqueue.pop q);
  check (Alcotest.option Alcotest.int) "then None, no block" None
    (Jobqueue.pop q)

let queue_remove () =
  let q = Jobqueue.create () in
  List.iter (fun i -> assert (Jobqueue.push q i)) [ 1; 2; 3 ];
  check Alcotest.bool "removes queued" true (Jobqueue.remove q (fun x -> x = 2));
  check Alcotest.bool "already gone" false (Jobqueue.remove q (fun x -> x = 2));
  check (Alcotest.list Alcotest.int) "others keep order" [ 1; 3 ]
    (List.init 2 (fun _ -> Option.get (Jobqueue.try_pop q)))

let queue_cross_thread_fifo () =
  (* A popper thread consumes while the pusher produces: everything
     arrives, in order, exactly once. *)
  let n = 500 in
  let q = Jobqueue.create () in
  let got = ref [] in
  let popper =
    Thread.create
      (fun () ->
        let rec go () =
          match Jobqueue.pop q with
          | Some v ->
              got := v :: !got;
              go ()
          | None -> ()
        in
        go ())
      ()
  in
  for i = 1 to n do
    while not (Jobqueue.push q i) do
      Thread.yield ()
    done
  done;
  Jobqueue.close q;
  Thread.join popper;
  check (Alcotest.list Alcotest.int) "all items, arrival order"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

let queue_remove_pop_race () =
  (* remove and pop race for the same elements: each element ends up
     exactly one place — removed or popped, never both, never lost. *)
  let n = 200 in
  let q = Jobqueue.create () in
  for i = 1 to n do
    assert (Jobqueue.push q i)
  done;
  let popped = ref [] in
  let removed = ref 0 in
  let popper =
    Thread.create
      (fun () ->
        let rec go () =
          match Jobqueue.pop q with
          | Some v ->
              popped := v :: !popped;
              go ()
          | None -> ()
        in
        go ())
      ()
  in
  for i = 1 to n do
    if i mod 2 = 0 && Jobqueue.remove q (fun x -> x = i) then incr removed
  done;
  Jobqueue.close q;
  Thread.join popper;
  check Alcotest.int "conserved" n (!removed + List.length !popped);
  let seen = Hashtbl.create n in
  List.iter
    (fun v ->
      if Hashtbl.mem seen v then Alcotest.failf "popped twice: %d" v;
      Hashtbl.add seen v ())
    !popped

(* --- job store state machine --- *)

let store_legal_lifecycle () =
  let s = Store.create () in
  let j = Store.add s ~spec_text:"x" ~cache_key:"k" ~cacheable:true in
  check Alcotest.string "fresh id" "j1" j.Store.id;
  check Alcotest.bool "queued->running" true
    (Store.transition s j Store.Running = Ok ());
  check Alcotest.bool "running->done" true
    (Store.transition s j Store.Done = Ok ());
  check
    (Alcotest.list Alcotest.string)
    "audit trail"
    [ "queued"; "running"; "done" ]
    (List.map (fun (_, st) -> Store.state_name st) (Store.log_of s j))

let store_illegal_edges_rejected () =
  let s = Store.create () in
  let j = Store.add s ~spec_text:"x" ~cache_key:"k" ~cacheable:true in
  ignore (Store.transition s j Store.Running);
  ignore (Store.transition s j Store.Done);
  List.iter
    (fun target ->
      match Store.transition s j target with
      | Error msg ->
          check Alcotest.bool "error names the edge" true
            (Helpers.contains msg "done ->")
      | Ok () -> Alcotest.fail "terminal state must be terminal")
    [ Store.Running; Store.Cancelled; Store.Failed; Store.Queued ];
  let j2 = Store.add s ~spec_text:"y" ~cache_key:"k2" ~cacheable:false in
  check Alcotest.bool "queued->done is legal (cache hit)" true
    (Store.transition s j2 Store.Done = Ok ())

let store_event_cursor () =
  let s = Store.create () in
  let j = Store.add s ~spec_text:"x" ~cache_key:"k" ~cacheable:true in
  List.iter (Store.append_event s j) [ "a"; "b"; "c" ];
  let lines, total = Store.events_since s j 0 in
  check (Alcotest.list Alcotest.string) "all, oldest first" [ "a"; "b"; "c" ]
    lines;
  check Alcotest.int "total" 3 total;
  let lines, _ = Store.events_since s j 2 in
  check (Alcotest.list Alcotest.string) "cursor skips" [ "c" ] lines;
  check Alcotest.bool "cursor at end" true ([] = fst (Store.events_since s j 3))

(* --- the API, in process --- *)

let call t ?(body = "") ?(query = []) meth path =
  Server.handle t { Http.meth; path; query; headers = []; body }

let job_body ?(options = []) spec_text =
  let opts =
    if options = [] then ""
    else
      Printf.sprintf ",\"options\":{%s}"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) options))
  in
  Printf.sprintf "{\"spec\":\"%s\"%s}" (Json.escape spec_text) opts

let mk_server ?(max_in_flight = 2) ?(queue_cap = 8) ?pre_run () =
  Server.create
    {
      Server.max_in_flight;
      queue_cap;
      default_jobs = 1;
      lib = Helpers.small_lib;
      pre_run;
    }

let field resp name =
  match Json.parse resp.Http.body with
  | Ok v -> Json.member name v
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg resp.Http.body

let str_field resp name =
  match Option.bind (field resp name) Json.str with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" name resp.Http.body

let wait_for ?(timeout = 60.) what f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (f ()) then begin
      if Unix.gettimeofday () -. t0 > timeout then
        Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let submit_ok t ?options spec_text =
  let resp = call t ~body:(job_body ?options spec_text) "POST" "/jobs" in
  check Alcotest.int "submission accepted" 201 resp.Http.status;
  (str_field resp "id", resp)

let wait_state t id target =
  wait_for
    (Printf.sprintf "%s to be %s" id target)
    (fun () -> str_field (call t "GET" ("/jobs/" ^ id)) "state" = target)

let chain_spec n = Dsl.print (fst (Helpers.sw_chain n))

let direct_json spec_text =
  match
    C.synthesize
      (Result.get_ok (Dsl.parse spec_text))
      Helpers.small_lib
  with
  | Ok r -> C.result_json r
  | Error msg -> Alcotest.failf "direct synthesis failed: %s" msg

let healthz_and_404 () =
  let t = mk_server () in
  check Alcotest.int "healthz" 200 (call t "GET" "/healthz").Http.status;
  check Alcotest.int "unknown job" 404 (call t "GET" "/jobs/j9").Http.status;
  check Alcotest.int "unknown path" 404 (call t "GET" "/nope").Http.status;
  check Alcotest.int "unknown method" 405
    (call t "TRACE" "/healthz").Http.status

(* A listener whose accept loop died must not look healthy: [accept] on
   a socket that was never [listen]ed fails at once (EINVAL), [serve]
   raises, and from then on [/healthz] answers 503 with the error. *)
let healthz_reports_dead_listener () =
  let t = mk_server () in
  check Alcotest.int "healthy before" 200 (call t "GET" "/healthz").Http.status;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      match Server.serve t fd with
      | () -> Alcotest.fail "serve returned on a socket that is not listening"
      | exception Unix.Unix_error _ -> ());
  let resp = call t "GET" "/healthz" in
  check Alcotest.int "dead listener" 503 resp.Http.status;
  check Alcotest.bool "ok is false" true
    (field resp "ok" = Some (Json.Bool false));
  if not (Helpers.contains (str_field resp "error") "accept") then
    Alcotest.failf "error does not name the failed call: %s" resp.Http.body

let bad_submissions_rejected () =
  let t = mk_server () in
  let bad body why =
    let resp = call t ~body "POST" "/jobs" in
    check Alcotest.int why 400 resp.Http.status
  in
  bad "not json at all" "bad JSON";
  bad "{\"options\":{}}" "missing spec";
  bad "{\"spec\":\"spec x\\ngraph g period -5\"}" "unparsable spec";
  bad (job_body ~options:[ ("jobs", "0") ] (chain_spec 2)) "jobs must be positive";
  bad (job_body ~options:[ ("turbo", "true") ] (chain_spec 2)) "unknown option";
  bad
    "{\"spec\":\"x\",\"resynth\":{\"kind\":\"warp\"}}"
    "unknown change kind"

let job_runs_to_byte_identical_result () =
  let t = mk_server () in
  let spec_text = chain_spec 3 in
  let id, resp = submit_ok t spec_text in
  check Alcotest.string "born queued" "queued" (str_field resp "state");
  wait_state t id "done";
  let result = call t "GET" ("/jobs/" ^ id ^ "/result") in
  check Alcotest.int "result served" 200 result.Http.status;
  check Alcotest.string "byte-identical to the direct flow"
    (direct_json spec_text) result.Http.body

let cache_hit_identical_and_no_synthesis () =
  let t = mk_server () in
  let spec_text = chain_spec 4 in
  let id1, _ = submit_ok t spec_text in
  wait_state t id1 "done";
  let fresh = (call t "GET" ("/jobs/" ^ id1 ^ "/result")).Http.body in
  let synth_runs () =
    match
      Option.bind
        (Option.bind (field (call t "GET" "/stats") "counters")
           (Json.member "synth_runs"))
        Json.int
    with
    | Some n -> n
    | None -> 0
  in
  let runs_before = synth_runs () in
  (* Same spec, different surface syntax: extra blank lines and comments
     must hash to the same cache line (the key is the canonical print). *)
  let id2, resp2 = submit_ok t ("# resubmitted\n\n" ^ spec_text ^ "\n# end\n") in
  check Alcotest.string "born done" "done" (str_field resp2 "state");
  check Alcotest.bool "flagged as cache hit" true
    (field resp2 "cache_hit" = Some (Json.Bool true));
  let cached = call t "GET" ("/jobs/" ^ id2 ^ "/result") in
  check Alcotest.string "cached bytes = fresh bytes" fresh cached.Http.body;
  check Alcotest.int "no new synthesis ran" runs_before (synth_runs ());
  (* A different option set must miss. *)
  let id3, resp3 =
    submit_ok t ~options:[ ("reconfig", "false") ] spec_text
  in
  check Alcotest.string "different options miss" "queued"
    (str_field resp3 "state");
  wait_state t id3 "done"

let concurrent_jobs_both_exact () =
  let t = mk_server ~max_in_flight:2 () in
  let a = chain_spec 2 and b = chain_spec 5 in
  let id_a, _ = submit_ok t a in
  let id_b, _ = submit_ok t b in
  wait_state t id_a "done";
  wait_state t id_b "done";
  check Alcotest.string "job A exact" (direct_json a)
    (call t "GET" ("/jobs/" ^ id_a ^ "/result")).Http.body;
  check Alcotest.string "job B exact" (direct_json b)
    (call t "GET" ("/jobs/" ^ id_b ^ "/result")).Http.body

let events_stream_and_cursor () =
  let t = mk_server () in
  let id, _ = submit_ok t (chain_spec 3) in
  wait_state t id "done";
  let events = call t "GET" ("/jobs/" ^ id ^ "/events") in
  check Alcotest.string "ndjson" "application/x-ndjson" events.Http.content_type;
  let lines =
    String.split_on_char '\n' events.Http.body
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "phases were streamed" true (List.length lines > 3);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok v ->
          check Alcotest.bool "event has a phase" true
            (Json.member "phase" v <> None)
      | Error msg -> Alcotest.failf "bad NDJSON line (%s): %s" msg line)
    lines;
  let tail =
    call t
      ~query:[ ("since", string_of_int (List.length lines)) ]
      "GET"
      ("/jobs/" ^ id ^ "/events")
  in
  check Alcotest.string "cursor past the end is empty" "" tail.Http.body

(* A gate the pre_run hook blocks on, so a test can hold a job in the
   running state for as long as it needs. *)
let gate () =
  let m = Mutex.create () and c = Condition.create () and open_ = ref false in
  let wait () =
    Mutex.lock m;
    while not !open_ do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    open_ := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  (wait, release)

let cancel_queued_job () =
  let wait, release = gate () in
  let t = mk_server ~max_in_flight:1 ~pre_run:(fun _ -> wait ()) () in
  let id1, _ = submit_ok t (chain_spec 2) in
  let id2, _ = submit_ok t (chain_spec 3) in
  wait_state t id1 "running";
  (* j2 is still queued behind the held slot: DELETE removes it outright. *)
  let resp = call t "DELETE" ("/jobs/" ^ id2) in
  check Alcotest.int "removed from the queue" 200 resp.Http.status;
  check Alcotest.string "immediately terminal" "cancelled"
    (str_field (call t "GET" ("/jobs/" ^ id2)) "state");
  check Alcotest.int "second cancel conflicts" 409
    (call t "DELETE" ("/jobs/" ^ id2)).Http.status;
  release ();
  wait_state t id1 "done";
  (* The slot is free again: a later job runs to completion. *)
  let id3, _ = submit_ok t (chain_spec 4) in
  wait_state t id3 "done"

let cancel_running_job () =
  let wait, release = gate () in
  let t = mk_server ~max_in_flight:1 ~pre_run:(fun _ -> wait ()) () in
  let id, _ = submit_ok t (chain_spec 2) in
  wait_state t id "running";
  let resp = call t "DELETE" ("/jobs/" ^ id) in
  check Alcotest.int "cooperative cancel accepted" 202 resp.Http.status;
  release ();
  wait_state t id "cancelled";
  check Alcotest.int "no result for a cancelled job" 409
    (call t "GET" ("/jobs/" ^ id ^ "/result")).Http.status;
  (* The freed slot runs the next job. *)
  let id2, _ = submit_ok t (chain_spec 3) in
  wait_state t id2 "done";
  check Alcotest.string "new job exact after a cancellation"
    (direct_json (chain_spec 3))
    (call t "GET" ("/jobs/" ^ id2 ^ "/result")).Http.body

let queue_full_is_503 () =
  let wait, release = gate () in
  let t = mk_server ~max_in_flight:1 ~queue_cap:1 ~pre_run:(fun _ -> wait ()) () in
  let id1, _ = submit_ok t (chain_spec 2) in
  wait_state t id1 "running";
  let _id2, _ = submit_ok t (chain_spec 3) in
  (* slot held + queue slot taken: the third submission must bounce *)
  let resp = call t ~body:(job_body (chain_spec 4)) "POST" "/jobs" in
  check Alcotest.int "backpressure" 503 resp.Http.status;
  release ()

let resynth_job () =
  let t = mk_server () in
  let spec_text =
    let spec, _, _ = Helpers.two_hw_graphs ~overlap:false () in
    Dsl.print spec
  in
  let body =
    Printf.sprintf
      "{\"spec\":\"%s\",\"resynth\":{\"kind\":\"departure\",\"graphs\":[1]}}"
      (Json.escape spec_text)
  in
  let resp = call t ~body "POST" "/jobs" in
  check Alcotest.int "accepted" 201 resp.Http.status;
  let id = str_field resp "id" in
  wait_state t id "done";
  let result = call t "GET" ("/jobs/" ^ id ^ "/result") in
  match Json.parse result.Http.body with
  | Ok v ->
      check
        (Alcotest.option Alcotest.string)
        "schema" (Some "crusade-resynth-1")
        (Option.bind (Json.member "schema" v) Json.str);
      check Alcotest.bool "has a verdict" true (Json.member "verdict" v <> None)
  | Error msg -> Alcotest.failf "resynth payload not JSON (%s)" msg

let stats_shape () =
  let t = mk_server () in
  let id, _ = submit_ok t (chain_spec 2) in
  wait_state t id "done";
  let resp = call t "GET" "/stats" in
  match Json.parse resp.Http.body with
  | Error msg -> Alcotest.failf "stats not JSON: %s" msg
  | Ok v ->
      List.iter
        (fun k ->
          check Alcotest.bool (k ^ " present") true (Json.member k v <> None))
        [ "queue_depth"; "in_flight"; "jobs"; "cache"; "counters"; "phases_us" ];
      let done_jobs =
        Option.bind (Option.bind (Json.member "jobs" v) (Json.member "done")) Json.int
      in
      check (Alcotest.option Alcotest.int) "one done job" (Some 1) done_jobs;
      check Alcotest.bool "per-phase latency recorded" true
        (match Json.member "phases_us" v with
        | Some (Json.Obj (_ :: _)) -> true
        | _ -> false)

(* --- black box: the real server over loopback sockets --- *)

(* Minimal test-local HTTP client: one request per connection,
   Connection: close, read to EOF. *)
let http_request ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      meth path (String.length body) body
  in
  let rec send off =
    if off < String.length req then
      send (off + Unix.write_substring fd req off (String.length req - off))
  in
  send 0;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec recv () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      recv ()
    end
  in
  recv ();
  let raw = Buffer.contents buf in
  let status =
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "unparsable response: %S" raw
  in
  let body =
    match Helpers.contains raw "\r\n\r\n" with
    | true ->
        let rec find i =
          if String.sub raw i 4 = "\r\n\r\n" then i + 4 else find (i + 1)
        in
        let i = find 0 in
        String.sub raw i (String.length raw - i)
    | false -> ""
  in
  (status, body)

let black_box_over_sockets () =
  let t = mk_server ~max_in_flight:2 () in
  let port = Server.start ~port:0 t in
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  let get path = http_request ~port "GET" path "" in
  let status, body = get "/healthz" in
  check Alcotest.int "healthz up" 200 status;
  check Alcotest.string "healthz body" "{\"ok\":true}" body;
  let spec_text = chain_spec 3 in
  let submit () = http_request ~port "POST" "/jobs" (job_body spec_text) in
  let status, body = submit () in
  check Alcotest.int "submitted over the wire" 201 status;
  let id =
    match Option.bind (Result.to_option (Json.parse body)) (Json.member "id") with
    | Some (Json.Str id) -> id
    | _ -> Alcotest.failf "no id in %s" body
  in
  wait_for "job done over sockets" (fun () ->
      Helpers.contains (snd (get ("/jobs/" ^ id))) "\"state\":\"done\"");
  let _, fresh = get ("/jobs/" ^ id ^ "/result") in
  check Alcotest.string "socket result = direct flow" (direct_json spec_text)
    fresh;
  (* identical re-submit over the wire: a done-at-birth cache hit *)
  let status, body2 = submit () in
  check Alcotest.int "resubmitted" 201 status;
  check Alcotest.bool "cache hit over the wire" true
    (Helpers.contains body2 "\"cache_hit\":true");
  let id2 =
    match Option.bind (Result.to_option (Json.parse body2)) (Json.member "id") with
    | Some (Json.Str id) -> id
    | _ -> Alcotest.failf "no id in %s" body2
  in
  let _, cached = get ("/jobs/" ^ id2 ^ "/result") in
  check Alcotest.string "cached bytes over the wire" fresh cached;
  let _, events = get ("/jobs/" ^ id ^ "/events") in
  check Alcotest.bool "events streamed" true (Helpers.contains events "\"phase\"");
  let status, _ = http_request ~port "DELETE" ("/jobs/" ^ id2) "" in
  check Alcotest.int "cancelling a done job conflicts" 409 status

let socket_pipelining () =
  let t = mk_server () in
  let port = Server.start ~port:0 t in
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Two pipelined requests in a single write on one keep-alive
     connection; the second carries Connection: close. *)
  let wire =
    "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    ^ "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
  in
  let rec send off =
    if off < String.length wire then
      send (off + Unix.write_substring fd wire off (String.length wire - off))
  in
  send 0;
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec recv () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      recv ()
    end
  in
  recv ();
  let raw = Buffer.contents buf in
  let count_bodies =
    let rec go i acc =
      if i + 11 > String.length raw then acc
      else if String.sub raw i 11 = "{\"ok\":true}" then go (i + 11) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "both pipelined responses arrive" 2 count_bodies

(* A client that pipelines many requests and hangs up without reading
   the responses: the server's writes then hit a closed peer.  That must
   cost the connection, not the process — under SIGPIPE's default
   action it kills the server, and this test runner with it. *)
let socket_hangup_mid_pipeline () =
  let t = mk_server () in
  let port = Server.start ~port:0 t in
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let wire =
    String.concat "" (List.init 200 (fun _ -> "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"))
  in
  let rec send off =
    if off < String.length wire then
      send (off + Unix.write_substring fd wire off (String.length wire - off))
  in
  send 0;
  Unix.close fd;
  (* Give the connection thread time to write into the dead socket. *)
  Thread.delay 0.3;
  let status, _ = http_request ~port "GET" "/healthz" "" in
  check Alcotest.int "healthz on a new connection" 200 status

let suite =
  [
    Alcotest.test_case "http: simple GET" `Quick simple_get;
    Alcotest.test_case "http: POST with body" `Quick post_with_body;
    Alcotest.test_case "http: pipelined keep-alive" `Quick pipelined_keepalive;
    Alcotest.test_case "http: drip-fed bytes" `Quick drip_fed_request;
    Alcotest.test_case "http: truncation and eof" `Quick truncation_and_eof;
    Alcotest.test_case "http: size limits" `Quick limits_enforced;
    Alcotest.test_case "http: malformed requests" `Quick malformed_requests;
    Alcotest.test_case "http: bare LF accepted" `Quick bare_lf_accepted;
    Alcotest.test_case "http: percent decoding" `Quick percent_decoding;
    Alcotest.test_case "http: response wire format" `Quick response_wire_format;
    Alcotest.test_case "json: roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json: strictness" `Quick json_strictness;
    Alcotest.test_case "queue: fifo" `Quick queue_fifo;
    Alcotest.test_case "queue: cap and close" `Quick queue_cap_and_close;
    Alcotest.test_case "queue: remove" `Quick queue_remove;
    Alcotest.test_case "queue: cross-thread fifo" `Quick queue_cross_thread_fifo;
    Alcotest.test_case "queue: remove/pop race" `Quick queue_remove_pop_race;
    Alcotest.test_case "store: legal lifecycle" `Quick store_legal_lifecycle;
    Alcotest.test_case "store: illegal edges rejected" `Quick
      store_illegal_edges_rejected;
    Alcotest.test_case "store: event cursor" `Quick store_event_cursor;
    Alcotest.test_case "api: healthz and 404s" `Quick healthz_and_404;
    Alcotest.test_case "api: healthz reports a dead listener" `Quick
      healthz_reports_dead_listener;
    Alcotest.test_case "api: bad submissions rejected" `Quick
      bad_submissions_rejected;
    Alcotest.test_case "api: job result byte-identical" `Quick
      job_runs_to_byte_identical_result;
    Alcotest.test_case "api: cache hit, no new synthesis" `Quick
      cache_hit_identical_and_no_synthesis;
    Alcotest.test_case "api: concurrent jobs both exact" `Quick
      concurrent_jobs_both_exact;
    Alcotest.test_case "api: events stream and cursor" `Quick
      events_stream_and_cursor;
    Alcotest.test_case "api: cancel queued job" `Quick cancel_queued_job;
    Alcotest.test_case "api: cancel running job" `Quick cancel_running_job;
    Alcotest.test_case "api: queue full is 503" `Quick queue_full_is_503;
    Alcotest.test_case "api: resynth job" `Quick resynth_job;
    Alcotest.test_case "api: stats shape" `Quick stats_shape;
    Alcotest.test_case "socket: black box" `Quick black_box_over_sockets;
    Alcotest.test_case "socket: pipelining" `Quick socket_pipelining;
    Alcotest.test_case "socket: hang-up mid-pipeline" `Quick
      socket_hangup_mid_pipeline;
  ]
