module Spec = Crusade_taskgraph.Spec
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Trace = Crusade_util.Trace

(* The policy layer over [Schedule.Replay]: keep one recording alive
   as the basis, and when the next candidate shares its
   spec/clustering/copy_cap ([Schedule.Replay.compatible]), diff the
   candidate against that recording's snapshot and replay the provably
   identical prefix instead of rebuilding the timelines from scratch.
   Candidate evaluation perturbs one cluster at a time, so successive
   architectures mostly agree and the replayable prefix is usually
   large.

   One engine serves one synthesis run, and every call of a run carries
   the same (spec, clustering, copy_cap) key, so a single slot holds
   every basis the run can use.  A call under another key rebuilds and
   takes the slot over.

   A replay records the steps it list-schedules, so the candidate a
   caller commits already has its recording: [adopt] splices it onto
   the basis prefix instead of scheduling the committed architecture
   again.  Only the tails a caller adopts are spliced, and every
   schedule a run keeps is read off an adopted basis. *)

type t = {
  reference : bool;  (* plain [Schedule.run] per call, nothing recorded *)
  mutable basis : Schedule.Replay.recording option;
  mutable pending : Schedule.Replay.tail option;  (* the last replay's tail *)
  trace : Trace.t option;
  replay_counter : Trace.Counter.t;
  rebuild_counter : Trace.Counter.t;
  prune_counter : Trace.Counter.t;
}

let create ?(reference = false) ?basis ?trace ?metrics () =
  let counter name =
    match metrics with
    | Some m -> Trace.Metrics.counter m name
    | None -> Trace.Counter.make ()
  in
  {
    reference;
    (* A reference evaluator never replays, so it holds no basis. *)
    basis = (if reference then None else basis);
    pending = None;
    trace;
    replay_counter = counter "eval.replays";
    rebuild_counter = counter "eval.rebuilds";
    prune_counter = counter "eval.pruned";
  }

let replays t = Trace.Counter.get t.replay_counter
let rebuilds t = Trace.Counter.get t.rebuild_counter
let prunes t = Trace.Counter.get t.prune_counter

let verdict_of (s : Schedule.t) =
  {
    Schedule.v_tardiness = s.Schedule.total_tardiness;
    v_met = s.Schedule.deadlines_met;
    v_scheduled = s.Schedule.scheduled_tasks;
  }

(* A recording never stops being a valid diff basis (it is immutable and
   the diff is computed against the candidate), so evaluation always
   replays when the slot holds a compatible recording, even from a
   zero-length prefix.  Freshness of the basis only affects the prefix
   length; callers adopt each committed candidate's replayed tail
   ([adopt]).  Without a compatible basis the evaluation rebuilds: a
   full recording run that becomes the basis and leaves no tail.

   Only the replay honours [limit]: a rebuild must run to the end to be
   a recording, and the reference evaluator is the oracle. *)
let evaluate t ?(copy_cap = Schedule.default_copy_cap) ?(limit = max_int)
    (spec : Spec.t) (clustering : Clustering.t) (arch : Arch.t) =
  t.pending <- None;
  let verdict =
    if t.reference then
      Result.map verdict_of
        (Trace.span t.trace "schedule.run" (fun () ->
             Schedule.run ~copy_cap spec clustering arch))
    else
      match t.basis with
      | Some r when Schedule.Replay.compatible r ~copy_cap spec clustering -> (
          let prep = Schedule.Replay.prepare r spec clustering arch in
          Trace.Counter.incr t.replay_counter;
          Trace.instant t.trace "eval.replay";
          match Schedule.Replay.replay_tail ~limit prep with
          | Error _ as e -> e
          | Ok (v, tail) ->
              t.pending <- tail;
              Ok v)
      | Some _ | None -> (
          Trace.Counter.incr t.rebuild_counter;
          match
            Trace.span t.trace "schedule.run" (fun () ->
                Schedule.Replay.record_only ~copy_cap spec clustering arch)
          with
          | Error _ as e -> e  (* keep the previous basis *)
          | Ok r ->
              t.basis <- Some r;
              Ok (verdict_of (Schedule.Replay.schedule r)))
  in
  (match verdict with
  | Ok v when v.Schedule.v_tardiness > limit -> Trace.Counter.incr t.prune_counter
  | Ok _ | Error _ -> ());
  verdict

let take t =
  let p = t.pending in
  t.pending <- None;
  p

let adopt t tail = t.basis <- Some (Schedule.Replay.splice tail)

(* An unbounded evaluation whose recording becomes the basis, and the
   schedule read off that basis. *)
let run t ?(copy_cap = Schedule.default_copy_cap) (spec : Spec.t)
    (clustering : Clustering.t) (arch : Arch.t) =
  if t.reference then
    Trace.span t.trace "schedule.run" (fun () ->
        Schedule.run ~copy_cap spec clustering arch)
  else
    Result.map
      (fun _ ->
        Option.iter (adopt t) (take t);
        Schedule.Replay.schedule (Option.get t.basis))
      (evaluate t ~copy_cap spec clustering arch)
