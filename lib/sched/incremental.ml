module Spec = Crusade_taskgraph.Spec
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Trace = Crusade_util.Trace

(* The policy layer over [Schedule.Replay]: keep recordings of recent
   full scheduler runs alive, and when the next candidate shares the
   spec/clustering of one of them, diff the candidate against that
   recording's snapshot and replay the provably identical prefix instead
   of rebuilding the timelines from scratch.  Candidate evaluation
   perturbs one cluster at a time, so successive architectures mostly
   agree and the replayable prefix is usually large.

   Recordings live in a small MRU list keyed by the recording's own
   (spec, clustering, copy_cap) identity — [Schedule.Replay.compatible]
   is exactly that key check — so a trajectory that restarts from a
   clustering it has seen before (portfolio rounds, rescheduling)
   replays against its previous basis instead of paying a cold rebuild.
   When no exact key matches, a recording under a *different* clustering
   of the same spec/copy_cap is adopted as a partial basis instead of
   being discarded ([Schedule.Replay.adoptable]): the per-task diff
   marks everything the clustering change perturbed, so the adopted
   prefix still replays bit-identically and only the cut region is
   rescheduled.  The list is a single [Atomic]: recordings are immutable
   once captured, so portfolio trajectories on other domains may read it
   safely, and a lost race on publication merely keeps equally valid
   recordings. *)

(* The slot store is separable from the engine so that several engines
   may share one: portfolio trajectories run content-identical but
   physically distinct clusterings over the same spec, so a basis
   recorded by one trajectory warm-starts the others via adoption. *)
module Store = struct
  type t = Schedule.Replay.recording list Atomic.t

  let create () : t = Atomic.make []
end

type t = {
  slots : Store.t;
  trace : Trace.t option;
  replay_counter : Trace.Counter.t;
  rebuild_counter : Trace.Counter.t;
  adoption_counter : Trace.Counter.t;
  basis_cut_counter : Trace.Counter.t;
}

(* How many distinct (spec, clustering, copy_cap) bases to keep.  A
   synthesis run touches one clustering at a time, but a shared
   portfolio store sees one key per trajectory plus revisits, so the
   list is sized for a typical portfolio width while keeping lookup
   O(1)-ish. *)
let slot_capacity = 8

let create ?store ?trace ?metrics () =
  let counter name =
    match metrics with
    | Some m -> Trace.Metrics.counter m name
    | None -> Trace.Counter.make ()
  in
  {
    slots = (match store with Some s -> s | None -> Store.create ());
    trace;
    replay_counter = counter "eval.replays";
    rebuild_counter = counter "eval.rebuilds";
    adoption_counter = counter "eval.basis_adoptions";
    basis_cut_counter = counter "eval.basis_cuts";
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Move the new recording to the front of the MRU list, dropping any
   stale basis for the same key and trimming to capacity.  Bounded CAS
   retries: losing every race just means concurrent publishes won, and
   any published recording is a valid basis. *)
let publish t ~copy_cap spec clustering recording =
  let attempt () =
    let cur = Atomic.get t.slots in
    let rest =
      List.filter
        (fun r ->
          not (Schedule.Replay.compatible r ~copy_cap spec clustering))
        cur
    in
    Atomic.compare_and_set t.slots cur
      (recording :: take (slot_capacity - 1) rest)
  in
  ignore (attempt () || attempt () || attempt () || attempt ())

(* Exact key match first — its diff is the cheapest and its prefix the
   longest — then fall back to adopting any same-spec/same-cap basis in
   MRU order.  Within a single trajectory the fallback never fires
   (every published basis carries the trajectory's own clustering
   identity), so plain runs behave exactly as before; adoption is what
   makes a *shared* store useful across clustering identities. *)
let lookup t ~copy_cap spec clustering =
  let slots = Atomic.get t.slots in
  match
    List.find_opt
      (fun r -> Schedule.Replay.compatible r ~copy_cap spec clustering)
      slots
  with
  | Some r -> Some (`Exact r)
  | None -> (
      match
        List.find_opt
          (fun r -> Schedule.Replay.adoptable r ~copy_cap spec)
          slots
      with
      | Some r -> Some (`Adopted r)
      | None -> None)

let replays t = Trace.Counter.get t.replay_counter
let rebuilds t = Trace.Counter.get t.rebuild_counter
let adoptions t = Trace.Counter.get t.adoption_counter
let basis_cuts t = Trace.Counter.get t.basis_cut_counter

let record t ?(copy_cap = Schedule.default_copy_cap) (spec : Spec.t)
    (clustering : Clustering.t) (arch : Arch.t) =
  Trace.Counter.incr t.rebuild_counter;
  match
    Trace.span t.trace "schedule.run" (fun () ->
        Schedule.Replay.record ~copy_cap spec clustering arch)
  with
  | Error _ as e -> e  (* keep the previous recordings *)
  | Ok (sched, recording) ->
      publish t ~copy_cap spec clustering recording;
      Ok sched

(* Refresh the replay basis without materializing a schedule: the
   synthesis loops call this at commit points, where the schedule
   itself would be discarded anyway. *)
let refresh t ?(copy_cap = Schedule.default_copy_cap) (spec : Spec.t)
    (clustering : Clustering.t) (arch : Arch.t) =
  Trace.Counter.incr t.rebuild_counter;
  match
    Trace.span t.trace "schedule.run" (fun () ->
        Schedule.Replay.record_only ~copy_cap spec clustering arch)
  with
  | Error _ -> ()  (* keep the previous recordings *)
  | Ok recording -> publish t ~copy_cap spec clustering recording

(* A recording never stops being a valid diff basis (it is immutable and
   the diff is computed against the candidate), so evaluation always
   replays when a compatible — or, failing that, adoptable — recording
   exists: even a zero-length prefix is a win, because the verdict-only
   run skips materialization, activity tracking and recording overhead.
   Freshness of the basis only affects the prefix length; the synthesis
   loops refresh it with a full [record] run at each commit point (every
   materializing [Memo.run] goes through [record]). *)
let evaluate t ?(copy_cap = Schedule.default_copy_cap) (spec : Spec.t)
    (clustering : Clustering.t) (arch : Arch.t) =
  match lookup t ~copy_cap spec clustering with
  | Some (`Exact r) ->
      let prep = Schedule.Replay.prepare r spec clustering arch in
      Trace.Counter.incr t.replay_counter;
      Trace.instant t.trace "eval.replay";
      `Replayed (Schedule.Replay.replay_verdict prep)
  | Some (`Adopted r) ->
      let prep = Schedule.Replay.prepare r spec clustering arch in
      Trace.Counter.incr t.replay_counter;
      Trace.Counter.incr t.adoption_counter;
      (* Account the rescheduled remainder: steps the adopted basis
         could *not* cover.  A small total relative to adoptions means
         the bases transplant well across clusterings. *)
      Trace.Counter.add t.basis_cut_counter
        (Schedule.Replay.steps r - Schedule.Replay.cut prep);
      Trace.instant t.trace "eval.adopt";
      `Replayed (Schedule.Replay.replay_verdict prep)
  | None -> `Ran (record t ~copy_cap spec clustering arch)
