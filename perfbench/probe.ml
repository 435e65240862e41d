(* Candidate-loop probe: replays, from outside the program and through
   public functions only, the steps one allocation candidate costs, on
   the final state of a synthesis result:

     per sampled cluster: Arch.checkpoint, Arch.unplace_cluster,
       Options.enumerate, then per option: Arch.checkpoint,
       Options.apply (placement plus Connect.ensure),
       Schedule.Replay.prepare, replay_verdict, Arch.rollback;

   plus one Schedule.run, one Schedule.estimate and one
   Schedule.Replay.record_only call.  Every mutation is rolled back, and
   the caller checks that the result's cost and result_json did not
   move. *)

module C = Crusade.Crusade_core
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Schedule = Crusade_sched.Schedule
module Clustering = Crusade_cluster.Clustering

type t = {
  enumerate_us : float;
  apply_us : float;
  rollback_us : float;
  prepare_us : float;
  replay_us : float;
  run_us : float;
  estimate_us : float;
  record_only_us : float;
}

let clusters_sampled = 12

let now = Unix.gettimeofday

(* Mean microseconds per call of the timed thunks. *)
type clock = { mutable sum : float; mutable n : int }

let clock () = { sum = 0.0; n = 0 }

let timed c f =
  let t0 = now () in
  let x = f () in
  c.sum <- c.sum +. (now () -. t0);
  c.n <- c.n + 1;
  x

let mean_us c = if c.n = 0 then 0.0 else c.sum /. float_of_int c.n *. 1e6

let once f =
  let c = clock () in
  ignore (timed c f);
  mean_us c

let run ~seed ~reconfig (r : C.result) =
  let spec = r.C.spec and clustering = r.C.clustering and arch = r.C.arch in
  let record_only_us =
    once (fun () -> Schedule.Replay.record_only spec clustering arch)
  in
  let run_us = once (fun () -> Schedule.run spec clustering arch) in
  let estimate_us = once (fun () -> Schedule.estimate spec clustering arch) in
  let recording =
    match Schedule.Replay.record_only spec clustering arch with
    | Ok rc -> rc
    | Error msg -> failwith ("probe: record_only: " ^ msg)
  in
  let placed =
    Array.to_list clustering.Clustering.clusters
    |> List.filter (fun (c : Clustering.cluster) ->
           Arch.site_of_cluster arch c.Clustering.cid <> None)
    |> Array.of_list
  in
  let rng = Crusade_util.Rng.create seed in
  let enumerate = clock () and apply = clock () and rollback = clock () in
  let prepare = clock () and replay = clock () in
  for _ = 1 to min clusters_sampled (Array.length placed) do
    let cluster = placed.(Crusade_util.Rng.int rng (Array.length placed)) in
    let outer = Arch.checkpoint arch in
    Arch.unplace_cluster arch clustering cluster;
    let options =
      timed enumerate (fun () ->
          Options.enumerate arch spec clustering cluster ~allow_new_modes:reconfig ())
    in
    List.iter
      (fun option ->
        let ck = Arch.checkpoint arch in
        (match timed apply (fun () -> Options.apply arch spec clustering cluster option) with
        | Ok () ->
            let prep =
              timed prepare (fun () ->
                  Schedule.Replay.prepare recording spec clustering arch)
            in
            ignore (timed replay (fun () -> Schedule.Replay.replay_verdict prep))
        | Error _ -> ());
        timed rollback (fun () -> Arch.rollback arch ck))
      options;
    Arch.rollback arch outer
  done;
  {
    enumerate_us = mean_us enumerate;
    apply_us = mean_us apply;
    rollback_us = mean_us rollback;
    prepare_us = mean_us prepare;
    replay_us = mean_us replay;
    run_us;
    estimate_us;
    record_only_us;
  }
