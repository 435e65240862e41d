(* Incremental rescheduling: the replay engine's exactness contract.

   Every test records a full scheduler run on a base architecture,
   perturbs the placement (the way candidate evaluation does: one
   cluster moves), and asserts that replaying the recording against the
   perturbed architecture is bit-identical — schedule and verdict — to
   a fresh [Schedule.run] on it, that a bounded replay agrees wherever
   its limit lets it and reports a loss where it stops, and that the
   tail a replay records splices to the candidate's own recording
   whenever the replay ran to the end.
   Micro-specs pin the structurally interesting cases (single PE, a
   shared link, a mode-window boundary, the copy-cap extrapolation
   edge); a qcheck property sweeps random workloads under random
   single-cluster perturbations.  A last test pins the engine's single
   recording slot. *)

module Spec = Crusade_taskgraph.Spec
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Schedule = Crusade_sched.Schedule
module W = Crusade_workloads.Comm_system

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* First-fit placement: options are ordered by incremental cost, so
   non-overlapping clusters naturally share devices through new modes
   when reconfiguration-style placements are allowed. *)
let place_all spec clustering arch =
  Array.iter
    (fun (c : Clustering.cluster) ->
      let options =
        Options.enumerate arch spec clustering c ~allow_new_modes:true ()
      in
      let rec attempt = function
        | [] -> Alcotest.failf "cluster %d: no applicable option" c.Clustering.cid
        | o :: rest -> (
            match Options.apply arch spec clustering c o with
            | Ok () -> ()
            | Error _ -> attempt rest)
      in
      attempt options)
    clustering.Clustering.clusters

(* Move one cluster somewhere else: unplace it and apply the first
   applicable option that targets a different PE (a fresh instance if
   nothing else moves it).  Falls back to leaving it unplaced — also a
   legal candidate state for the scheduler. *)
let move_cluster spec clustering arch cid =
  let c = clustering.Clustering.clusters.(cid) in
  let old_pe =
    match Arch.site_of_cluster arch cid with
    | Some s -> s.Arch.s_pe
    | None -> -1
  in
  Arch.unplace_cluster arch clustering c;
  let moves (o : Options.t) =
    match o.Options.kind with
    | Options.Existing_site s -> s.Arch.s_pe <> old_pe
    | Options.New_mode pe_id -> pe_id <> old_pe
    | Options.New_pe _ -> true
  in
  let rec attempt = function
    | [] -> ()
    | o :: rest -> (
        match Options.apply arch spec clustering c o with
        | Ok () -> ()
        | Error _ -> attempt rest)
  in
  attempt
    (List.filter moves
       (Options.enumerate arch spec clustering c ~allow_new_modes:true ()))

let scheds_equal (a : Schedule.t) (b : Schedule.t) =
  a.Schedule.instances = b.Schedule.instances
  && a.Schedule.hyperperiod = b.Schedule.hyperperiod
  && a.Schedule.graph_windows = b.Schedule.graph_windows
  && a.Schedule.deadlines_met = b.Schedule.deadlines_met
  && a.Schedule.total_tardiness = b.Schedule.total_tardiness
  && a.Schedule.scheduled_tasks = b.Schedule.scheduled_tasks
  && a.Schedule.mode_switches = b.Schedule.mode_switches

(* The exactness check: replay of [recording] against [arch] must agree
   bit-for-bit with a fresh run — both the full schedule and the
   verdict-only path — including agreeing on failure.  The bounded
   verdict must agree too whenever the fresh tardiness T is within its
   limit, and otherwise report a loss: not met, with a tardiness in
   (limit, T].  When the fresh run fails, a bounded replay either fails
   the same way or stops above its limit before reaching the failure.

   Every replay also records its tail: one that scheduled every
   instance must splice to a recording equal, field for field, to
   [record_only] of [arch]; one that its limit stopped must record
   nothing. *)
let assert_replay_exact ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch recording =
  if not (Schedule.Replay.compatible recording ~copy_cap spec clustering) then
    Alcotest.failf "%s: recording not compatible with its own inputs" name;
  let prep = Schedule.Replay.prepare recording spec clustering arch in
  let stopped limit (v : Schedule.verdict) =
    (not v.Schedule.v_met) && v.Schedule.v_tardiness > limit
  in
  let full = Schedule.Replay.record_only ~copy_cap spec clustering arch in
  let check_tail what (v : Schedule.verdict) tail =
    match (tail, full) with
    | Some tail, Ok full ->
        check Alcotest.bool (what ^ ": splice equals record_only") true
          (Schedule.Replay.equal (Schedule.Replay.splice tail) full)
    | Some _, Error msg ->
        Alcotest.failf "%s: recorded a tail where record_only fails: %s" what msg
    | None, Ok full ->
        check Alcotest.bool (what ^ ": only a stopped replay records nothing") true
          (v.Schedule.v_scheduled < Schedule.Replay.steps full)
    | None, Error _ -> ()
  in
  let bounded limit =
    let what = Printf.sprintf "%s: limit %d" name limit in
    match Schedule.Replay.replay_tail ~limit prep with
    | Error _ as e -> e
    | Ok (v, tail) ->
        check_tail what v tail;
        check Alcotest.bool (what ^ ": replay_verdict agrees") true
          (Schedule.Replay.replay_verdict ~limit prep = Ok v);
        Ok v
  in
  let unbounded = Schedule.Replay.replay_tail prep in
  (match unbounded with
  | Ok (v, tail) -> check_tail (name ^ ": unbounded") v tail
  | Error _ -> ());
  (* The schedule a replay keeps: its tail spliced and read off. *)
  let replayed =
    Result.map
      (fun (_, tail) ->
        Schedule.Replay.schedule (Schedule.Replay.splice (Option.get tail)))
      unbounded
  in
  match
    ( Schedule.run ~copy_cap spec clustering arch,
      replayed,
      Schedule.Replay.replay_verdict prep )
  with
  | Ok fresh, Ok replayed, Ok verdict ->
      check Alcotest.bool (name ^ ": schedule bit-identical") true
        (scheds_equal fresh replayed);
      let exact (v : Schedule.verdict) =
        v.Schedule.v_tardiness = fresh.Schedule.total_tardiness
        && v.Schedule.v_met = fresh.Schedule.deadlines_met
        && v.Schedule.v_scheduled = fresh.Schedule.scheduled_tasks
      in
      check Alcotest.bool (name ^ ": verdict bit-identical") true (exact verdict);
      let t = fresh.Schedule.total_tardiness in
      List.iter
        (fun limit ->
          let what = Printf.sprintf "%s: limit %d, tardiness %d" name limit t in
          match bounded limit with
          | Error msg -> Alcotest.failf "%s: bounded replay failed: %s" what msg
          | Ok v when t <= limit ->
              check Alcotest.bool (what ^ ": verdict bit-identical") true (exact v)
          | Ok v ->
              check Alcotest.bool (what ^ ": reported as a loss") true
                (stopped limit v && v.Schedule.v_tardiness <= t))
        (List.filter (fun limit -> limit >= 0) [ 0; t / 2; t - 1; t ])
  | Error e_fresh, Error e_run, Error e_verdict ->
      check Alcotest.string (name ^ ": replay fails identically") e_fresh e_run;
      check Alcotest.string (name ^ ": replay_verdict fails identically") e_fresh e_verdict;
      List.iter
        (fun limit ->
          match bounded limit with
          | Error e ->
              check Alcotest.string (name ^ ": bounded replay fails identically")
                e_fresh e
          | Ok v ->
              check Alcotest.bool (name ^ ": bounded replay stops above its limit")
                true (stopped limit v))
        [ 0; 1 ]
  | Ok _, _, _ | Error _, _, _ ->
      Alcotest.failf "%s: replay and fresh run disagree on success" name

(* Record on the base placement, apply [perturb], check exactness on the
   perturbed architecture (and, first, on the unperturbed one: a cut at
   the full recording must still replay exactly). *)
let record_perturb_check ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch perturb =
  let recording =
    match Schedule.Replay.record_only ~copy_cap spec clustering arch with
    | Ok r -> r
    | Error msg -> Alcotest.failf "%s: record failed: %s" name msg
  in
  assert_replay_exact ~copy_cap (name ^ " (identity)") spec clustering arch
    recording;
  perturb ();
  assert_replay_exact ~copy_cap name spec clustering arch recording

let clustering_of ?(max_cluster_size = 2) spec lib =
  Clustering.run ~max_cluster_size spec lib

(* --- Micro-spec: every task on one CPU ------------------------------- *)

let single_pe () =
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib 4 in
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  record_perturb_check "single-pe" spec clustering arch (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(0).Clustering.cid)

(* --- Micro-spec: two PEs communicating over a shared link ------------ *)

let shared_link () =
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib 4 in
  let clustering = clustering_of ~max_cluster_size:1 spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  (* Split the chain across PEs so at least one edge crosses a link. *)
  let nc = Array.length clustering.Clustering.clusters in
  move_cluster spec clustering arch (nc - 1);
  record_perturb_check "shared-link" spec clustering arch (fun () ->
      move_cluster spec clustering arch (nc - 2))

(* --- Micro-spec: reconfiguration mode-window boundary ---------------- *)

let mode_window () =
  let lib = Helpers.small_lib in
  let spec, _, _ = Helpers.two_hw_graphs ~lib ~overlap:false () in
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  (* First-fit placement shares one programmable device through a second
     mode (the graphs do not overlap), so the recording carries a mode
     switch whose boot window the replay must reproduce exactly. *)
  place_all spec clustering arch;
  record_perturb_check "mode-window" spec clustering arch (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(1).Clustering.cid)

(* --- Micro-spec: copy-cap extrapolation edge ------------------------- *)

let copy_cap_edge () =
  let lib = Helpers.small_lib in
  let b = Spec.Builder.create () in
  let fast = Spec.Builder.add_graph b ~name:"fast" ~period:2_000 ~deadline:1_800 () in
  let slow = Spec.Builder.add_graph b ~name:"slow" ~period:16_000 ~deadline:12_000 () in
  let f1 =
    Spec.Builder.add_task b ~graph:fast ~name:"f1" ~exec:(Helpers.cpu_exec ~lib 300) ()
  in
  let f2 =
    Spec.Builder.add_task b ~graph:fast ~name:"f2" ~exec:(Helpers.cpu_exec ~lib 300) ()
  in
  Spec.Builder.add_edge b ~src:f1 ~dst:f2 ~bytes:32;
  let s1 =
    Spec.Builder.add_task b ~graph:slow ~name:"s1" ~exec:(Helpers.cpu_exec ~lib 900) ()
  in
  let s2 =
    Spec.Builder.add_task b ~graph:slow ~name:"s2" ~exec:(Helpers.cpu_exec ~lib 900) ()
  in
  Spec.Builder.add_edge b ~src:s1 ~dst:s2 ~bytes:32;
  let spec = Spec.Builder.finish_exn b ~name:"copy-cap-edge" () in
  (* hyperperiod/period = 8 copies of the fast graph against a cap of 2:
     the recording covers only the explicit window and the verdict
     extrapolates the rest — the replay must land on the same numbers. *)
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  record_perturb_check ~copy_cap:2 "copy-cap-edge" spec clustering arch
    (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(0).Clustering.cid)

(* --- Property: random single-cluster perturbations ------------------- *)

let tiny_params seed =
  {
    W.name = Printf.sprintf "inc%d" seed;
    n_tasks = 40;
    seed;
    hw_fraction = 0.5;
    family_slots = 3;
    asic_fraction = 0.1;
    cpld_fraction = 0.1;
  }

let replay_exact_under_perturbation =
  QCheck.Test.make
    ~name:"replay is bit-identical under random single-cluster moves" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let lib = Helpers.stock_lib in
      let spec = W.generate lib (tiny_params ((seed mod 997) + 1)) in
      let clustering = Clustering.run ~max_cluster_size:4 spec lib in
      let arch = Arch.create lib in
      place_all spec clustering arch;
      let recording =
        match Schedule.Replay.record_only spec clustering arch with
        | Ok r -> r
        | Error msg -> QCheck.Test.fail_reportf "record failed: %s" msg
      in
      let rng = Random.State.make [| seed |] in
      let nc = Array.length clustering.Clustering.clusters in
      (* A handful of successive moves against one recording: the diff
         is against the snapshot, so later moves exercise wider cuts. *)
      List.iter
        (fun move ->
          move_cluster spec clustering arch (Random.State.int rng nc);
          assert_replay_exact
            (Printf.sprintf "seed %d move %d" seed move)
            spec clustering arch recording)
        [ 1; 2; 3 ];
      true)

(* One recording per engine: a basis handed to [create] serves the
   first evaluation by replay; an evaluation under a clustering the
   engine did not record rebuilds instead, and its recording takes the
   slot over — the next evaluation under that clustering replays, and
   the seeded clustering's recording is gone. *)
let one_recording_per_engine () =
  let module I = Crusade_sched.Incremental in
  let lib = Helpers.stock_lib in
  let spec = W.generate lib (tiny_params 3) in
  let cl_a = Clustering.run ~max_cluster_size:4 spec lib in
  let cl_b = Clustering.run ~max_cluster_size:2 spec lib in
  let arch_a = Arch.create lib in
  place_all spec cl_a arch_a;
  let arch_b = Arch.create lib in
  place_all spec cl_b arch_b;
  let basis =
    match Schedule.Replay.record_only spec cl_a arch_a with
    | Ok r -> r
    | Error msg -> Alcotest.failf "record failed: %s" msg
  in
  let eng = I.create ~basis () in
  (* Every verdict, replayed or rebuilt, must be a fresh run's. *)
  let evaluate clustering arch =
    match (I.evaluate eng spec clustering arch, Schedule.run spec clustering arch) with
    | Ok v, Ok fresh ->
        check Alcotest.bool "verdict bit-identical" true
          (v.Schedule.v_tardiness = fresh.Schedule.total_tardiness
          && v.Schedule.v_met = fresh.Schedule.deadlines_met
          && v.Schedule.v_scheduled = fresh.Schedule.scheduled_tasks)
    | Error msg, _ | _, Error msg -> Alcotest.failf "evaluation failed: %s" msg
  in
  let counts name replays rebuilds =
    check
      Alcotest.(pair int int)
      (name ^ " (replays, rebuilds)") (replays, rebuilds)
      (I.replays eng, I.rebuilds eng)
  in
  evaluate cl_a arch_a;
  counts "seeded basis replays the first evaluation" 1 0;
  evaluate cl_b arch_b;
  counts "unrecorded clustering rebuilds" 1 1;
  evaluate cl_b arch_b;
  counts "the slot holds the new clustering's recording" 2 1;
  evaluate cl_a arch_a;
  counts "the seeded recording was replaced" 2 2

let suite =
  [
    ("single PE", `Quick, single_pe);
    ("shared link", `Quick, shared_link);
    ("mode-window boundary", `Quick, mode_window);
    ("copy-cap extrapolation edge", `Quick, copy_cap_edge);
    ("one recording per engine", `Quick, one_recording_per_engine);
    qcheck replay_exact_under_perturbation;
  ]
