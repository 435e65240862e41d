(* Incremental rescheduling: the replay engine's exactness contract.

   Every test records a full scheduler run on a base architecture,
   perturbs the placement (the way candidate evaluation does: one
   cluster moves), and asserts that replaying the recording against the
   perturbed architecture is bit-identical — schedule and verdict — to
   a fresh [Schedule.run] on it.  Micro-specs pin the structurally
   interesting cases (single PE, a shared link, a mode-window boundary,
   the copy-cap extrapolation edge); a qcheck property sweeps random
   workloads under random single-cluster perturbations.  A second group
   pins cross-basis adoption: a recording taken under one clustering
   identity must serve as a partial replay basis for another clustering
   of the same spec — full prefix when the content is identical, cut
   region alone rescheduled when it is not — again bit-identically. *)

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
  && a.Schedule.deadlines_met = b.Schedule.deadlines_met
  && a.Schedule.total_tardiness = b.Schedule.total_tardiness
  && a.Schedule.scheduled_tasks = b.Schedule.scheduled_tasks
  && a.Schedule.mode_switches = b.Schedule.mode_switches

(* The exactness check: replay of [recording] against [arch] must agree
   bit-for-bit with a fresh run — both the full schedule and the
   verdict-only path — including agreeing on failure. *)
let assert_replay_exact ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch recording =
  if not (Schedule.Replay.compatible recording ~copy_cap spec clustering) then
    Alcotest.failf "%s: recording not compatible with its own inputs" name;
  let prep = Schedule.Replay.prepare recording spec clustering arch in
  match
    ( Schedule.run ~copy_cap spec clustering arch,
      Schedule.Replay.replay_run prep,
      Schedule.Replay.replay_verdict prep )
  with
  | Ok fresh, Ok replayed, Ok verdict ->
      check Alcotest.bool (name ^ ": schedule bit-identical") true
        (scheds_equal fresh replayed);
      check Alcotest.bool (name ^ ": verdict bit-identical") true
        (verdict.Schedule.v_tardiness = fresh.Schedule.total_tardiness
        && verdict.Schedule.v_met = fresh.Schedule.deadlines_met
        && verdict.Schedule.v_scheduled = fresh.Schedule.scheduled_tasks)
  | Error e_fresh, Error e_run, Error e_verdict ->
      check Alcotest.string (name ^ ": replay_run fails identically") e_fresh e_run;
      check Alcotest.string (name ^ ": replay_verdict fails identically") e_fresh e_verdict
  | Ok _, _, _ | Error _, _, _ ->
      Alcotest.failf "%s: replay and fresh run disagree on success" name

(* Record on the base placement, apply [perturb], check exactness on the
   perturbed architecture (and, first, on the unperturbed one: a cut at
   the full recording must still replay exactly). *)
let record_perturb_check ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch perturb =
  let recording =
    match Schedule.Replay.record ~copy_cap spec clustering arch with
    | Ok (_, r) -> r
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
        match Schedule.Replay.record spec clustering arch with
        | Ok (_, r) -> r
        | Error msg -> QCheck.Test.fail_reportf "record failed: %s" msg
      in
      let rng = Random.State.make [| seed |] in
      let nc = Array.length clustering.Clustering.clusters in
      (* A handful of successive moves against one recording: the diff
         is against the snapshot, so later moves exercise wider cuts. *)
      List.for_all
        (fun (_ : int) ->
          move_cluster spec clustering arch (Random.State.int rng nc);
          let prep = Schedule.Replay.prepare recording spec clustering arch in
          match
            (Schedule.run spec clustering arch, Schedule.Replay.replay_run prep)
          with
          | Ok fresh, Ok replayed -> scheds_equal fresh replayed
          | Error a, Error b -> a = b
          | Ok _, Error _ | Error _, Ok _ -> false)
        [ 1; 2; 3 ])

(* Keyed recording slots: a basis published under clustering A and one
   under clustering B must both be retained, exact keys must be
   preferred over adoption, and a *third* clustering identity of the
   same spec must still be served by replay — through cross-basis
   adoption of a retained recording rather than a cold rebuild.  This is
   what lets portfolio trajectories seed each other's bases. *)
let keyed_slots () =
  let module I = Crusade_sched.Incremental in
  let lib = Helpers.stock_lib in
  let spec = W.generate lib (tiny_params 3) in
  let cl_a = Clustering.run ~max_cluster_size:4 spec lib in
  let cl_b = Clustering.run ~max_cluster_size:2 spec lib in
  let arch_a = Arch.create lib in
  place_all spec cl_a arch_a;
  let arch_b = Arch.create lib in
  place_all spec cl_b arch_b;
  let eng = I.create () in
  let seed clustering arch =
    match I.run eng spec clustering arch with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "record failed: %s" msg
  in
  (* Whether an evaluation replayed or rebuilt shows in the counters. *)
  let evaluate clustering arch =
    match I.evaluate eng spec clustering arch with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "evaluation failed: %s" msg
  in
  seed cl_a arch_a;
  seed cl_b arch_b;
  evaluate cl_a arch_a;
  evaluate cl_b arch_b;
  check Alcotest.int "exact keys replay without adoption" 0 (I.adoptions eng);
  check Alcotest.int "rebuilds" 2 (I.rebuilds eng);
  check Alcotest.int "replays" 2 (I.replays eng);
  (* A clustering identity the store has never seen: no exact key, but a
     same-spec basis is adopted instead of paying a cold rebuild. *)
  let cl_c = Clustering.run ~max_cluster_size:3 spec lib in
  let arch_c = Arch.create lib in
  place_all spec cl_c arch_c;
  evaluate cl_c arch_c;
  check Alcotest.int "third identity replays" 3 (I.replays eng);
  check Alcotest.int "third identity adopts a retained basis" 1
    (I.adoptions eng);
  check Alcotest.int "no extra rebuild" 2 (I.rebuilds eng)

(* --- Cross-basis adoption: content-identical clustering -------------- *)

(* A recording taken under clustering A seeds a replay under a
   physically distinct but content-identical clustering B.  The
   scheduler reads the clustering only through the task-indexed
   site/priority arrays, which are equal here, so nothing is dirty: the
   adopted prefix covers every step and the result is bit-identical. *)
let adoption_exact () =
  let lib = Helpers.stock_lib in
  let spec = W.generate lib (tiny_params 7) in
  let cl_a = Clustering.run ~max_cluster_size:4 spec lib in
  let cl_b = Clustering.run ~max_cluster_size:4 spec lib in
  check Alcotest.bool "clustering identities distinct" false (cl_a == cl_b);
  let arch = Arch.create lib in
  place_all spec cl_a arch;
  let recording =
    match Schedule.Replay.record spec cl_a arch with
    | Ok (_, r) -> r
    | Error msg -> Alcotest.failf "record failed: %s" msg
  in
  check Alcotest.bool "not an exact key for the other identity" false
    (Schedule.Replay.compatible recording spec cl_b);
  check Alcotest.bool "adoptable under the same spec" true
    (Schedule.Replay.adoptable recording spec);
  let prep = Schedule.Replay.prepare recording spec cl_b arch in
  check Alcotest.int "full prefix adopted"
    (Schedule.Replay.steps recording)
    (Schedule.Replay.cut prep);
  match (Schedule.run spec cl_b arch, Schedule.Replay.replay_run prep) with
  | Ok fresh, Ok replayed ->
      check Alcotest.bool "adopted replay bit-identical" true
        (scheds_equal fresh replayed)
  | Error a, Error b ->
      check Alcotest.string "fails identically" a b
  | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.fail "adopted replay and fresh run disagree on success"

(* --- Cross-basis adoption: disjoint-subgraph perturbation ------------ *)

(* Two disjoint graphs; the early chain holds the tight deadline (so its
   pops lead the recording), the late chain is perturbed.  Adopting the
   basis under a distinct clustering identity must replay the early
   prefix untouched and reschedule only the cut region, landing
   bit-identically on the fresh run. *)
let adoption_perturbed () =
  let lib = Helpers.small_lib in
  let b = Spec.Builder.create () in
  let early =
    Spec.Builder.add_graph b ~name:"early" ~period:4_000 ~deadline:1_000 ()
  in
  let late =
    Spec.Builder.add_graph b ~name:"late" ~period:4_000 ~deadline:4_000 ()
  in
  let e1 =
    Spec.Builder.add_task b ~graph:early ~name:"e1"
      ~exec:(Helpers.cpu_exec ~lib 200) ()
  in
  let e2 =
    Spec.Builder.add_task b ~graph:early ~name:"e2"
      ~exec:(Helpers.cpu_exec ~lib 200) ()
  in
  Spec.Builder.add_edge b ~src:e1 ~dst:e2 ~bytes:32;
  let l1 =
    Spec.Builder.add_task b ~graph:late ~name:"l1"
      ~exec:(Helpers.cpu_exec ~lib 200) ()
  in
  let l2 =
    Spec.Builder.add_task b ~graph:late ~name:"l2"
      ~exec:(Helpers.cpu_exec ~lib 200) ()
  in
  Spec.Builder.add_edge b ~src:l1 ~dst:l2 ~bytes:32;
  let spec = Spec.Builder.finish_exn b ~name:"adoption-perturbed" () in
  let cl_a = clustering_of ~max_cluster_size:1 spec lib in
  let cl_b = clustering_of ~max_cluster_size:1 spec lib in
  let arch = Arch.create lib in
  place_all spec cl_a arch;
  let recording =
    match Schedule.Replay.record spec cl_a arch with
    | Ok (_, r) -> r
    | Error msg -> Alcotest.failf "record failed: %s" msg
  in
  (* Perturb only the late chain, then evaluate under the distinct
     clustering identity. *)
  move_cluster spec cl_b arch cl_b.Clustering.of_task.(l1);
  let prep = Schedule.Replay.prepare recording spec cl_b arch in
  let cut = Schedule.Replay.cut prep
  and steps = Schedule.Replay.steps recording in
  if not (0 < cut && cut < steps) then
    Alcotest.failf "expected a partial adopted prefix, got cut %d of %d" cut
      steps;
  match (Schedule.run spec cl_b arch, Schedule.Replay.replay_run prep) with
  | Ok fresh, Ok replayed ->
      check Alcotest.bool "cut-region reschedule bit-identical" true
        (scheds_equal fresh replayed)
  | Error a, Error b ->
      check Alcotest.string "fails identically" a b
  | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.fail "adopted replay and fresh run disagree on success"

(* --- Property: adoption across random clustering handoffs ------------ *)

(* A basis recorded under one clustering of a random workload is adopted
   by a physically distinct clustering — same content on even seeds,
   different granularity on odd ones — whose architecture then drifts
   through random moves.  Every adopted replay must stay bit-identical
   to the fresh run, exactly the contract the shared portfolio store
   leans on. *)
let adoption_exact_under_perturbation =
  QCheck.Test.make
    ~name:"adopted replay is bit-identical under random clustering handoffs"
    ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let lib = Helpers.stock_lib in
      let spec = W.generate lib (tiny_params ((seed mod 997) + 1)) in
      let cl_rec = Clustering.run ~max_cluster_size:4 spec lib in
      let cl_new =
        Clustering.run
          ~max_cluster_size:(if seed mod 2 = 0 then 4 else 3)
          spec lib
      in
      let arch_rec = Arch.create lib in
      place_all spec cl_rec arch_rec;
      let recording =
        match Schedule.Replay.record spec cl_rec arch_rec with
        | Ok (_, r) -> r
        | Error msg -> QCheck.Test.fail_reportf "record failed: %s" msg
      in
      if not (Schedule.Replay.adoptable recording spec) then
        QCheck.Test.fail_reportf "recording not adoptable under its own spec";
      let arch = Arch.create lib in
      place_all spec cl_new arch;
      let rng = Random.State.make [| seed |] in
      let nc = Array.length cl_new.Clustering.clusters in
      List.for_all
        (fun (_ : int) ->
          move_cluster spec cl_new arch (Random.State.int rng nc);
          let prep = Schedule.Replay.prepare recording spec cl_new arch in
          match
            (Schedule.run spec cl_new arch, Schedule.Replay.replay_run prep)
          with
          | Ok fresh, Ok replayed -> scheds_equal fresh replayed
          | Error a, Error b -> a = b
          | Ok _, Error _ | Error _, Ok _ -> false)
        [ 1; 2; 3 ])

let suite =
  [
    ("single PE", `Quick, single_pe);
    ("shared link", `Quick, shared_link);
    ("mode-window boundary", `Quick, mode_window);
    ("copy-cap extrapolation edge", `Quick, copy_cap_edge);
    ("keyed recording slots", `Quick, keyed_slots);
    ("adoption: content-identical clustering", `Quick, adoption_exact);
    ("adoption: disjoint-subgraph perturbation", `Quick, adoption_perturbed);
    qcheck replay_exact_under_perturbation;
    qcheck adoption_exact_under_perturbation;
  ]
