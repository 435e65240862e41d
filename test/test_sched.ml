module Spec = Crusade_taskgraph.Spec
module Library = Crusade_resource.Library
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Timeline = Crusade_sched.Timeline
module Schedule = Crusade_sched.Schedule

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let lib = Helpers.small_lib

(* --- Timeline --- *)

let timeline_insert_gap () =
  let tl = Timeline.create () in
  let s1, f1 = Timeline.insert tl ~ready:10 ~duration:5 in
  check Alcotest.(pair int int) "first" (10, 15) (s1, f1);
  let s2, f2 = Timeline.insert tl ~ready:0 ~duration:5 in
  check Alcotest.(pair int int) "fills gap before" (0, 5) (s2, f2);
  let s3, _ = Timeline.insert tl ~ready:0 ~duration:10 in
  check Alcotest.int "after existing work" 15 s3

let timeline_exact_gap () =
  let tl = Timeline.create () in
  ignore (Timeline.insert tl ~ready:0 ~duration:10);
  ignore (Timeline.insert tl ~ready:20 ~duration:10);
  let s, f = Timeline.insert tl ~ready:0 ~duration:10 in
  check Alcotest.(pair int int) "exact middle gap" (10, 20) (s, f)

let timeline_probe_pure () =
  let tl = Timeline.create () in
  ignore (Timeline.insert tl ~ready:0 ~duration:10);
  let before = Timeline.busy tl in
  ignore (Timeline.probe tl ~ready:0 ~duration:5);
  check Alcotest.(list (pair int int)) "probe mutates nothing" before (Timeline.busy tl)

let timeline_preemptible_splits () =
  let tl = Timeline.create () in
  (* resident work at [10,20): a 16-unit task ready at 0 can run [0,10)
     then resume after, paying the penalty *)
  ignore (Timeline.insert tl ~ready:10 ~duration:10);
  let start, finish =
    Timeline.insert_preemptible tl ~ready:0 ~duration:16 ~max_chunks:3 ~chunk_penalty:2
  in
  check Alcotest.int "starts immediately" 0 start;
  check Alcotest.int "finish pays penalty" 28 finish

let timeline_preemptible_contiguous_when_easy () =
  let tl = Timeline.create () in
  let start, finish =
    Timeline.insert_preemptible tl ~ready:5 ~duration:10 ~max_chunks:3 ~chunk_penalty:7
  in
  check Alcotest.(pair int int) "no split needed" (5, 15) (start, finish)

let timeline_small_fragment_skipped () =
  let tl = Timeline.create () in
  (* a 1-unit gap before resident work is below the quarter-duration
     minimum chunk: the work should skip it *)
  ignore (Timeline.insert tl ~ready:1 ~duration:20);
  let start, _ =
    Timeline.insert_preemptible tl ~ready:0 ~duration:16 ~max_chunks:3 ~chunk_penalty:1
  in
  check Alcotest.int "fragment skipped" 21 start

let timeline_busy_invariant =
  QCheck.Test.make ~name:"timeline stays sorted and disjoint" ~count:200
    QCheck.(small_list (pair (int_range 0 100) (int_range 1 20)))
    (fun jobs ->
      let tl = Timeline.create () in
      List.iter (fun (r, d) -> ignore (Timeline.insert tl ~ready:r ~duration:d)) jobs;
      let rec ok = function
        | (s1, e1) :: ((s2, _) :: _ as rest) -> s1 < e1 && e1 <= s2 && ok rest
        | [ (s, e) ] -> s < e
        | [] -> true
      in
      ok (Timeline.busy tl))

let timeline_work_conserved =
  QCheck.Test.make ~name:"inserted work equals busy growth" ~count:200
    QCheck.(small_list (pair (int_range 0 100) (int_range 1 20)))
    (fun jobs ->
      let tl = Timeline.create () in
      let total = List.fold_left (fun acc (_, d) -> acc + d) 0 jobs in
      List.iter (fun (r, d) -> ignore (Timeline.insert tl ~ready:r ~duration:d)) jobs;
      let busy =
        List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 (Timeline.busy tl)
      in
      busy = total)

(* --- Schedule --- *)

(* Allocate every cluster onto a forced option list; returns arch. *)
let place_all spec clustering choose =
  let arch = Arch.create lib in
  Array.iter
    (fun (cluster : Clustering.cluster) ->
      let opts = Options.enumerate arch spec clustering cluster ~allow_new_modes:true () in
      let opt = choose cluster opts in
      match Options.apply arch spec clustering cluster opt with
      | Ok () -> ()
      | Error m -> Alcotest.failf "placement failed: %s" m)
    clustering.Clustering.clusters;
  arch

let schedule_chain_on_one_cpu () =
  let spec, ids = Helpers.sw_chain ~exec:100 3 in
  let clustering = Clustering.run spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      check Alcotest.bool "deadlines met" true sched.Schedule.deadlines_met;
      check Alcotest.int "all scheduled" 3 sched.Schedule.scheduled_tasks;
      (* same cluster, same PE: chain executes back to back *)
      let by_task t =
        Array.to_list sched.Schedule.instances
        |> List.find (fun (i : Schedule.instance) -> i.i_task = t && i.i_copy = 0)
      in
      let f0 = (by_task (List.nth ids 0)).finish in
      let s1 = (by_task (List.nth ids 1)).start in
      check Alcotest.bool "precedence kept" true (s1 >= f0)

let schedule_precedence_property () =
  let spec, _ = Helpers.sw_chain ~exec:173 5 in
  let clustering = Clustering.run spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      let inst = Array.to_list sched.Schedule.instances in
      Array.iter
        (fun (e : Crusade_taskgraph.Edge.t) ->
          List.iter
            (fun (i : Schedule.instance) ->
              if i.i_task = e.dst then begin
                let src =
                  List.find
                    (fun (j : Schedule.instance) ->
                      j.i_task = e.src && j.i_copy = i.i_copy)
                    inst
                in
                check Alcotest.bool "src finishes first" true (src.finish <= i.start)
              end)
            inst)
        spec.Spec.edges

let schedule_copies_instantiated () =
  let spec, _ = Helpers.sw_chain ~period:5_000 ~deadline:4_000 2 in
  (* second graph with period 10_000 to force hyperperiod 10_000: chain has
     1 graph only, so instead check copies = 1 here and multirate below *)
  let clustering = Clustering.run spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      check Alcotest.int "instances = tasks x copies" 2
        (Array.length sched.Schedule.instances)

let schedule_multirate_copies () =
  let b = Spec.Builder.create () in
  let g1 = Spec.Builder.add_graph b ~name:"fast" ~period:2_000 ~deadline:1_500 () in
  let g2 = Spec.Builder.add_graph b ~name:"slow" ~period:8_000 ~deadline:6_000 () in
  ignore (Spec.Builder.add_task b ~graph:g1 ~name:"f" ~exec:(Helpers.cpu_exec 100) ());
  ignore (Spec.Builder.add_task b ~graph:g2 ~name:"s" ~exec:(Helpers.cpu_exec 100) ());
  let spec = Spec.Builder.finish_exn b ~name:"mr" () in
  let clustering = Clustering.singletons spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      check Alcotest.int "4 + 1 instances" 5 (Array.length sched.Schedule.instances);
      (* each fast copy arrives on its period boundary *)
      Array.iter
        (fun (i : Schedule.instance) ->
          if i.i_task = 0 then
            check Alcotest.int "arrival" (i.i_copy * 2_000) i.arrival)
        sched.Schedule.instances

let schedule_copy_cap_extrapolates () =
  let b = Spec.Builder.create () in
  let g1 = Spec.Builder.add_graph b ~name:"veryfast" ~period:10 ~deadline:8 () in
  let g2 = Spec.Builder.add_graph b ~name:"slow" ~period:100_000 ~deadline:60_000 () in
  ignore (Spec.Builder.add_task b ~graph:g1 ~name:"f" ~exec:(Helpers.cpu_exec 2) ());
  ignore (Spec.Builder.add_task b ~graph:g2 ~name:"s" ~exec:(Helpers.cpu_exec 100) ());
  let spec = Spec.Builder.finish_exn b ~name:"assoc" () in
  let clustering = Clustering.singletons spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run ~copy_cap:16 spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      (* 10,000 copies exist; only 16 are explicit *)
      check Alcotest.int "capped instances" 17 (Array.length sched.Schedule.instances);
      check Alcotest.bool "windows cover the extrapolated copies" true
        (Crusade_util.Intervals.overlaps_interval
           sched.Schedule.graph_windows.(0) 50_000 50_010)

let schedule_deadline_miss_detected () =
  (* Exec longer than the deadline can never fit. *)
  let spec, _ = Helpers.sw_chain ~exec:9_000 ~deadline:4_000 1 in
  let clustering = Clustering.singletons spec lib in
  let arch = place_all spec clustering (fun _ opts -> List.hd opts) in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      check Alcotest.bool "missed" false sched.Schedule.deadlines_met;
      check Alcotest.bool "tardiness positive" true (sched.Schedule.total_tardiness > 0)

let schedule_partial_allocation () =
  let spec, _ = Helpers.sw_chain 4 in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  (* place only the first cluster *)
  let c0 = clustering.Clustering.clusters.(0) in
  let opts = Options.enumerate arch spec clustering c0 ~allow_new_modes:false () in
  (match Options.apply arch spec clustering c0 (List.hd opts) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched -> check Alcotest.int "only placed tasks" 1 sched.Schedule.scheduled_tasks

let schedule_hw_concurrency () =
  (* Two independent FPGA tasks in the same mode run concurrently. *)
  let b = Spec.Builder.create () in
  let g = Spec.Builder.add_graph b ~name:"par" ~period:20_000 ~deadline:6_000 () in
  let t0 =
    Spec.Builder.add_task b ~graph:g ~name:"a" ~exec:(Helpers.fpga_exec 3_000)
      ~gates:50 ~pins:4 ()
  in
  let t1 =
    Spec.Builder.add_task b ~graph:g ~name:"b" ~exec:(Helpers.fpga_exec 3_000)
      ~gates:50 ~pins:4 ()
  in
  let spec = Spec.Builder.finish_exn b ~name:"par" () in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let pe = Arch.add_pe arch (Library.pe lib 4) in
  let mode = Crusade_util.Vec.get pe.Arch.modes 0 in
  Array.iter
    (fun (c : Clustering.cluster) ->
      match Arch.place_cluster arch spec clustering c ~pe ~mode with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    clustering.Clustering.clusters;
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      Array.iter
        (fun (i : Schedule.instance) ->
          check Alcotest.int "both start at arrival" 0 i.start)
        sched.Schedule.instances;
      ignore (t0, t1)

(* Two single-task FPGA graphs in the two modes of one device with a
   6 ms boot: g1 arrives at 0 with period [g1_period], g2 at 10_000
   with period 40_000.  Returns the schedule and the two tasks. *)
let schedule_two_modes ~g1_period =
  let b = Spec.Builder.create () in
  let tasks =
    List.mapi
      (fun k (est, period) ->
        let g =
          Spec.Builder.add_graph b ~name:(Printf.sprintf "g%d" (k + 1)) ~period ~est
            ~deadline:5_000 ()
        in
        Spec.Builder.add_task b ~graph:g ~name:(Printf.sprintf "t%d" (k + 1))
          ~exec:(Helpers.fpga_exec 3_000) ~gates:80 ~pins:8 ())
      [ (0, g1_period); (10_000, 40_000) ]
  in
  let spec = Spec.Builder.finish_exn b ~name:"modes" () in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let pe = Arch.add_pe arch (Library.pe lib 3) in
  (* force a noticeable boot time *)
  pe.Arch.boot_full_us <- 6_000;
  let mode_of = [| Crusade_util.Vec.get pe.Arch.modes 0; Arch.add_mode arch pe |] in
  List.iteri
    (fun m t ->
      let c = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t)) in
      match Arch.place_cluster arch spec clustering c ~pe ~mode:mode_of.(m) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    tasks;
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched -> (sched, tasks)

let schedule_mode_serialization_with_boot () =
  (* Two compatible graphs in different modes of one device: the second
     window must wait for the reboot after the first. *)
  let sched, tasks = schedule_two_modes ~g1_period:40_000 in
  let inst t =
    Array.to_list sched.Schedule.instances
    |> List.find (fun (i : Schedule.instance) -> i.i_task = t)
  in
  let i1 = inst (List.nth tasks 0) and i2 = inst (List.nth tasks 1) in
  (* g2 arrives at 10_000 but g1's window [0,3000] plus 6ms boot push
     the second mode to 9_000 at the earliest; arrival already covers
     that, so what matters is the boot margin *)
  check Alcotest.bool "boot respected" true (i2.start >= i1.finish + 6_000);
  check Alcotest.int "one reconfiguration" 1 sched.Schedule.mode_switches.(0);
  (* A second copy of g1 at 20_000 puts the windows in modes 0, 1, 0:
     each alternation is a reconfiguration. *)
  let sched, _ = schedule_two_modes ~g1_period:20_000 in
  check Alcotest.int "alternating modes" 2 sched.Schedule.mode_switches.(0)

let schedule_disconnected_edge_error () =
  let spec, _ = Helpers.sw_chain 2 in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let a = Arch.add_pe arch (Library.pe lib 0) in
  let b = Arch.add_pe arch (Library.pe lib 0) in
  let c0 = clustering.Clustering.clusters.(0) in
  let c1 = clustering.Clustering.clusters.(1) in
  (match
     ( Arch.place_cluster arch spec clustering c0 ~pe:a ~mode:(Crusade_util.Vec.get a.Arch.modes 0),
       Arch.place_cluster arch spec clustering c1 ~pe:b ~mode:(Crusade_util.Vec.get b.Arch.modes 0) )
   with
  | Ok (), Ok () -> ()
  | Error m, _ | _, Error m -> Alcotest.fail m);
  (* no link between the two CPUs *)
  check Alcotest.bool "disconnected detected" true
    (Result.is_error (Schedule.run spec clustering arch))

let schedule_comm_on_link_delays () =
  let spec, ids = Helpers.sw_chain ~exec:100 2 in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let a = Arch.add_pe arch (Library.pe lib 0) in
  let b = Arch.add_pe arch (Library.pe lib 0) in
  let c0 = clustering.Clustering.clusters.(0) in
  let c1 = clustering.Clustering.clusters.(1) in
  ignore (Arch.place_cluster arch spec clustering c0 ~pe:a ~mode:(Crusade_util.Vec.get a.Arch.modes 0));
  ignore (Arch.place_cluster arch spec clustering c1 ~pe:b ~mode:(Crusade_util.Vec.get b.Arch.modes 0));
  let bus = Arch.add_link arch (Library.link lib 0) in
  ignore (Arch.attach arch bus a);
  ignore (Arch.attach arch bus b);
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      let inst t =
        Array.to_list sched.Schedule.instances
        |> List.find (fun (i : Schedule.instance) -> i.i_task = t)
      in
      let producer = inst (List.nth ids 0) and consumer = inst (List.nth ids 1) in
      check Alcotest.bool "communication adds latency" true
        (consumer.start > producer.finish);
      (* The transfer fills that gap, so the graph is active without a
         break from the producer's start to the consumer's finish: its
         window counts the link, not only the CPUs. *)
      check
        Alcotest.(list (pair int int))
        "one window spans the transfer" [ (producer.start, consumer.finish) ]
        (Crusade_util.Intervals.to_list sched.Schedule.graph_windows.(0))

let priorities_allocated_uses_actual_exec () =
  let spec, ids = Helpers.sw_chain ~exec:100 1 in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let levels_before = Schedule.priorities spec clustering arch in
  (* place on cpu-b (faster in small lib? both speed given by exec vector,
     equal here) and check levels remain well-defined *)
  let c0 = clustering.Clustering.clusters.(0) in
  let opts = Options.enumerate arch spec clustering c0 ~allow_new_modes:false () in
  ignore (Options.apply arch spec clustering c0 (List.hd opts));
  let levels_after = Schedule.priorities spec clustering arch in
  check Alcotest.int "single task level unchanged" levels_before.(List.hd ids)
    levels_after.(List.hd ids)

let suite =
  [
    Alcotest.test_case "timeline insert/gap" `Quick timeline_insert_gap;
    Alcotest.test_case "timeline exact gap" `Quick timeline_exact_gap;
    Alcotest.test_case "timeline probe pure" `Quick timeline_probe_pure;
    Alcotest.test_case "timeline preemption split" `Quick timeline_preemptible_splits;
    Alcotest.test_case "timeline contiguous" `Quick timeline_preemptible_contiguous_when_easy;
    Alcotest.test_case "timeline fragment skipped" `Quick timeline_small_fragment_skipped;
    qcheck timeline_busy_invariant;
    qcheck timeline_work_conserved;
    Alcotest.test_case "chain on one cpu" `Quick schedule_chain_on_one_cpu;
    Alcotest.test_case "precedence property" `Quick schedule_precedence_property;
    Alcotest.test_case "copies instantiated" `Quick schedule_copies_instantiated;
    Alcotest.test_case "multirate copies" `Quick schedule_multirate_copies;
    Alcotest.test_case "copy cap extrapolates" `Quick schedule_copy_cap_extrapolates;
    Alcotest.test_case "deadline miss detected" `Quick schedule_deadline_miss_detected;
    Alcotest.test_case "partial allocation" `Quick schedule_partial_allocation;
    Alcotest.test_case "hw concurrency" `Quick schedule_hw_concurrency;
    Alcotest.test_case "mode serialization + boot" `Quick schedule_mode_serialization_with_boot;
    Alcotest.test_case "disconnected edge" `Quick schedule_disconnected_edge_error;
    Alcotest.test_case "link communication delays" `Quick schedule_comm_on_link_delays;
    Alcotest.test_case "priorities with allocation" `Quick priorities_allocated_uses_actual_exec;
  ]
