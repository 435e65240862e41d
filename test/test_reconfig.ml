module Spec = Crusade_taskgraph.Spec
module Library = Crusade_resource.Library
module Pe = Crusade_resource.Pe
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Schedule = Crusade_sched.Schedule
module Compat = Crusade_reconfig.Compat
module Interface = Crusade_reconfig.Interface
module Merge = Crusade_reconfig.Merge
module Memo = Crusade_sched.Memo
module Vec = Crusade_util.Vec

let check = Alcotest.check
let lib = Helpers.small_lib

(* Architecture with each of the two hw clusters on its own F1. *)
let two_device_arch ?(overlap = false) () =
  let spec, t1, t2 = Helpers.two_hw_graphs ~overlap () in
  let clustering = Clustering.singletons spec lib in
  let arch = Arch.create lib in
  let place t =
    let pe = Arch.add_pe arch (Library.pe lib 3) in
    let c = clustering.Clustering.clusters.(clustering.Clustering.of_task.(t)) in
    match Arch.place_cluster arch spec clustering c ~pe ~mode:(Vec.get pe.Arch.modes 0) with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  place t1;
  place t2;
  (spec, clustering, arch)

(* --- Compat --- *)

let compat_from_schedule () =
  let spec, clustering, arch = two_device_arch ~overlap:false () in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      let m = Compat.matrix spec sched in
      check Alcotest.bool "disjoint windows compatible" true m.(0).(1);
      check Alcotest.bool "symmetric" true m.(1).(0);
      check Alcotest.bool "not self-compatible" false m.(0).(0)

let compat_overlapping_schedule () =
  let spec, clustering, arch = two_device_arch ~overlap:true () in
  match Schedule.run spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      let m = Compat.matrix spec sched in
      check Alcotest.bool "overlapping incompatible" false m.(0).(1)

let compat_sets () =
  let m = [| [| false; true; true |]; [| true; false; false |]; [| true; false; false |] |] in
  check Alcotest.bool "all pairs" true (Compat.graphs_compatible m [ 0 ] [ 1; 2 ]);
  check Alcotest.bool "violating pair" false (Compat.graphs_compatible m [ 1 ] [ 2 ]);
  check Alcotest.bool "same graph allowed in sets" true
    (Compat.graphs_compatible m [ 0 ] [ 0 ])

(* --- Interface --- *)

let interface_boot_times () =
  let info =
    match Pe.ppe_info (Library.pe lib 3) with Some i -> i | None -> assert false
  in
  (* 40_000 config bits *)
  let serial_1 =
    Interface.boot_full_us { style = Serial; role = Master_prom; mhz = 1.0; chained = false } info
  in
  check Alcotest.int "serial 1MHz" 40_000 serial_1;
  let par_10 =
    Interface.boot_full_us { style = Parallel8; role = Master_prom; mhz = 10.0; chained = false } info
  in
  check Alcotest.int "parallel 10MHz" 500 par_10;
  let chained =
    Interface.boot_full_us { style = Serial; role = Master_prom; mhz = 1.0; chained = true } info
  in
  check Alcotest.bool "chaining is slower" true (chained > serial_1)

let interface_option_space () =
  check Alcotest.int "2x2x4x2 options" 32 (List.length Interface.all_options)

let interface_cost_ordering () =
  let spec, clustering, arch = two_device_arch () in
  ignore (spec, clustering);
  let cost option = Interface.interface_cost option arch in
  let cheap =
    cost { style = Serial; role = Master_prom; mhz = 1.0; chained = true }
  in
  let fast =
    cost { style = Parallel8; role = Master_prom; mhz = 10.0; chained = false }
  in
  match (cheap, fast) with
  | Some a, Some b -> check Alcotest.bool "faster costs more" true (b > a)
  | _ -> Alcotest.fail "costs must be defined"

let interface_slave_needs_cpu () =
  let _, _, arch = two_device_arch () in
  (* architecture has no CPU *)
  check Alcotest.(option (float 1.0)) "slave impossible" None
    (Interface.interface_cost
       { style = Serial; role = Slave_cpu; mhz = 1.0; chained = false }
       arch)

let interface_synthesize_meets_requirement () =
  let spec, clustering, arch = two_device_arch () in
  ignore clustering;
  match Interface.synthesize arch spec ~validate:(fun _ -> true) with
  | Error m -> Alcotest.fail m
  | Ok option ->
      check Alcotest.bool "interface cost recorded" true
        (arch.Arch.interface_cost <> None);
      (* every multi-image device boots within the requirement *)
      Vec.iter
        (fun (pe : Arch.pe_inst) ->
          if Arch.n_images pe > 1 then
            Vec.iter
              (fun m ->
                check Alcotest.bool "boot within budget" true
                  (Arch.mode_boot_us pe m <= spec.Spec.boot_time_requirement))
              pe.Arch.modes)
        arch.Arch.pes;
      ignore option

let interface_synthesize_prefers_cheap () =
  let spec, clustering, arch = two_device_arch () in
  ignore clustering;
  match Interface.synthesize arch spec ~validate:(fun _ -> true) with
  | Error m -> Alcotest.fail m
  | Ok option ->
      (* with a 50 ms budget and permissive validation, the 1 MHz serial
         options (cheapest) win *)
      check (Alcotest.float 1e-9) "slowest clock chosen" 1.0 option.Interface.mhz

(* --- Merge --- *)

let merge_two_compatible_devices () =
  let spec, clustering, arch = two_device_arch ~overlap:false () in
  check Alcotest.int "two devices before" 2 (Arch.n_pes arch);
  match Merge.optimize ~memo:(Memo.create ()) spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok (merged, sched, stats) ->
      check Alcotest.int "one device after" 1 (Arch.n_pes merged);
      check Alcotest.bool "deadlines met" true sched.Schedule.deadlines_met;
      check Alcotest.bool "a merge accepted" true (stats.Merge.merges_accepted >= 1);
      check Alcotest.bool "cost decreased" true (Arch.cost merged < Arch.cost arch);
      (* the surviving device carries two configuration images *)
      let images =
        Vec.fold (fun acc pe -> max acc (Arch.n_images pe)) 0 merged.Arch.pes
      in
      check Alcotest.int "two images" 2 images

let merge_rejects_overlapping () =
  let spec, clustering, arch = two_device_arch ~overlap:true () in
  match Merge.optimize ~memo:(Memo.create ()) spec clustering arch with
  | Error m -> Alcotest.fail m
  | Ok (merged, _, _) ->
      check Alcotest.int "no merge possible" 2 (Arch.n_pes merged)

let merge_potential_counts () =
  let _, _, arch = two_device_arch () in
  check Alcotest.int "2 PPEs + 0 links" 2 (Merge.merge_potential arch)

let merge_input_not_mutated () =
  let spec, clustering, arch = two_device_arch ~overlap:false () in
  let before = Arch.cost arch in
  (match Merge.optimize ~memo:(Memo.create ()) spec clustering arch with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check (Alcotest.float 1e-9) "input arch unchanged" before (Arch.cost arch)

let suite =
  [
    Alcotest.test_case "compat from schedule" `Quick compat_from_schedule;
    Alcotest.test_case "compat overlapping" `Quick compat_overlapping_schedule;
    Alcotest.test_case "compat sets" `Quick compat_sets;
    Alcotest.test_case "interface boot times" `Quick interface_boot_times;
    Alcotest.test_case "interface option space" `Quick interface_option_space;
    Alcotest.test_case "interface cost ordering" `Quick interface_cost_ordering;
    Alcotest.test_case "slave needs cpu" `Quick interface_slave_needs_cpu;
    Alcotest.test_case "interface meets requirement" `Quick interface_synthesize_meets_requirement;
    Alcotest.test_case "interface prefers cheap" `Quick interface_synthesize_prefers_cheap;
    Alcotest.test_case "merge compatible devices" `Quick merge_two_compatible_devices;
    Alcotest.test_case "merge rejects overlapping" `Quick merge_rejects_overlapping;
    Alcotest.test_case "merge potential" `Quick merge_potential_counts;
    Alcotest.test_case "merge does not mutate input" `Quick merge_input_not_mutated;
  ]
