(* What every workload of the benchmark shares: spec generation, set-up
   repetition, statistics and the raw result line. *)

module W = Crusade_workloads.Comm_system

let now = Unix.gettimeofday
let lib = Crusade_resource.Library.stock ()
let scale = 8.0

let gen_seed name seed =
  let p = W.preset name in
  if seed = 0 then p.W.seed else p.W.seed + (100 * seed)

(* Seconds spent in spec generation since the last reset. *)
let generate_s = ref 0.0

let generate name gen =
  let t0 = now () in
  let p = W.scaled (W.preset name) scale in
  let spec = W.generate lib { p with W.seed = gen } in
  generate_s := !generate_s +. (now () -. t0);
  spec

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* ---- statistics ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = float_of_int (Array.length a - 1) *. q in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of a process ("self" or a pid), in MB. *)
let vm_hwm_mb proc =
  let ic = open_in ("/proc/" ^ proc ^ "/status") in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Milliseconds to sort the same pseudo-random array of integers: a
   fixed piece of work no change to the program can move, timed before
   and after each timed window (median of three) and printed, so a slow
   run can be told from a slow program.  It is never part of a metric. *)
let machine_ms () =
  let once () =
    let st = Random.State.make [| 42 |] in
    let a = Array.init 200_000 (fun _ -> Random.State.bits st) in
    let t0 = now () in
    Array.sort Int.compare a;
    (now () -. t0) *. 1000.0
  in
  median (List.init 3 (fun _ -> once ()))

(* ---- running ---- *)

(* Set-up repeats at least [min_setups] times and, while under
   [setup_budget_s] seconds in total, up to [max_setups] times: a set-up
   of a few milliseconds gets enough samples for a steady median.
   [dispose] releases the previous repetition's state first, so every
   repetition starts from the same heap.  Returns the median time, the
   number of repetitions and the last repetition's state. *)
let min_setups = 3
let max_setups = 101
let setup_budget_s = 1.0

(* Every workload runs at least two passes, so every result is compared
   across passes. *)
let min_passes = 2

let repeat_setup ~dispose setup =
  let times = ref [] and last = ref None in
  let enough () =
    let n = List.length !times in
    n >= max_setups || (n >= min_setups && List.fold_left ( +. ) 0.0 !times >= setup_budget_s)
  in
  while not (enough ()) do
    Option.iter dispose !last;
    last := None;
    generate_s := 0.0;
    Gc.full_major ();
    let t0 = now () in
    let x = setup () in
    times := (now () -. t0) :: !times;
    last := Some x
  done;
  (median !times, List.length !times, Option.get !last)

(* The raw result line run.py reads: failures first, then one JSON
   object. *)
let emit ~attempted ~failures metrics =
  List.iter (fun (label, why) -> Printf.printf "FAILED %s: %s\n" label why) (List.rev failures);
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" attempted
    (List.length failures)
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%S: %s" k (if Float.is_finite v then Printf.sprintf "%.17g" v else "0"))
          metrics))
