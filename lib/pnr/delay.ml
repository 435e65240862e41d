let default_eruf = 0.70
let default_epuf = 0.80

type result = Increase_pct of float | Unroutable

let fillers_for rng ~target_pfus ~circuit_pfus =
  let budget = max 0 (target_pfus - circuit_pfus) in
  let rec build acc remaining idx =
    if remaining <= 0 then List.rev acc
    else begin
      let size = min remaining (Crusade_util.Rng.int_in rng 6 14) in
      if size < 2 then List.rev acc
      else begin
        let filler =
          Circuit.generate rng ~name:(Printf.sprintf "filler%d" idx) ~pfus:size ~pins:4
        in
        build (filler :: acc) (remaining - size) (idx + 1)
      end
    end
  in
  build [] budget 0

(* The circuit under test occupies roughly 35% of its host device; the
   remaining capacity is what the ERUF sweep fills with other functions. *)
let host_device (circuit : Circuit.t) =
  let side =
    int_of_float (ceil (sqrt (float_of_int circuit.pfu_count /. 0.35)))
  in
  let side = max side 6 in
  (* Real fabrics widen channels with array size; without this the model
     over-congests large devices at every utilization. *)
  let wires = Crusade_util.Arith.clamp ~lo:4 ~hi:5 (side * 2 / 5) in
  Device.make ~rows:side ~cols:side ~wires_per_channel:wires ~io_pins:(3 * side) ()

let one_sample (d : Device.t) (circuit : Circuit.t) ~eruf ~epuf ~seed =
  let rng = Crusade_util.Rng.create (seed * 7919) in
  let target_pfus = int_of_float (eruf *. float_of_int (Device.pfus d)) in
  let fillers = fillers_for rng ~target_pfus ~circuit_pfus:circuit.Circuit.pfu_count in
  let pin_nets = int_of_float (epuf *. float_of_int d.io_pins) in
  Fabric.place_and_route d ~fillers ~circuit ~extra_pin_nets:pin_nets ~seed

let measure ?device ?(samples = 15) circuit ~eruf ~epuf ~seed =
  let device = match device with Some d -> d | None -> host_device circuit in
  let increases = ref [] and ratios = ref [] and failures = ref 0 in
  for k = 0 to samples - 1 do
    let sample_seed = seed + (1000 * k) in
    let baseline =
      one_sample device circuit ~eruf:default_eruf ~epuf:default_epuf ~seed:sample_seed
    in
    let measured = one_sample device circuit ~eruf ~epuf ~seed:sample_seed in
    match (baseline, measured) with
    | ( Fabric.Routed { critical_delay_ns = base; _ },
        Fabric.Routed { critical_delay_ns = got; overflow_ratio } )
      when base > 0.0 ->
        (* Signed per-sample difference; clamping happens on the mean so
           paired placement noise cancels instead of biasing upward. *)
        let pct = (got -. base) /. base *. 100.0 in
        increases := pct :: !increases;
        ratios := overflow_ratio :: !ratios
    | _, Fabric.Unroutable | Fabric.Unroutable, _ -> incr failures
    | Fabric.Routed _, Fabric.Routed _ -> incr failures
  done;
  ignore !ratios;
  if !failures * 2 > samples then Unroutable
  else begin
    match !increases with
    | [] -> Unroutable
    | xs -> Increase_pct (max 0.0 (Crusade_util.Stats.mean xs))
  end
