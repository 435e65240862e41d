(* Field-upgrade analysis (Section 3, motivation 2).

   A deployed line card (framer + policer on FPGAs, a software monitor)
   receives a feature release: an encryption offload and an extra traffic
   class.  Because the new functions occupy time slots the deployed
   devices leave idle, CRUSADE can deliver the upgrade as configuration
   images alone — no hardware change, no product recall.

     dune exec examples/field_upgrade.exe *)

module C = Crusade.Crusade_core
module R = C.Resynth

let () =
  let lib = Crusade_resource.Library.small () in
  let spec, upgrade_graphs = Crusade_workloads.Examples.upgrade_scenario lib in
  Format.printf "Initial release: graphs %s; feature release: graphs %s@.@."
    (String.concat ", "
       (Array.to_list spec.Crusade_taskgraph.Spec.graphs
       |> List.filter_map (fun (g : Crusade_taskgraph.Graph.t) ->
              if List.mem g.id upgrade_graphs then None else Some g.name)))
    (String.concat ", "
       (List.map
          (fun g -> spec.Crusade_taskgraph.Spec.graphs.(g).Crusade_taskgraph.Graph.name)
          upgrade_graphs));
  (* The deployed base is the initial release alone; the feature release
     then arrives as a field-upgrade change on that base. *)
  match
    Result.bind
      (C.synthesize
         ~include_graph:(fun g -> not (List.mem g upgrade_graphs))
         spec lib)
      (fun base -> R.apply base (R.Upgrade upgrade_graphs))
  with
  | Error msg ->
      Format.printf "analysis failed: %s@." msg;
      exit 1
  | Ok rep -> (
      Format.printf "--- deployed architecture ---@.%a@.@." C.pp_report
        rep.R.deployed;
      Format.printf "--- after the feature release ---@.%a@.@." R.pp_report rep;
      match rep.R.verdict with
      | R.Images_only { added_images; _ } ->
          Format.printf
            "VERDICT: upgrade ships as %d new configuration image(s) — pure@."
            added_images;
          Format.printf "reprogramming, no hardware change.@."
      | R.Needs_hardware { added_pes; added_cost; _ } ->
          Format.printf "VERDICT: upgrade needs %d new PE(s), +$%.0f.@." added_pes
            added_cost
      | R.Infeasible -> Format.printf "VERDICT: upgrade infeasible.@.")
