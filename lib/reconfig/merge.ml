module Spec = Crusade_taskgraph.Spec
module Task = Crusade_taskgraph.Task
module Pe = Crusade_resource.Pe
module Caps = Crusade_resource.Caps
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Connect = Crusade_alloc.Connect
module Schedule = Crusade_sched.Schedule
module Incremental = Crusade_sched.Incremental
module Vec = Crusade_util.Vec
module Trace = Crusade_util.Trace

type stats = {
  merges_accepted : int;
  merges_tried : int;
  modes_combined : int;
  iterations : int;
}

let merge_potential (arch : Arch.t) =
  let ppes =
    Vec.fold
      (fun acc (pe : Arch.pe_inst) ->
        if Pe.is_programmable pe.Arch.ptype && Arch.n_images pe > 0 then acc + 1 else acc)
      0 arch.Arch.pes
  in
  ppes + Arch.n_links arch

let occupied_modes (pe : Arch.pe_inst) =
  List.filter
    (fun (m : Arch.mode) -> m.Arch.m_clusters <> [])
    (Vec.to_list pe.Arch.modes)

let graphs_of_pe (clustering : Clustering.t) (pe : Arch.pe_inst) =
  List.sort_uniq compare
    (Vec.fold
       (fun acc (m : Arch.mode) ->
         List.map (fun cid -> clustering.clusters.(cid).Clustering.graph) m.Arch.m_clusters
         @ acc)
       [] pe.Arch.modes)

(* Usable-capacity caps, optionally tightened by a portfolio
   perturbation.  Scales are in (0, 1]: a scale below 1.0 only ever
   REJECTS merges the unperturbed pass would accept, so every
   architecture a scaled pass produces is one the audit accepts. *)
let scaled_caps ~fit_scale (ptype : Pe.t) =
  let spf, spin = fit_scale in
  ( int_of_float (spf *. float_of_int (Caps.usable_pfus ptype)),
    int_of_float (spin *. float_of_int (Caps.usable_pins ptype)) )

(* Can every mode of [src] move (as a whole) onto a fresh mode of
   [dst]'s device type? *)
let modes_fit ~fit_scale (src : Arch.pe_inst) (dst : Arch.pe_inst) clustering =
  let pfus, pins = scaled_caps ~fit_scale dst.Arch.ptype in
  List.for_all
    (fun (m : Arch.mode) ->
      m.Arch.m_gates <= pfus
      && m.Arch.m_pins <= pins
      && List.for_all
           (fun cid ->
             clustering.Clustering.clusters.(cid).Clustering.feasible_mask
             land (1 lsl dst.Arch.ptype.Pe.id)
             <> 0)
           m.Arch.m_clusters)
    (occupied_modes src)

(* Move every cluster of [src] into fresh modes of [dst], mutating
   [arch] in place.  Every mutation below ([add_mode], [unplace_cluster],
   [place_cluster], the [attach]/[add_link] inside [Connect.ensure],
   [detach_unused]) journals its inverse, so the caller runs this under
   an open {!Arch.checkpoint} and rolls back on rejection. *)
let apply_merge spec clustering arch ~src_id ~dst_id =
  let src = Vec.get arch.Arch.pes src_id and dst = Vec.get arch.Arch.pes dst_id in
  let move_mode (m : Arch.mode) =
    let fresh = Arch.add_mode arch dst in
    List.fold_left
      (fun acc cid ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
            let cluster = clustering.Clustering.clusters.(cid) in
            Arch.unplace_cluster arch clustering cluster;
            (match Arch.place_cluster arch spec clustering cluster ~pe:dst ~mode:fresh with
            | Error _ as e -> e
            | Ok () -> Connect.ensure arch spec clustering cluster |> Result.map (fun _ -> ())))
      (Ok ()) m.Arch.m_clusters
  in
  let moved =
    List.fold_left
      (fun acc m -> match acc with Error _ as e -> e | Ok () -> move_mode m)
      (Ok ())
      (occupied_modes src)
  in
  match moved with
  | Error _ as e -> e
  | Ok () ->
      Arch.detach_unused arch;
      Ok ()

(* Combine two occupied modes of the same device when the union respects
   the ERUF/EPUF caps (Section 4.2: "we try to combine C1, C2 and C3 in
   the same FPGA mode if there exist sufficient resources").  In-place,
   journaled like [apply_merge]. *)
let apply_combine spec clustering arch ~pe_id ~mode_a ~mode_b =
  let pe = Vec.get arch.Arch.pes pe_id in
  let target = Vec.get pe.Arch.modes mode_a in
  let source = Vec.get pe.Arch.modes mode_b in
  List.fold_left
    (fun acc cid ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          let cluster = clustering.Clustering.clusters.(cid) in
          Arch.unplace_cluster arch clustering cluster;
          Arch.place_cluster arch spec clustering cluster ~pe ~mode:target)
    (Ok ()) source.Arch.m_clusters

let optimize ?(copy_cap = Schedule.default_copy_cap) ?(max_trials_per_pass = 400)
    ?(fit_scale = (1.0, 1.0)) ?(on_pass = fun () -> ()) ?trace
    ~eval ~schedule spec clustering arch =
  (* Trials never deep-copy the architecture: they mutate the live one
     under a journal checkpoint, evaluate the delta (the incremental
     engine replays the untouched prefix against its warm basis), and
     roll back unless accepted. *)
  let run_schedule a = Incremental.run eval ~copy_cap spec clustering a in
  (* Acceptance needs a feasible schedule at [base_cost] or better
     ([strict] for device merges, non-strict for mode combines): a trial
     that costs too much is rejected unscheduled, and the rest are
     replayed only until their first late instance. *)
  let accepts ~base_cost ~strict trial =
    let trial_cost = Arch.cost trial in
    (if strict then trial_cost < base_cost else trial_cost <= base_cost)
    &&
    match Incremental.evaluate eval ~copy_cap ~limit:0 spec clustering trial with
    | Error _ -> false
    | Ok v -> v.Schedule.v_met
  in
  let current = Arch.copy arch in
  let current_sched = ref schedule in
  let merges_accepted = ref 0
  and merges_tried = ref 0
  and modes_combined = ref 0
  and iterations = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    incr iterations;
    Trace.instant trace "merge.pass";
    (* Budget/cancel hook: may raise to stop the run between passes. *)
    on_pass ();
    let compat = Compat.matrix spec !current_sched in
    (* Merge array: candidate (src, dst) PPE pairs, best saving first. *)
    let ppes =
      Vec.fold
        (fun acc (pe : Arch.pe_inst) ->
          if Pe.is_programmable pe.Arch.ptype && Arch.n_images pe > 0 then pe :: acc
          else acc)
        [] current.Arch.pes
    in
    let candidates = ref [] in
    List.iter
      (fun (src : Arch.pe_inst) ->
        List.iter
          (fun (dst : Arch.pe_inst) ->
            if src.Arch.p_id <> dst.Arch.p_id then begin
              let src_graphs = graphs_of_pe clustering src
              and dst_graphs = graphs_of_pe clustering dst in
              if
                Compat.graphs_compatible compat src_graphs dst_graphs
                && modes_fit ~fit_scale src dst clustering
              then begin
                let saving = src.Arch.ptype.Pe.cost in
                candidates := (saving, src.Arch.p_id, dst.Arch.p_id) :: !candidates
              end
            end)
          ppes)
      ppes;
    let sorted =
      Array.of_list (List.sort (fun (a, _, _) (b, _, _) -> compare b a) !candidates)
    in
    (* Merge trials in saving order; the first improving feasible
       merge is kept and the walk continues against the updated
       architecture.  Pairs gone stale after an accepted merge are
       skipped without counting as trials. *)
    let n_candidates = Array.length sorted in
    let trials = ref 0 in
    let pos = ref 0 in
    while !pos < n_candidates && !trials < max_trials_per_pass do
      let _, src_id, dst_id = sorted.(!pos) in
      let pos_k = !pos in
      incr pos;
      let src = Vec.get current.Arch.pes src_id
      and dst = Vec.get current.Arch.pes dst_id in
      if
        Arch.n_images src > 0 && Arch.n_images dst > 0
        && modes_fit ~fit_scale src dst clustering
      then begin
        incr trials;
        incr merges_tried;
        let base_cost = Arch.cost current in
        let ck = Arch.checkpoint current in
        let verdict_ok =
          Trace.span trace
            ~args:[ ("trial", Trace.Num pos_k) ]
            "merge.trial"
            (fun () ->
              match apply_merge spec clustering current ~src_id ~dst_id with
              | Error _ -> false
              | Ok () -> accepts ~base_cost ~strict:true current)
        in
        if verdict_ok then begin
          (* The verdict said feasible, so the unbounded replay
             behind the kept schedule cannot fail (same inputs,
             bit-identical result). *)
          match run_schedule current with
          | Error _ -> Arch.rollback current ck
          | Ok sched ->
              Arch.commit current ck;
              current_sched := sched;
              incr merges_accepted;
              improved := true
        end
        else Arch.rollback current ck
      end
    done;
    (* Mode-combining pass on each multi-image device.  The fit
       precheck reads a pass-entry snapshot of each device's
       occupied modes (ids, gates, pins), not the live modes that
       accepted combines grow: this pins the trial sequence, and
       with it the accepted combines, to the pass-entry
       architecture. *)
    let combine_plan =
      let acc = ref [] in
      Vec.iter
        (fun (pe : Arch.pe_inst) ->
          match occupied_modes pe with
          | (a : Arch.mode) :: (_ :: _ as rest) ->
              acc :=
                ( pe.Arch.p_id,
                  pe.Arch.ptype,
                  (a.Arch.m_id, a.Arch.m_gates, a.Arch.m_pins),
                  List.map
                    (fun (b : Arch.mode) ->
                      (b.Arch.m_id, b.Arch.m_gates, b.Arch.m_pins))
                    rest )
                :: !acc
          | _ -> ())
        current.Arch.pes;
      List.rev !acc
    in
    List.iter
      (fun (pe_id, ptype, (a_id, a_gates, a_pins), rest) ->
        List.iter
          (fun (b_id, b_gates, b_pins) ->
            let pfus, pins = scaled_caps ~fit_scale ptype in
            let fits =
              a_gates + b_gates <= pfus && a_pins + b_pins <= pins
            in
            if fits then
              Trace.span trace
                ~args:[ ("pe", Trace.Num pe_id) ]
                "merge.combine"
                (fun () ->
                  let base_cost = Arch.cost current in
                  let ck = Arch.checkpoint current in
                  let verdict_ok =
                    match
                      apply_combine spec clustering current ~pe_id
                        ~mode_a:a_id ~mode_b:b_id
                    with
                    | Error _ -> false
                    | Ok () -> accepts ~base_cost ~strict:false current
                  in
                  if verdict_ok then begin
                    match run_schedule current with
                    | Error _ -> Arch.rollback current ck
                    | Ok sched ->
                        Arch.commit current ck;
                        current_sched := sched;
                        incr modes_combined;
                        improved := true
                  end
                  else Arch.rollback current ck))
          rest)
      combine_plan
  done;
  ( current,
    !current_sched,
    {
      merges_accepted = !merges_accepted;
      merges_tried = !merges_tried;
      modes_combined = !modes_combined;
      iterations = !iterations;
    } )
