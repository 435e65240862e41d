module Pe = Crusade_resource.Pe
module Link = Crusade_resource.Link
module Library = Crusade_resource.Library
module Caps = Crusade_resource.Caps
module Clustering = Crusade_cluster.Clustering
module Vec = Crusade_util.Vec

type mode = {
  m_id : int;
  mutable m_clusters : int list;
  mutable m_gates : int;
  mutable m_pins : int;
}

type pe_inst = {
  p_id : int;
  ptype : Pe.t;
  modes : mode Vec.t;
  mutable used_memory : int;
  mutable boot_full_us : int;
  mutable p_failed : bool;
      (* A failed PE keeps its [p_id] (sites index into the vector) but
         accepts no placements; re-synthesis vacates it, after which it
         contributes nothing to cost or counts ([pe_in_use] is false). *)
}

type link_inst = {
  l_id : int;
  ltype : Link.t;
  mutable attached : int list;
}

type site = { s_pe : int; s_mode : int }

type levels_cache = {
  lc_spec : Crusade_taskgraph.Spec.t;
  lc_clustering : Clustering.t;
  lc_levels : int array;
}

type t = {
  lib : Library.t;
  pes : pe_inst Vec.t;
  links : link_inst Vec.t;
  sites : (int, site) Hashtbl.t;
  mutable interface_cost : float option;
  links_cache : (int, link_inst list) Hashtbl.t;
  mutable links_cache_full : bool;
      (* [links_cache] holds *every* connected pair (populated in one
         pass over the links); a missing key then means "no link", with
         no per-pair filtering fallback. *)
  mutable levels_cache : levels_cache option;
  (* Undo journal (trial architectures without deep copies): while at
     least one checkpoint is open, every mutating operation pushes a
     thunk that restores the pre-operation state; [rollback] pops and
     runs them back to the checkpoint.  [conn_epoch] counts
     connectivity-affecting operations so a rollback knows whether the
     [links_cache] may hold entries computed against trial connectivity
     (in which case it is reset; otherwise the warm memo survives the
     trial). *)
  mutable journal : (unit -> unit) list;
  mutable journal_len : int;
  mutable journal_depth : int;
  mutable conn_epoch : int;
}

type checkpoint = { ck_pos : int; ck_levels : levels_cache option; ck_conn : int }

(* Cache invalidation: [links_cache] memoizes {!links_between} and dies
   with any connectivity change; the priority-levels cache additionally
   depends on placements, so every architecture mutation clears it. *)
let touch_levels t = t.levels_cache <- None

let touch_links t =
  Hashtbl.reset t.links_cache;
  t.links_cache_full <- false;
  t.levels_cache <- None

let journaling t = t.journal_depth > 0

let record t undo =
  if journaling t then begin
    t.journal <- undo :: t.journal;
    t.journal_len <- t.journal_len + 1
  end

let note_conn t = if journaling t then t.conn_epoch <- t.conn_epoch + 1

let checkpoint t =
  t.journal_depth <- t.journal_depth + 1;
  { ck_pos = t.journal_len; ck_levels = t.levels_cache; ck_conn = t.conn_epoch }

let rollback t ck =
  while t.journal_len > ck.ck_pos do
    match t.journal with
    | undo :: rest ->
        undo ();
        t.journal <- rest;
        t.journal_len <- t.journal_len - 1
    | [] -> assert false
  done;
  t.journal_depth <- t.journal_depth - 1;
  if t.conn_epoch > ck.ck_conn then begin
    (* The trial changed connectivity (or instantiated resources), so
       the link memo may hold entries computed against it. *)
    Hashtbl.reset t.links_cache;
    t.links_cache_full <- false;
    t.conn_epoch <- ck.ck_conn
  end;
  (* The levels memo saved at the checkpoint is valid again for the
     restored placement. *)
  t.levels_cache <- ck.ck_levels

let commit t ck =
  ignore ck.ck_pos;
  t.journal_depth <- t.journal_depth - 1;
  if t.journal_depth = 0 then begin
    t.journal <- [];
    t.journal_len <- 0
  end

let prom_dollars_per_kbyte = 0.35

(* Default programming interface assumed until interface synthesis runs:
   8-bit parallel at 10 MHz, i.e. 80 configuration bits per microsecond.
   Starting from the fastest interface lets the merge phase find every
   timing-feasible sharing; interface synthesis then walks down to the
   cheapest option that keeps the schedule feasible. *)
let default_bits_per_us = 80

let create lib =
  {
    lib;
    pes = Vec.create ();
    links = Vec.create ();
    sites = Hashtbl.create 64;
    interface_cost = None;
    links_cache = Hashtbl.create 64;
    links_cache_full = false;
    levels_cache = None;
    journal = [];
    journal_len = 0;
    journal_depth = 0;
    conn_epoch = 0;
  }

let copy t =
  let copy_mode m =
    { m_id = m.m_id; m_clusters = m.m_clusters; m_gates = m.m_gates; m_pins = m.m_pins }
  in
  let copy_pe p =
    {
      p_id = p.p_id;
      ptype = p.ptype;
      modes = Vec.map_copy copy_mode p.modes;
      used_memory = p.used_memory;
      boot_full_us = p.boot_full_us;
      p_failed = p.p_failed;
    }
  in
  let copy_link l = { l_id = l.l_id; ltype = l.ltype; attached = l.attached } in
  {
    lib = t.lib;
    pes = Vec.map_copy copy_pe t.pes;
    links = Vec.map_copy copy_link t.links;
    sites = Hashtbl.copy t.sites;
    interface_cost = t.interface_cost;
    (* The link memo holds [link_inst] values of the source architecture;
       carrying it over would alias stale records, so the copy starts
       cold.  The levels cache is a plain int array valid for the copied
       placement, so it transfers (any later mutation clears it). *)
    links_cache = Hashtbl.create 64;
    links_cache_full = false;
    levels_cache = t.levels_cache;
    (* Copies are independent trial states: they never inherit the
       source's open checkpoints. *)
    journal = [];
    journal_len = 0;
    journal_depth = 0;
    conn_epoch = 0;
  }

let fresh_mode m_id = { m_id; m_clusters = []; m_gates = 0; m_pins = 0 }

let add_pe t (ptype : Pe.t) =
  let boot_full_us =
    match ptype.pe_class with
    | Pe.Programmable info -> info.config_bits / default_bits_per_us
    | Pe.General_purpose _ | Pe.Asic_pe _ -> 0
  in
  let modes = Vec.create () in
  Vec.push modes (fresh_mode 0);
  let pe =
    {
      p_id = Vec.length t.pes;
      ptype;
      modes;
      used_memory = 0;
      boot_full_us;
      p_failed = false;
    }
  in
  Vec.push t.pes pe;
  record t (fun () -> ignore (Vec.pop t.pes));
  (* A rolled-back PE frees its [p_id] for the next trial; link-memo
     entries mentioning it must not survive into that trial. *)
  note_conn t;
  touch_levels t;
  pe

let add_mode t pe =
  if not (Pe.is_programmable pe.ptype) then
    invalid_arg "Arch.add_mode: only programmable PEs have multiple modes";
  let mode = fresh_mode (Vec.length pe.modes) in
  Vec.push pe.modes mode;
  record t (fun () -> ignore (Vec.pop pe.modes));
  mode

let add_link t (ltype : Link.t) =
  let link = { l_id = Vec.length t.links; ltype; attached = [] } in
  Vec.push t.links link;
  record t (fun () -> ignore (Vec.pop t.links));
  note_conn t;
  touch_links t;
  link

let attach t link pe =
  if List.mem pe.p_id link.attached then Ok ()
  else if List.length link.attached >= link.ltype.Link.max_ports then
    Error (Printf.sprintf "link %s is full" link.ltype.Link.name)
  else begin
    let before = link.attached in
    link.attached <- pe.p_id :: before;
    record t (fun () -> link.attached <- before);
    note_conn t;
    touch_links t;
    Ok ()
  end

let fail_pe t pe =
  if not pe.p_failed then begin
    pe.p_failed <- true;
    record t (fun () -> pe.p_failed <- false);
    (* Candidate enumeration and link routing must not see the PE. *)
    note_conn t;
    touch_levels t
  end

let site_of_cluster t cid = Hashtbl.find_opt t.sites cid

let pe_of_cluster t cid =
  match site_of_cluster t cid with
  | Some site -> Some (Vec.get t.pes site.s_pe)
  | None -> None

let mode_of_site t site =
  let pe = Vec.get t.pes site.s_pe in
  Vec.get pe.modes site.s_mode

let pe_in_use pe = Vec.exists (fun m -> m.m_clusters <> []) pe.modes

(* Exclusion vectors forbid two tasks from sharing a PE, whatever the
   mode. *)
let exclusion_conflict t (spec : Crusade_taskgraph.Spec.t) (clustering : Clustering.t)
    (cluster : Clustering.cluster) pe =
  let on_this_pe task_id =
    match site_of_cluster t clustering.of_task.(task_id) with
    | Some site -> site.s_pe = pe.p_id
    | None -> false
  in
  List.exists
    (fun member ->
      let task = Crusade_taskgraph.Spec.task spec member in
      List.exists on_this_pe task.Crusade_taskgraph.Task.exclusion)
    cluster.members

(* Snapshot a (mode, pe) occupancy plus the cluster's placement-map entry
   for the journal. *)
let record_occupancy t (mode : mode) (pe : pe_inst) cid =
  if journaling t then begin
    let clusters = mode.m_clusters
    and gates = mode.m_gates
    and pins = mode.m_pins
    and memory = pe.used_memory
    and site = Hashtbl.find_opt t.sites cid in
    record t (fun () ->
        mode.m_clusters <- clusters;
        mode.m_gates <- gates;
        mode.m_pins <- pins;
        pe.used_memory <- memory;
        match site with
        | Some s -> Hashtbl.replace t.sites cid s
        | None -> Hashtbl.remove t.sites cid)
  end

let place_cluster t spec (clustering : Clustering.t) (cluster : Clustering.cluster) ~pe
    ~mode =
  if Hashtbl.mem t.sites cluster.cid then Error "cluster already placed"
  else if pe.p_failed then Error "PE has failed"
  else if cluster.feasible_mask land (1 lsl pe.ptype.Pe.id) = 0 then
    Error "cluster cannot execute on this PE type"
  else if exclusion_conflict t spec clustering cluster pe then
    Error "exclusion vector conflict"
  else begin
    let capacity_ok =
      match pe.ptype.Pe.pe_class with
      | Pe.General_purpose cpu ->
          pe.used_memory + cluster.memory_bytes
          <= cpu.memory_bank_bytes * cpu.max_memory_banks
      | Pe.Asic_pe a ->
          mode.m_gates + cluster.gates <= a.gates && mode.m_pins + cluster.pins <= a.pins
      | Pe.Programmable _ ->
          mode.m_gates + cluster.gates <= Caps.usable_pfus pe.ptype
          && mode.m_pins + cluster.pins <= Caps.usable_pins pe.ptype
    in
    if not capacity_ok then Error "insufficient capacity"
    else begin
      record_occupancy t mode pe cluster.cid;
      mode.m_clusters <- cluster.cid :: mode.m_clusters;
      mode.m_gates <- mode.m_gates + cluster.gates;
      mode.m_pins <- mode.m_pins + cluster.pins;
      pe.used_memory <- pe.used_memory + cluster.memory_bytes;
      Hashtbl.replace t.sites cluster.cid { s_pe = pe.p_id; s_mode = mode.m_id };
      touch_levels t;
      Ok ()
    end
  end

let unplace_cluster t (clustering : Clustering.t) (cluster : Clustering.cluster) =
  match Hashtbl.find_opt t.sites cluster.cid with
  | None -> ()
  | Some site ->
      let pe = Vec.get t.pes site.s_pe in
      let mode = Vec.get pe.modes site.s_mode in
      record_occupancy t mode pe cluster.cid;
      mode.m_clusters <- List.filter (fun cid -> cid <> cluster.cid) mode.m_clusters;
      mode.m_gates <- mode.m_gates - cluster.gates;
      mode.m_pins <- mode.m_pins - cluster.pins;
      pe.used_memory <- pe.used_memory - cluster.memory_bytes;
      ignore clustering;
      Hashtbl.remove t.sites cluster.cid;
      touch_levels t

let detach_unused t =
  let hosting = Hashtbl.create 16 in
  Vec.iter (fun pe -> if pe_in_use pe then Hashtbl.replace hosting pe.p_id ()) t.pes;
  Vec.iter
    (fun (l : link_inst) ->
      let before = l.attached in
      let after = List.filter (fun pe_id -> Hashtbl.mem hosting pe_id) before in
      if after != before then begin
        l.attached <- after;
        record t (fun () -> l.attached <- before)
      end)
    t.links;
  note_conn t;
  touch_links t

let memory_banks pe =
  match pe.ptype.Pe.pe_class with
  | Pe.General_purpose cpu ->
      if pe.used_memory = 0 then 1
      else Crusade_util.Arith.ceil_div pe.used_memory cpu.memory_bank_bytes
  | Pe.Asic_pe _ | Pe.Programmable _ -> 0

let n_images pe =
  Vec.fold (fun acc m -> if m.m_clusters <> [] then acc + 1 else acc) 0 pe.modes

let mode_boot_us pe mode =
  match pe.ptype.Pe.pe_class with
  | Pe.Programmable info when info.partially_reconfigurable ->
      let fraction =
        max 0.1 (float_of_int mode.m_gates /. float_of_int (max 1 info.pfus))
      in
      int_of_float (fraction *. float_of_int pe.boot_full_us)
  | Pe.Programmable _ -> pe.boot_full_us
  | Pe.General_purpose _ | Pe.Asic_pe _ -> 0

let cost t =
  let pe_cost acc pe =
    if not (pe_in_use pe) then acc
    else begin
      let base = pe.ptype.Pe.cost in
      let memory =
        match pe.ptype.Pe.pe_class with
        | Pe.General_purpose cpu -> float_of_int (memory_banks pe) *. cpu.memory_bank_cost
        | Pe.Asic_pe _ | Pe.Programmable _ -> 0.0
      in
      let prom =
        (* Once interface synthesis has run, storage is in interface_cost. *)
        match (t.interface_cost, pe.ptype.Pe.pe_class) with
        | None, Pe.Programmable info ->
            float_of_int (n_images pe * info.boot_memory_bytes)
            /. 1024.0 *. prom_dollars_per_kbyte
        | Some _, _ | _, (Pe.General_purpose _ | Pe.Asic_pe _) -> 0.0
      in
      acc +. base +. memory +. prom
    end
  in
  let link_cost acc (link : link_inst) =
    if List.length link.attached < 2 then acc
    else
      acc +. link.ltype.Link.cost
      +. (float_of_int (List.length link.attached) *. link.ltype.Link.port_cost)
  in
  Vec.fold pe_cost 0.0 t.pes +. Vec.fold link_cost 0.0 t.links
  +. Option.value ~default:0.0 t.interface_cost

(* One pass over the links fills the memo for every connected pair at
   once — the former per-pair [List.filter]/[List.mem] fallback was
   quadratic in practice (candidate trials invalidate the memo, and the
   scheduler then probes many pairs per run) and dominated profiles of
   the allocation inner loop.  Pair lists keep the link-vector order the
   old filter produced; [pe = pe] pairs are populated too (a link with
   the PE attached), preserving the filter's degenerate-case answer. *)
let populate_links_cache t =
  Hashtbl.reset t.links_cache;
  Vec.iter
    (fun (l : link_inst) ->
      let att = List.sort_uniq Int.compare l.attached in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a <= b then begin
                let key = (a lsl 20) lor b in
                match Hashtbl.find_opt t.links_cache key with
                | Some ls -> Hashtbl.replace t.links_cache key (l :: ls)
                | None -> Hashtbl.replace t.links_cache key [ l ]
              end)
            att)
        att)
    t.links;
  (* Each pair's list was built newest-first; flip to link-vector order. *)
  Hashtbl.filter_map_inplace (fun _ ls -> Some (List.rev ls)) t.links_cache;
  t.links_cache_full <- true

let links_between t pe_a pe_b =
  if not t.links_cache_full then populate_links_cache t;
  let key =
    if pe_a < pe_b then (pe_a lsl 20) lor pe_b else (pe_b lsl 20) lor pe_a
  in
  match Hashtbl.find_opt t.links_cache key with Some ls -> ls | None -> []

let cached_levels t spec clustering =
  match t.levels_cache with
  | Some c when c.lc_spec == spec && c.lc_clustering == clustering -> Some c.lc_levels
  | Some _ | None -> None

let set_cached_levels t spec clustering levels =
  t.levels_cache <- Some { lc_spec = spec; lc_clustering = clustering; lc_levels = levels }

let n_pes t = Vec.fold (fun acc pe -> if pe_in_use pe then acc + 1 else acc) 0 t.pes

let n_links t =
  Vec.fold
    (fun acc (l : link_inst) -> if List.length l.attached >= 2 then acc + 1 else acc)
    0 t.links

let task_site t (clustering : Clustering.t) task_id =
  site_of_cluster t clustering.of_task.(task_id)
