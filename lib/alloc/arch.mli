(** The evolving hardware/software architecture: PE instances (each
    programmable PE possibly carrying several configuration modes),
    link instances, and the cluster placement map.

    There is no fixed architectural template (Section 2.2): PEs and links
    are instantiated on demand by the allocation step, and PPE instances
    acquire additional modes when compatible (non-overlapping) clusters
    time-share them through dynamic reconfiguration. *)

type mode = {
  m_id : int;
  mutable m_clusters : int list;  (** cluster ids resident in this mode *)
  mutable m_gates : int;  (** PFUs/gates used by the resident clusters *)
  mutable m_pins : int;
}

type pe_inst = {
  p_id : int;
  ptype : Crusade_resource.Pe.t;
  modes : mode Crusade_util.Vec.t;
      (** indexed by [m_id]; non-programmable PEs have exactly one *)
  mutable used_memory : int;  (** CPU: bytes of DRAM consumed *)
  mutable boot_full_us : int;
      (** time to reprogram the whole device with the current programming
          interface (PPE only; see {!Interface} in [crusade_reconfig]) *)
  mutable p_failed : bool;
      (** the PE has failed in the field: it keeps its [p_id] (sites
          index into the PE vector) but {!place_cluster} and candidate
          enumeration reject it; once re-synthesis vacates it, it
          contributes nothing to {!cost} or {!n_pes} *)
}

type link_inst = {
  l_id : int;
  ltype : Crusade_resource.Link.t;
  mutable attached : int list;  (** PE ids on this link (its ports) *)
}

type site = { s_pe : int; s_mode : int }
(** Where a cluster lives: PE instance id and mode id on that PE. *)

type levels_cache = {
  lc_spec : Crusade_taskgraph.Spec.t;
  lc_clustering : Crusade_cluster.Clustering.t;
  lc_levels : int array;
}
(** Memoized priority levels (see {!cached_levels}), valid for exactly
    the (spec, clustering) pair they were computed against. *)

type t = {
  lib : Crusade_resource.Library.t;
  pes : pe_inst Crusade_util.Vec.t;
  links : link_inst Crusade_util.Vec.t;
  sites : (int, site) Hashtbl.t;  (** cluster id -> placement *)
  mutable interface_cost : float option;
      (** reconfiguration-controller + image-storage cost once interface
          synthesis has run; [None] until then, in which case {!cost}
          uses a per-image PROM estimate *)
  links_cache : (int, link_inst list) Hashtbl.t;
      (** {!links_between} memo keyed by [(min lsl 20) lor max] of the PE
          pair (an int key hashes far cheaper than a tuple on the
          scheduler's per-transfer probe path), shared by every
          [Schedule.run] against this architecture; cleared on any
          connectivity change and left cold by {!copy} (its values alias
          the source's link records) *)
  mutable links_cache_full : bool;
      (** the memo holds every connected pair (one-pass population on
          first probe); a missing key then means "no link" *)
  mutable levels_cache : levels_cache option;
      (** last priority-levels computation; cleared on any mutation *)
  mutable journal : (unit -> unit) list;
      (** undo thunks, newest first; populated only between
          {!checkpoint} and the matching {!rollback}/{!commit} *)
  mutable journal_len : int;
  mutable journal_depth : int;  (** open checkpoints *)
  mutable conn_epoch : int;
      (** connectivity-affecting operations recorded since the journal
          opened; lets {!rollback} keep the warm [links_cache] when a
          trial only moved clusters around *)
}

val create : Crusade_resource.Library.t -> t

val copy : t -> t
(** Deep copy (the merge phase's private working architecture, each
    resynthesis attempt's post-change architecture).  The copy never
    inherits open checkpoints. *)

(** {2 Undo journal}

    Candidate evaluation trials mutations directly on the base
    architecture instead of deep-copying it: [checkpoint] opens
    a journal scope, every mutating operation ({!place_cluster},
    {!unplace_cluster}, {!add_pe}, {!add_mode}, {!add_link}, {!attach},
    {!detach_unused}) logs its inverse, and [rollback] runs the log
    backwards, restoring the base bit-for-bit — including the
    [links_cache]/[levels_cache] memo state: the levels memo saved at the
    checkpoint is reinstated, and the link memo is reset only when the
    trial actually touched connectivity.  Checkpoints nest (LIFO); each
    must be consumed by exactly one [rollback] or [commit]. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Opens a journal scope; mutations are recorded until the matching
    {!rollback} or {!commit}. *)

val rollback : t -> checkpoint -> unit
(** Undoes every operation recorded since the checkpoint. *)

val commit : t -> checkpoint -> unit
(** Accepts the operations recorded since the checkpoint (outer
    checkpoints, if any, can still undo them). *)

val add_pe : t -> Crusade_resource.Pe.t -> pe_inst
(** Instantiates a PE with one (empty) mode. *)

val add_mode : t -> pe_inst -> mode
(** Adds a configuration mode to a programmable PE.
    @raise Invalid_argument on non-programmable PEs. *)

val add_link : t -> Crusade_resource.Link.t -> link_inst

val attach : t -> link_inst -> pe_inst -> (unit, string) result
(** Connects a PE to a link, consuming one port.  Idempotent per pair. *)

val fail_pe : t -> pe_inst -> unit
(** Marks a PE as failed in the field (journaled; idempotent).  Existing
    placements are untouched — re-synthesis is responsible for vacating
    them — but new placements and candidate enumeration reject the PE. *)

val place_cluster :
  t ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_cluster.Clustering.cluster ->
  pe:pe_inst ->
  mode:mode ->
  (unit, string) result
(** Places a cluster, enforcing execution feasibility of every member on
    the PE type, capacity (CPU memory; ASIC gates/pins; PPE ERUF/EPUF
    caps per mode) and the exclusion vectors against co-resident tasks. *)

val unplace_cluster :
  t -> Crusade_cluster.Clustering.t -> Crusade_cluster.Clustering.cluster -> unit
(** Removes a placed cluster from its site (mode occupancy, CPU memory
    and the placement map); no-op when the cluster is unplaced.  Used by
    the merge exploration of dynamic-reconfiguration generation. *)

val detach_unused : t -> unit
(** Drops link ports of PEs that no longer host any cluster, so merged
    architectures stop paying for dead connectivity. *)

val site_of_cluster : t -> int -> site option

val pe_of_cluster : t -> int -> pe_inst option

val mode_of_site : t -> site -> mode
(** O(1): modes are indexed by [m_id]. *)

val pe_in_use : pe_inst -> bool
(** Does any mode hold a cluster?  Allocation-free short-circuit used by
    the cost and counting hot paths. *)

val memory_banks : pe_inst -> int
(** DRAM banks a CPU instance needs for its resident clusters. *)

val n_images : pe_inst -> int
(** Number of configuration images (modes actually holding clusters). *)

val mode_boot_us : pe_inst -> mode -> int
(** Time to switch the device to [mode]: full-device reprogramming time,
    scaled down for partially reconfigurable devices by the fraction of
    PFUs the mode actually uses. *)

val cost : t -> float
(** Total dollar cost: PEs + CPU DRAM banks + links and ports + boot
    PROM storage for every configuration image + the reconfiguration
    interface (estimate until interface synthesis runs). *)

val prom_dollars_per_kbyte : float

val links_between : t -> int -> int -> link_inst list
(** Link instances to which both PEs are attached.  Memoized per PE pair
    until the architecture's connectivity changes, so the scheduler's
    hot path pays the link scan once per architecture, not once per
    [Schedule.run].  Callers must treat the returned list as read-only. *)

val cached_levels :
  t -> Crusade_taskgraph.Spec.t -> Crusade_cluster.Clustering.t -> int array option
(** Priority levels cached by the last {!set_cached_levels} for
    physically this (spec, clustering) pair, or [None] after any
    mutation.  Lets [Schedule.priorities] be recomputed only when the
    architecture actually changed — e.g. the allocation loop commits a
    candidate whose levels were already computed when it was evaluated,
    and the next iteration reuses them.  The array is shared: callers
    must not mutate it. *)

val set_cached_levels :
  t -> Crusade_taskgraph.Spec.t -> Crusade_cluster.Clustering.t -> int array -> unit

val n_pes : t -> int
val n_links : t -> int
(** Counts of *used* PEs/links (with at least one cluster / two ports). *)

val task_site : t -> Crusade_cluster.Clustering.t -> int -> site option
(** Placement of a task via its cluster. *)

val pp_summary : Format.formatter -> t -> unit
