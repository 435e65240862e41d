module Spec = Crusade_taskgraph.Spec
module Task = Crusade_taskgraph.Task
module Edge = Crusade_taskgraph.Edge
module Graph = Crusade_taskgraph.Graph
module Pe = Crusade_resource.Pe
module Link = Crusade_resource.Link
module Library = Crusade_resource.Library
module Clustering = Crusade_cluster.Clustering
module Priority = Crusade_cluster.Priority
module Arch = Crusade_alloc.Arch
module Vec = Crusade_util.Vec
module Intervals = Crusade_util.Intervals

type instance = {
  i_task : int;
  i_copy : int;
  arrival : int;
  abs_deadline : int;
  mutable start : int;
  mutable finish : int;
}

type t = {
  instances : instance array;
  hyperperiod : int;
  deadlines_met : bool;
  total_tardiness : int;
  graph_windows : Intervals.t array;
  mode_switches : int array;
  scheduled_tasks : int;
}

let default_copy_cap = 64

(* Bytes a non-comm-processor CPU copies per microsecond when staging an
   inter-PE transfer; CPUs with a communication processor overlap
   communication with computation (Section 2.2). *)
let cpu_copy_bytes_per_us = 256

(* [compute_priorities]/[priorities] are defined after [spec_static]
   below: level recomputation reuses the cached per-spec reverse
   topological orders. *)

(* Per-PPE configuration-window bookkeeping.  Windows are kept in three
   parallel int arrays sorted by start; the former (mode, start, stop)
   list rebuilt an O(n) prefix on every commit and was a scheduler
   hot spot on large workloads. *)
type ppe_state = {
  mutable w_modes : int array;
  mutable w_starts : int array;
  mutable w_stops : int array;
  mutable w_n : int;
  boot_by_mode : int array;
}

let ppe_find_start state ~mode ~ready ~duration =
  let boot_self = state.boot_by_mode.(mode) in
  let t = ref ready in
  for i = 0 to state.w_n - 1 do
    let md = state.w_modes.(i) in
    if md <> mode then begin
      let s = state.w_starts.(i) and e = state.w_stops.(i) in
      let boot_next = state.boot_by_mode.(md) in
      (* Our window [t, t+duration) must leave room to boot into any
         other-mode window after it, and must itself start a boot
         after any other-mode window before it.  The scan stays linear:
         stops are not monotone in start order (same-mode windows may
         overlap), so no bisection is possible. *)
      if !t + duration + boot_next > s && !t < e + boot_self then
        if e + boot_self > !t then t := e + boot_self
    end
  done;
  !t

let ppe_commit state ~mode ~start ~stop =
  if state.w_n = Array.length state.w_starts then begin
    let ncap = if state.w_n = 0 then 16 else 2 * state.w_n in
    let grow a = Array.init ncap (fun i -> if i < state.w_n then a.(i) else 0) in
    state.w_modes <- grow state.w_modes;
    state.w_starts <- grow state.w_starts;
    state.w_stops <- grow state.w_stops
  end;
  (* Insert after every window with an equal-or-earlier start. *)
  let lo = ref 0 and hi = ref state.w_n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if state.w_starts.(mid) <= start then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  let tail = state.w_n - pos in
  if tail > 0 then begin
    Array.blit state.w_modes pos state.w_modes (pos + 1) tail;
    Array.blit state.w_starts pos state.w_starts (pos + 1) tail;
    Array.blit state.w_stops pos state.w_stops (pos + 1) tail
  end;
  state.w_modes.(pos) <- mode;
  state.w_starts.(pos) <- start;
  state.w_stops.(pos) <- stop;
  state.w_n <- state.w_n + 1

let count_switches state =
  (* Count mode alternations along the start-sorted windows. *)
  if state.w_n = 0 then 0
  else begin
    let acc = ref 0 in
    for i = 1 to state.w_n - 1 do
      if state.w_modes.(i) <> state.w_modes.(i - 1) then incr acc
    done;
    !acc
  end

exception Disconnected of int * int

(* Per-(spec, copy_cap) instance skeleton: everything about the
   association array that does not depend on the architecture.  Flat int
   arrays replace the per-run allocation of one record per instance —
   candidate evaluation runs the scheduler thousands of times per
   synthesis, and the skeleton (numbering, arrivals, effective
   deadlines) is identical every time. *)
type inst_static = {
  is_copy_cap : int;
  is_total : int;  (* explicit instances across all graphs *)
  is_bases : int array;  (* per graph: first instance id *)
  is_explicit : int array;  (* per graph: explicit copies *)
  is_gsize : int array;  (* per graph: task count *)
  is_task : int array;  (* per instance: global task id *)
  is_copy : int array;
  is_arrival : int array;
  is_deadline : int array;  (* effective (downstream-adjusted) deadline *)
  is_tie : bool array;
      (* per task: some instance of this task shares an effective
         deadline with an instance of a *different* task, so the
         ready-queue comparator can reach its priority level.  The
         incremental engine must treat a level change of such a task as
         invalidating; level changes of tie-free tasks cannot influence
         any comparison. *)
}

(* Spec-derived data reused by every [run]/[estimate] call of a
   synthesis: each graph's topological order and the worst-case
   downstream path per task (the effective-deadline slack — an interior
   task must leave room for the worst-case completion of the chain below
   it).  Shared by [run] and [estimate] so their effective deadlines
   agree exactly. *)
type spec_static = {
  ss_spec : Spec.t;
  ss_topo : Task.t list array;  (* indexed by graph id *)
  ss_rev_topo : Task.t list array;  (* indexed by graph id *)
  ss_hyperperiod : int;
  ss_downstream : int array;  (* indexed by task id *)
  ss_local_index : int array;  (* task id -> index within its graph *)
  ss_graph_of : int array;  (* task id -> graph id *)
  ss_max_exec : int array;  (* task id -> worst feasible execution time *)
  ss_insts : inst_static list Atomic.t;  (* per copy_cap, newest first *)
  ss_unalloc_comm : (Library.t * int array) list Atomic.t;
      (* per library (identity-keyed): worst link-library communication
         time per edge id.  Level recomputation hits this for every edge
         whose endpoints are not both placed, which during allocation is
         most of them. *)
}

(* Keyed by spec identity, bounded: processes that alternate specs
   (crusade_fuzz, batch drivers) previously thrashed a single slot and
   recomputed the statics on every switch.  The [Atomic] keeps
   portfolio trajectories and server jobs on other domains safe: a lost
   CAS race merely leaves an equivalent immutable value uncached. *)
let spec_static_capacity = 8

let spec_static_cache : spec_static list Atomic.t = Atomic.make []

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let spec_static (spec : Spec.t) =
  let cached = Atomic.get spec_static_cache in
  match List.find_opt (fun s -> s.ss_spec == spec) cached with
  | Some s -> s
  | None ->
      let n_tasks = Spec.n_tasks spec in
      let topo = Array.map Graph.topological_order spec.graphs in
      let downstream = Array.make n_tasks 0 in
      Array.iter
        (fun (g : Graph.t) ->
          List.iter
            (fun (task : Task.t) ->
              downstream.(task.id) <-
                List.fold_left
                  (fun acc (e : Edge.t) ->
                    max acc
                      (Task.max_exec (Spec.task spec e.dst) + downstream.(e.dst)))
                  0 spec.succs.(task.id))
            (List.rev topo.(g.id)))
        spec.graphs;
      let local_index = Array.make n_tasks 0 in
      let graph_of = Array.make n_tasks 0 in
      Array.iter
        (fun (g : Graph.t) ->
          Array.iteri
            (fun i (task : Task.t) ->
              local_index.(task.id) <- i;
              graph_of.(task.id) <- g.id)
            g.tasks)
        spec.graphs;
      let s =
        {
          ss_spec = spec;
          ss_topo = topo;
          ss_rev_topo = Array.map List.rev topo;
          ss_hyperperiod = Spec.hyperperiod spec;
          ss_downstream = downstream;
          ss_local_index = local_index;
          ss_graph_of = graph_of;
          ss_max_exec =
            Array.map (fun (t : Task.t) -> Task.max_exec t) spec.tasks;
          ss_insts = Atomic.make [];
          ss_unalloc_comm = Atomic.make [];
        }
      in
      ignore
        (Atomic.compare_and_set spec_static_cache cached
           (s :: take (spec_static_capacity - 1) cached));
      s

let unalloc_comm_table (static : spec_static) (lib : Library.t) =
  let cached = Atomic.get static.ss_unalloc_comm in
  match List.find_opt (fun (l, _) -> l == lib) cached with
  | Some (_, table) -> table
  | None ->
      let spec = static.ss_spec in
      let table =
        Array.init (Spec.n_edges spec) (fun i ->
            Priority.unallocated_comm lib (Spec.edge spec i))
      in
      ignore
        (Atomic.compare_and_set static.ss_unalloc_comm cached
           ((lib, table) :: take 1 cached));
      table

(* Levels are recomputed for every candidate architecture (any placement
   mutation clears the cache below), so the time providers avoid the
   per-task placement-map probes of [Arch.task_site]: cluster sites are
   resolved once into an array and each task reaches its PE through
   [Clustering.of_task], the per-graph reverse topological orders come
   from the spec statics instead of being re-sorted per call, and the
   unplaced fallbacks (worst feasible execution, worst library
   communication) are constant tables instead of per-call folds. *)
let compute_priorities (spec : Spec.t) (clustering : Clustering.t) (arch : Arch.t) =
  let static = spec_static spec in
  let ucomm = unalloc_comm_table static arch.Arch.lib in
  let link_ports =
    Array.init (Vec.length arch.Arch.links) (fun i ->
        max 2 (List.length (Vec.get arch.Arch.links i).Arch.attached))
  in
  let nc = Array.length clustering.Clustering.clusters in
  let cl_pe = Array.make nc (-1) in
  for c = 0 to nc - 1 do
    match Arch.site_of_cluster arch c with
    | Some s -> cl_pe.(c) <- s.Arch.s_pe
    | None -> ()
  done;
  let pe_of_task id = cl_pe.(clustering.Clustering.of_task.(id)) in
  let exec_time (task : Task.t) =
    let pe = pe_of_task task.Task.id in
    if pe < 0 then static.ss_max_exec.(task.Task.id)
    else begin
      let t =
        Task.exec_us_on task (Vec.get arch.Arch.pes pe).Arch.ptype.Pe.id
      in
      if t >= 0 then t else static.ss_max_exec.(task.Task.id)
    end
  in
  let comm_time (e : Edge.t) =
    if clustering.Clustering.of_task.(e.src) = clustering.Clustering.of_task.(e.dst)
    then 0
    else begin
      let pa = pe_of_task e.src and pb = pe_of_task e.dst in
      if pa < 0 || pb < 0 then ucomm.(e.id)
      else if pa = pb then 0
      else
        match Arch.links_between arch pa pb with
        | [] -> ucomm.(e.id)
        | links ->
            List.fold_left
              (fun acc (l : Arch.link_inst) ->
                let time =
                  Link.comm_time l.Arch.ltype ~ports:link_ports.(l.Arch.l_id)
                    ~bytes:e.bytes
                in
                min acc time)
              max_int links
    end
  in
  Priority.compute ~rev_orders:static.ss_rev_topo spec ~exec_time ~comm_time

(* Levels only change when the architecture does, and the same
   architecture is scheduled several times per synthesis (candidate
   evaluation, repair, merge validation, interface synthesis), so the
   last computation is cached on the architecture itself. *)
let priorities (spec : Spec.t) (clustering : Clustering.t) (arch : Arch.t) =
  match Arch.cached_levels arch spec clustering with
  | Some levels -> levels
  | None ->
      let levels = compute_priorities spec clustering arch in
      Arch.set_cached_levels arch spec clustering levels;
      levels

let inst_static (ss : spec_static) ~copy_cap =
  let cached = Atomic.get ss.ss_insts in
  match List.find_opt (fun i -> i.is_copy_cap = copy_cap) cached with
  | Some i -> i
  | None ->
      let spec = ss.ss_spec in
      let n_graphs = Spec.n_graphs spec in
      let explicit = Array.make n_graphs 0 in
      let bases = Array.make n_graphs 0 in
      let gsize = Array.make n_graphs 0 in
      let total = ref 0 in
      Array.iteri
        (fun gi (g : Graph.t) ->
          explicit.(gi) <- min (Spec.copies spec g) copy_cap;
          bases.(gi) <- !total;
          gsize.(gi) <- Graph.n_tasks g;
          total := !total + (explicit.(gi) * gsize.(gi)))
        spec.graphs;
      let total = !total in
      let i_task = Array.make total 0 in
      let i_copy = Array.make total 0 in
      let i_arrival = Array.make total 0 in
      let i_deadline = Array.make total 0 in
      let downstream = ss.ss_downstream in
      Array.iter
        (fun (g : Graph.t) ->
          for copy = 0 to explicit.(g.id) - 1 do
            Array.iter
              (fun (task : Task.t) ->
                let idx =
                  bases.(g.id) + (copy * gsize.(g.id)) + ss.ss_local_index.(task.id)
                in
                let arrival = g.est + (copy * g.period) in
                i_task.(idx) <- task.id;
                i_copy.(idx) <- copy;
                i_arrival.(idx) <- arrival;
                i_deadline.(idx) <-
                  arrival + Graph.task_deadline g task - downstream.(task.id))
              g.tasks
          done)
        spec.graphs;
      (* Deadline collisions across distinct tasks; same-task copies never
         collide (periods are positive, so copy deadlines are strictly
         increasing). *)
      let tie = Array.make (Spec.n_tasks spec) false in
      let seen : (int, int) Hashtbl.t = Hashtbl.create (2 * max 1 total) in
      for idx = 0 to total - 1 do
        let d = i_deadline.(idx) and t = i_task.(idx) in
        match Hashtbl.find_opt seen d with
        | None -> Hashtbl.add seen d t
        | Some r when r = t -> ()
        | Some r ->
            tie.(r) <- true;
            tie.(t) <- true
      done;
      let i =
        {
          is_copy_cap = copy_cap;
          is_total = total;
          is_bases = bases;
          is_explicit = explicit;
          is_gsize = gsize;
          is_task = i_task;
          is_copy = i_copy;
          is_arrival = i_arrival;
          is_deadline = i_deadline;
          is_tie = tie;
        }
      in
      ignore (Atomic.compare_and_set ss.ss_insts cached (i :: take 3 cached));
      i

(* Per-task placement as two flat int arrays (-1 = unplaced), derived
   per cluster first: [Arch.task_site] is a hash probe per call, and the
   scheduler needs every task's site several times per run. *)
let site_arrays (spec : Spec.t) (clustering : Clustering.t) (arch : Arch.t) =
  let n_tasks = Spec.n_tasks spec in
  let nc = Array.length clustering.Clustering.clusters in
  let c_pe = Array.make nc (-1) and c_mode = Array.make nc (-1) in
  for c = 0 to nc - 1 do
    match Arch.site_of_cluster arch c with
    | Some s ->
        c_pe.(c) <- s.Arch.s_pe;
        c_mode.(c) <- s.Arch.s_mode
    | None -> ()
  done;
  let site_pe = Array.make n_tasks (-1) and site_mode = Array.make n_tasks (-1) in
  for t = 0 to n_tasks - 1 do
    let c = clustering.Clustering.of_task.(t) in
    site_pe.(t) <- c_pe.(c);
    site_mode.(t) <- c_mode.(c)
  done;
  (site_pe, site_mode)

(* Growable int buffer for the recorder's event logs. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let ncap = if b.n = 0 then 32 else 2 * b.n in
      let na = Array.make ncap 0 in
      Array.blit b.a 0 na 0 b.n;
      b.a <- na
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let trimmed b = Array.sub b.a 0 b.n
end

type verdict = { v_tardiness : int; v_met : bool; v_scheduled : int }

(* One full scheduler run, captured for prefix replay: the pop sequence
   with per-step deadlines and start/finish times, the exact resource
   reservations each step committed (CPU chunks and link transfers as
   (start, stop, step) triples sorted by start; PPE windows as
   (mode, start, stop, step) quadruples in final window order), the
   activity events, and a snapshot of everything the scheduler read from
   the architecture — enough for a later candidate to be diffed against
   this base.  Immutable once built; shared read-only across domains. *)
type recording = {
  r_spec : Spec.t;
  r_clustering : Clustering.t;
  r_copy_cap : int;
  r_steps : int;
  r_pop_inst : int array;
  r_pop_deadline : int array;
  r_pop_start : int array;
  r_pop_finish : int array;
  r_cpu_logs : int array array;  (* per PE: (start, stop, step)* by start *)
  r_link_logs : int array array;  (* per link: (start, stop, step)* by start *)
  r_ppe_logs : int array array;
      (* per PE: (mode, start, stop, step)* in final window order *)
  r_act : int array;  (* (graph, start, stop, step)* in emission order *)
  r_site_pe : int array;
  r_site_mode : int array;
  r_levels : int array;
  r_pe_types : Pe.t array;
  r_pe_boots : int array array;  (* per PE: boot time per mode; [||] non-PPE *)
  r_link_types : Link.t array;
  r_link_attached : int array array;  (* per link: sorted attached PEs *)
}

type recorder = {
  c_pop_inst : Ibuf.t;
  c_pop_deadline : Ibuf.t;
  c_pop_start : Ibuf.t;
  c_pop_finish : Ibuf.t;
  c_cpu : Ibuf.t array;
  c_link : Ibuf.t array;
  c_ppe : Ibuf.t array;
  c_act : Ibuf.t;
}

type exec_out = {
  x_verdict : verdict;
  x_sched : t option;
  x_recording : recording option;
}

(* Stable sort of a strided int-entry log by the field at [key_off]
   (entry order breaks ties, which keeps PPE windows in commit order
   within an equal start — exactly the order [ppe_commit]'s
   insert-after-equal-start maintains). *)
let sort_stride stride key_off (a : int array) =
  let m = Array.length a / stride in
  if m <= 1 then a
  else begin
    let idx = Array.init m (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = Int.compare a.((stride * i) + key_off) a.((stride * j) + key_off) in
        if c <> 0 then c else Int.compare i j)
      idx;
    let out = Array.make (Array.length a) 0 in
    Array.iteri
      (fun pos i ->
        for k = 0 to stride - 1 do
          out.((stride * pos) + k) <- a.((stride * i) + k)
        done)
      idx;
    out
  end

(* The list scheduler proper, shared by the plain, recording and replay
   entry points.  [replay = Some (r, s)] fast-forwards through the first
   [s] recorded steps — writing the recorded starts/finishes, rebuilding
   the resource timelines from the recorded reservations and decrementing
   indegrees — then runs the normal algorithm on the remainder.  The
   caller guarantees (see [replay_cut]) that those [s] steps are exactly
   what a full run against [arch] would have scheduled. *)
let exec ~copy_cap ~materialize ~record ~(replay : (recording * int) option)
    (spec : Spec.t) (clustering : Clustering.t) (arch : Arch.t) ~site_pe ~site_mode
    ~(levels : int array) =
  let ss = spec_static spec in
  let ist = inst_static ss ~copy_cap in
  let n_graphs = Spec.n_graphs spec in
  let total = ist.is_total in
  let i_task = ist.is_task
  and i_copy = ist.is_copy
  and i_arrival = ist.is_arrival
  and i_deadline = ist.is_deadline in
  let bases = ist.is_bases and gsize = ist.is_gsize in
  let local_index = ss.ss_local_index and graph_of = ss.ss_graph_of in
  let inst_id tid copy = bases.(graph_of.(tid)) + (copy * gsize.(graph_of.(tid))) + local_index.(tid) in
  let placed tid = site_pe.(tid) >= 0 in
  let starts = Array.make total (-1) and finishes = Array.make total (-1) in
  let n_pe_insts = Vec.length arch.Arch.pes in
  let n_link_insts = Vec.length arch.Arch.links in
  let cpu_timelines = Array.make n_pe_insts None in
  let cpu_timeline pe_id =
    match cpu_timelines.(pe_id) with
    | Some tl -> tl
    | None ->
        let tl = Timeline.create () in
        cpu_timelines.(pe_id) <- Some tl;
        tl
  in
  let link_timelines = Array.make n_link_insts None in
  let link_timeline l_id =
    match link_timelines.(l_id) with
    | Some tl -> tl
    | None ->
        let tl = Timeline.create () in
        link_timelines.(l_id) <- Some tl;
        tl
  in
  let ppe_states = Array.make n_pe_insts None in
  let ppe_state (pe : Arch.pe_inst) =
    match ppe_states.(pe.Arch.p_id) with
    | Some st -> st
    | None ->
        let boots =
          Array.init (Vec.length pe.Arch.modes) (fun i ->
              Arch.mode_boot_us pe (Vec.get pe.Arch.modes i))
        in
        let st =
          { w_modes = [||]; w_starts = [||]; w_stops = [||]; w_n = 0;
            boot_by_mode = boots }
        in
        ppe_states.(pe.Arch.p_id) <- Some st;
        st
  in
  (* [Arch.links_between] is an int-keyed probe of a memo that persists
     across runs of the same architecture family (candidate trials share
     connectivity most of the time), so no per-run dense view is needed —
     the former [n_pe * n_pe] option array was a measurable allocation on
     every trial. *)
  let links_between a b = Arch.links_between arch a b in
  (* Port counts are fixed for the duration of one run. *)
  let link_ports =
    Array.init n_link_insts (fun i ->
        max 2 (List.length (Vec.get arch.Arch.links i).Arch.attached))
  in
  let track_activity = materialize || record in
  let graph_activity = Array.make n_graphs [] in
  let recorder =
    if not record then None
    else
      Some
        {
          c_pop_inst = Ibuf.create ();
          c_pop_deadline = Ibuf.create ();
          c_pop_start = Ibuf.create ();
          c_pop_finish = Ibuf.create ();
          c_cpu = Array.init n_pe_insts (fun _ -> Ibuf.create ());
          c_link = Array.init n_link_insts (fun _ -> Ibuf.create ());
          c_ppe = Array.init n_pe_insts (fun _ -> Ibuf.create ());
          c_act = Ibuf.create ();
        }
  in
  let step = ref 0 in
  let note_activity graph s f =
    if track_activity && f > s then begin
      graph_activity.(graph) <- (s, f) :: graph_activity.(graph);
      match recorder with
      | Some rc ->
          Ibuf.push rc.c_act graph;
          Ibuf.push rc.c_act s;
          Ibuf.push rc.c_act f;
          Ibuf.push rc.c_act !step
      | None -> ()
    end
  in
  (* Dependency counting over placed tasks only. *)
  let indegree = Array.make total 0 in
  Array.iter
    (fun (g : Graph.t) ->
      Array.iter
        (fun (e : Edge.t) ->
          if placed e.src && placed e.dst then
            for copy = 0 to ist.is_explicit.(g.id) - 1 do
              let dst = inst_id e.dst copy in
              indegree.(dst) <- indegree.(dst) + 1
            done)
        g.edges)
    spec.graphs;
  (* Prefix replay: fast-forward through the recorded steps below the
     cut. *)
  (match replay with
  | None -> ()
  | Some (r, s_stop) ->
      step := s_stop;
      for k = 0 to s_stop - 1 do
        let idx = r.r_pop_inst.(k) in
        starts.(idx) <- r.r_pop_start.(k);
        finishes.(idx) <- r.r_pop_finish.(k);
        let tid = i_task.(idx) and copy = i_copy.(idx) in
        List.iter
          (fun (e : Edge.t) ->
            if placed e.dst then begin
              let dst = inst_id e.dst copy in
              indegree.(dst) <- indegree.(dst) - 1
            end)
          spec.succs.(tid)
      done;
      (* Timelines: the per-resource logs are sorted by start, so the
         filtered prefix rebuilds via [Timeline.append] in O(prefix). *)
      let replay_log3 get_timeline (log : int array) =
        let m = Array.length log / 3 in
        let tl = ref None in
        for j = 0 to m - 1 do
          if log.((3 * j) + 2) < s_stop then begin
            let t =
              match !tl with
              | Some t -> t
              | None ->
                  let t = get_timeline () in
                  tl := Some t;
                  t
            in
            Timeline.append t log.(3 * j) log.((3 * j) + 1)
          end
        done
      in
      let np = min (Array.length r.r_cpu_logs) n_pe_insts in
      for p = 0 to np - 1 do
        if Array.length r.r_cpu_logs.(p) > 0 then
          replay_log3 (fun () -> cpu_timeline p) r.r_cpu_logs.(p)
      done;
      let nl = min (Array.length r.r_link_logs) n_link_insts in
      for l = 0 to nl - 1 do
        if Array.length r.r_link_logs.(l) > 0 then
          replay_log3 (fun () -> link_timeline l) r.r_link_logs.(l)
      done;
      (* PPE windows: the log is already in final window order (start,
         then commit order); the prefix subsequence keeps exactly the
         relative order [ppe_commit] would have produced. *)
      for p = 0 to min (Array.length r.r_ppe_logs) n_pe_insts - 1 do
        let log = r.r_ppe_logs.(p) in
        let m = Array.length log / 4 in
        if m > 0 then begin
          let cnt = ref 0 in
          for j = 0 to m - 1 do
            if log.((4 * j) + 3) < s_stop then incr cnt
          done;
          if !cnt > 0 then begin
            let st = ppe_state (Vec.get arch.Arch.pes p) in
            let wm = Array.make !cnt 0
            and ws = Array.make !cnt 0
            and we = Array.make !cnt 0 in
            let j2 = ref 0 in
            for j = 0 to m - 1 do
              if log.((4 * j) + 3) < s_stop then begin
                wm.(!j2) <- log.(4 * j);
                ws.(!j2) <- log.((4 * j) + 1);
                we.(!j2) <- log.((4 * j) + 2);
                incr j2
              end
            done;
            st.w_modes <- wm;
            st.w_starts <- ws;
            st.w_stops <- we;
            st.w_n <- !cnt
          end
        end
      done;
      if track_activity then begin
        let a = r.r_act in
        let m = Array.length a / 4 in
        for j = 0 to m - 1 do
          if a.((4 * j) + 3) < s_stop then
            graph_activity.(a.(4 * j)) <-
              (a.((4 * j) + 1), a.((4 * j) + 2)) :: graph_activity.(a.(4 * j))
        done
      end);
  (* Ready-list order: most urgent effective deadline first (the
     per-instance form of the deadline-based priority levels: the
     effective deadline already folds arrival, the task deadline and the
     worst-case downstream path); levels break ties within a deadline,
     and the instance index makes the order total — so ANY correct
     min-heap pops the same sequence, and this specialized one inlines
     the comparison the generic [Pqueue] paid an indirect call for on
     every sift step of the innermost loop. *)
  (* Per-instance priority level, precomputed so the sift loops load one
     array instead of chasing [levels.(i_task.(_))]. *)
  let i_level = Array.make total 0 in
  for idx = 0 to total - 1 do
    i_level.(idx) <- levels.(i_task.(idx))
  done;
  let less a b =
    let da = i_deadline.(a) and db = i_deadline.(b) in
    if da <> db then da < db
    else begin
      let la = i_level.(a) and lb = i_level.(b) in
      if la <> lb then la > lb else a < b
    end
  in
  let heap = ref (Array.make 64 0) in
  let heap_n = ref 0 in
  let hpush x =
    (if !heap_n = Array.length !heap then begin
       let nd = Array.make (2 * !heap_n) 0 in
       Array.blit !heap 0 nd 0 !heap_n;
       heap := nd
     end);
    let d = !heap in
    let i = ref !heap_n in
    incr heap_n;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if less x d.(p) then begin
        d.(!i) <- d.(p);
        i := p
      end
      else sifting := false
    done;
    d.(!i) <- x
  in
  let hpop () =
    let d = !heap in
    let top = d.(0) in
    decr heap_n;
    let n = !heap_n in
    if n > 0 then begin
      let x = d.(n) in
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c = if r < n && less d.(r) d.(l) then r else l in
          if less d.(c) x then begin
            d.(!i) <- d.(c);
            i := c
          end
          else sifting := false
        end
      done;
      d.(!i) <- x
    end;
    top
  in
  for idx = 0 to total - 1 do
    if starts.(idx) < 0 && placed i_task.(idx) && indegree.(idx) = 0 then
      hpush idx
  done;
  let exec_us = Array.make (Spec.n_tasks spec) (-1) in
  let edge_links = Array.make (Spec.n_edges spec) None in
  let schedule_instance idx =
    let tid = i_task.(idx) in
    let copy = i_copy.(idx) in
    let task = Spec.task spec tid in
    let s_pe = site_pe.(tid) and s_mode = site_mode.(tid) in
    let pe = Vec.get arch.Arch.pes s_pe in
    let pe_type = pe.Arch.ptype in
    let duration =
      (* Fixed per task within one run (placement is fixed), so the
         execution-table probe is paid once per task, not once per copy. *)
      let d = exec_us.(tid) in
      if d >= 0 then d
      else begin
        let d = max 0 (Task.exec_us_on task pe_type.Pe.id) in
        exec_us.(tid) <- d;
        d
      end
    in
    (* Input edges: intra-PE transfers are free; inter-PE transfers are
       scheduled on the best connecting link. *)
    let copy_overhead = ref 0 in
    let ready =
      List.fold_left
        (fun acc (e : Edge.t) ->
          if not (placed e.src) then acc
          else begin
            let src_fin = finishes.(inst_id e.src copy) in
            let src_pe = site_pe.(e.src) in
            if src_pe = s_pe then max acc src_fin
            else begin
              (* The edge's PE pair — hence its candidate links and their
                 transfer times — is fixed within one run; resolve both
                 once per edge instead of once per copy. *)
              let links =
                match edge_links.(e.id) with
                | Some ls -> ls
                | None ->
                    let ls =
                      List.map
                        (fun (l : Arch.link_inst) ->
                          ( l,
                            Link.comm_time l.Arch.ltype
                              ~ports:link_ports.(l.Arch.l_id) ~bytes:e.bytes ))
                        (links_between src_pe s_pe)
                    in
                    edge_links.(e.id) <- Some ls;
                    ls
              in
              match links with
              | [] -> raise (Disconnected (src_pe, s_pe))
              | links ->
                  let best =
                    List.fold_left
                      (fun best ((l : Arch.link_inst), comm) ->
                        let _, fin =
                          Timeline.probe (link_timeline l.Arch.l_id)
                            ~ready:src_fin ~duration:comm
                        in
                        match best with
                        | Some (_, _, best_fin) when best_fin <= fin -> best
                        | _ -> Some (l, comm, fin)
                      )
                      None links
                  in
                  let l, comm, _ =
                    match best with
                    | Some x -> x
                    | None ->
                        (* [links] is non-empty here, so the fold always
                           produces a best candidate. *)
                        failwith
                          (Printf.sprintf
                             "Schedule: no best link for edge %d (task %d, PE \
                              %d -> PE %d) despite %d candidate links"
                             e.Edge.id tid src_pe s_pe (List.length links))
                  in
                  let s, f =
                    Timeline.insert (link_timeline l.Arch.l_id) ~ready:src_fin
                      ~duration:comm
                  in
                  (match recorder with
                  | Some rc when f > s ->
                      let lb = rc.c_link.(l.Arch.l_id) in
                      Ibuf.push lb s;
                      Ibuf.push lb f;
                      Ibuf.push lb !step
                  | Some _ | None -> ());
                  note_activity graph_of.(tid) s f;
                  (match pe_type.Pe.pe_class with
                  | Pe.General_purpose cpu when not cpu.has_communication_processor ->
                      copy_overhead :=
                        !copy_overhead
                        + Crusade_util.Arith.ceil_div e.bytes cpu_copy_bytes_per_us
                  | Pe.General_purpose _ | Pe.Asic_pe _ | Pe.Programmable _ -> ());
                  max acc f
            end
          end)
        i_arrival.(idx) spec.preds.(tid)
    in
    let start, finish =
      match pe_type.Pe.pe_class with
      | Pe.General_purpose cpu -> (
          let tl = cpu_timeline pe.Arch.p_id in
          match recorder with
          | Some rc ->
              let cb = rc.c_cpu.(pe.Arch.p_id) in
              Timeline.insert_preemptible tl ~ready
                ~duration:(duration + !copy_overhead)
                ~max_chunks:3 ~chunk_penalty:cpu.preemption_overhead_us
                ~on_commit:(fun s f ->
                  Ibuf.push cb s;
                  Ibuf.push cb f;
                  Ibuf.push cb !step)
          | None ->
              Timeline.insert_preemptible tl ~ready
                ~duration:(duration + !copy_overhead)
                ~max_chunks:3 ~chunk_penalty:cpu.preemption_overhead_us)
      | Pe.Asic_pe _ -> (ready, ready + duration)
      | Pe.Programmable _ ->
          let st = ppe_state pe in
          let s = ppe_find_start st ~mode:s_mode ~ready ~duration in
          ppe_commit st ~mode:s_mode ~start:s ~stop:(s + duration);
          (match recorder with
          | Some rc ->
              let pb = rc.c_ppe.(pe.Arch.p_id) in
              Ibuf.push pb s_mode;
              Ibuf.push pb s;
              Ibuf.push pb (s + duration);
              Ibuf.push pb !step
          | None -> ());
          (s, s + duration)
    in
    starts.(idx) <- start;
    finishes.(idx) <- finish;
    note_activity graph_of.(tid) start finish;
    (match recorder with
    | Some rc ->
        Ibuf.push rc.c_pop_inst idx;
        Ibuf.push rc.c_pop_deadline i_deadline.(idx);
        Ibuf.push rc.c_pop_start start;
        Ibuf.push rc.c_pop_finish finish
    | None -> ());
    incr step;
    (* Release successors. *)
    List.iter
      (fun (e : Edge.t) ->
        if placed e.dst then begin
          let dst = inst_id e.dst copy in
          indegree.(dst) <- indegree.(dst) - 1;
          if indegree.(dst) = 0 then hpush dst
        end)
      spec.succs.(tid)
  in
  match
    while !heap_n > 0 do
      schedule_instance (hpop ())
    done
  with
  | exception Disconnected (a, b) ->
      Error (Printf.sprintf "no link between PE %d and PE %d" a b)
  | () ->
      (* Deadline verification over the explicit instances. *)
      let tardiness = ref 0 in
      for idx = 0 to total - 1 do
        if placed i_task.(idx) && finishes.(idx) >= 0 then
          tardiness := !tardiness + max 0 (finishes.(idx) - i_deadline.(idx))
      done;
      let verdict =
        { v_tardiness = !tardiness; v_met = !tardiness = 0; v_scheduled = !step }
      in
      let sched =
        if not materialize then None
        else begin
          let instances =
            Array.init total (fun idx ->
                {
                  i_task = i_task.(idx);
                  i_copy = i_copy.(idx);
                  arrival = i_arrival.(idx);
                  abs_deadline = i_deadline.(idx);
                  start = starts.(idx);
                  finish = finishes.(idx);
                })
          in
          (* Graph activity over the whole hyperperiod: explicit windows
             plus a conservative covering interval for the extrapolated
             copies. *)
          let graph_windows =
            Array.mapi
              (fun gi acts ->
                let g = spec.graphs.(gi) in
                let copies = Spec.copies spec g in
                let acts =
                  if copies > ist.is_explicit.(gi) && acts <> [] then begin
                    let horizon_start = g.est + (ist.is_explicit.(gi) * g.period) in
                    (horizon_start, g.est + (copies * g.period)) :: acts
                  end
                  else acts
                in
                Intervals.of_list acts)
              graph_activity
          in
          let mode_switches = Array.make n_pe_insts 0 in
          Array.iteri
            (fun pe_id st ->
              match st with
              | Some st -> mode_switches.(pe_id) <- count_switches st
              | None -> ())
            ppe_states;
          Some
            {
              instances;
              hyperperiod = Spec.hyperperiod spec;
              deadlines_met = verdict.v_met;
              total_tardiness = !tardiness;
              graph_windows;
              mode_switches;
              scheduled_tasks = !step;
            }
        end
      in
      let recording =
        match recorder with
        | None -> None
        | Some rc ->
            Some
              {
                r_spec = spec;
                r_clustering = clustering;
                r_copy_cap = copy_cap;
                r_steps = !step;
                r_pop_inst = Ibuf.trimmed rc.c_pop_inst;
                r_pop_deadline = Ibuf.trimmed rc.c_pop_deadline;
                r_pop_start = Ibuf.trimmed rc.c_pop_start;
                r_pop_finish = Ibuf.trimmed rc.c_pop_finish;
                r_cpu_logs =
                  Array.map (fun b -> sort_stride 3 0 (Ibuf.trimmed b)) rc.c_cpu;
                r_link_logs =
                  Array.map (fun b -> sort_stride 3 0 (Ibuf.trimmed b)) rc.c_link;
                r_ppe_logs =
                  Array.map (fun b -> sort_stride 4 1 (Ibuf.trimmed b)) rc.c_ppe;
                r_act = Ibuf.trimmed rc.c_act;
                r_site_pe = Array.copy site_pe;
                r_site_mode = Array.copy site_mode;
                r_levels = Array.copy levels;
                r_pe_types =
                  Array.init n_pe_insts (fun p -> (Vec.get arch.Arch.pes p).Arch.ptype);
                r_pe_boots =
                  Array.init n_pe_insts (fun p ->
                      let pe = Vec.get arch.Arch.pes p in
                      match pe.Arch.ptype.Pe.pe_class with
                      | Pe.Programmable _ ->
                          Array.init (Vec.length pe.Arch.modes) (fun i ->
                              Arch.mode_boot_us pe (Vec.get pe.Arch.modes i))
                      | Pe.General_purpose _ | Pe.Asic_pe _ -> [||]);
                r_link_types =
                  Array.init n_link_insts (fun l ->
                      (Vec.get arch.Arch.links l).Arch.ltype);
                r_link_attached =
                  Array.init n_link_insts (fun l ->
                      Array.of_list
                        (List.sort_uniq Int.compare
                           (Vec.get arch.Arch.links l).Arch.attached));
              }
      in
      Ok { x_verdict = verdict; x_sched = sched; x_recording = recording }

(* Where an exact prefix replay of [r] must stop for the candidate
   [arch]: diff the candidate against the recorded snapshot, mark the
   tasks whose scheduling inputs changed — placement (including to/from
   unplaced), residence on a PE whose type or per-mode boot vector
   changed, destination of a cross-PE edge whose connecting-link set
   changed, or a priority-level change on a task that can tie on an
   effective deadline — close the set downstream over the precedence
   edges, and take D* = the earliest effective deadline among the marked
   tasks' instances (copy 0, deadlines increase with the copy index).
   Every recorded pop strictly before the first pop with deadline >= D*
   is provably identical in a full run against [arch]: by induction the
   resource state and ready sets agree, marked instances cannot out-rank
   a sub-D* pop — their deadlines are at least D* — and ties among unmarked
   instances resolve identically (a level change on a tie-capable task
   marks it).  Returns the step count to replay — [r_steps] when the
   candidate's schedule provably equals the base's. *)
let replay_cut (r : recording) (spec : Spec.t) (arch : Arch.t) ~site_pe ~site_mode
    ~(levels : int array) =
  let ss = spec_static spec in
  let ist = inst_static ss ~copy_cap:r.r_copy_cap in
  let n_tasks = Spec.n_tasks spec in
  let dirty = Array.make n_tasks false in
  let any = ref false in
  let mark t =
    if not dirty.(t) then begin
      dirty.(t) <- true;
      any := true
    end
  in
  (* Placement changes. *)
  for t = 0 to n_tasks - 1 do
    if site_pe.(t) <> r.r_site_pe.(t) || site_mode.(t) <> r.r_site_mode.(t) then
      mark t
  done;
  (* PE-level changes: type identity (id reuse across rollbacks) and the
     per-mode boot vector over the common mode prefix (interface
     synthesis rewrites boot_full_us; placing into an existing mode
     changes its partial-reconfiguration fraction; either moves every
     window interaction on the device).  Added/removed PEs and modes
     only host placement-changed tasks, already marked above. *)
  let base_np = Array.length r.r_pe_types in
  let cand_np = Vec.length arch.Arch.pes in
  let pe_dirty = Array.make (max 1 (max base_np cand_np)) false in
  let any_pe_dirty = ref false in
  for p = 0 to min base_np cand_np - 1 do
    let pe = Vec.get arch.Arch.pes p in
    let changed =
      pe.Arch.ptype != r.r_pe_types.(p)
      ||
      match pe.Arch.ptype.Pe.pe_class with
      | Pe.Programmable _ ->
          let boots = r.r_pe_boots.(p) in
          let m = min (Array.length boots) (Vec.length pe.Arch.modes) in
          let diff = ref false in
          for i = 0 to m - 1 do
            if Arch.mode_boot_us pe (Vec.get pe.Arch.modes i) <> boots.(i) then
              diff := true
          done;
          !diff
      | Pe.General_purpose _ | Pe.Asic_pe _ -> false
    in
    if changed then begin
      pe_dirty.(p) <- true;
      any_pe_dirty := true
    end
  done;
  if !any_pe_dirty then
    for t = 0 to n_tasks - 1 do
      let bp = r.r_site_pe.(t) and cp = site_pe.(t) in
      if (bp >= 0 && pe_dirty.(bp)) || (cp >= 0 && pe_dirty.(cp)) then mark t
    done;
  (* Link changes: a changed type, attached set, or an added/removed
     link taints every PE pair it (before or after) connects — port
     counts, transfer times and the connecting-link sets all derive from
     the attached lists.  Destinations of cross-PE edges over a tainted
     pair are marked. *)
  let base_nl = Array.length r.r_link_types in
  let cand_nl = Vec.length arch.Arch.links in
  let max_np = max 1 (max base_np cand_np) in
  let pair_tainted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let taint_set (pes : int array) =
    Array.iter
      (fun a ->
        Array.iter
          (fun b -> if a <> b then Hashtbl.replace pair_tainted ((a * max_np) + b) ())
          pes)
      pes
  in
  let sorted_attached l =
    Array.of_list
      (List.sort_uniq Int.compare (Vec.get arch.Arch.links l).Arch.attached)
  in
  let same_int_array (a : int array) (b : int array) =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
    !ok
  in
  for l = 0 to max base_nl cand_nl - 1 do
    if l >= base_nl then taint_set (sorted_attached l)
    else if l >= cand_nl then taint_set r.r_link_attached.(l)
    else begin
      let cur = sorted_attached l in
      if
        (Vec.get arch.Arch.links l).Arch.ltype != r.r_link_types.(l)
        || not (same_int_array cur r.r_link_attached.(l))
      then begin
        taint_set cur;
        taint_set r.r_link_attached.(l)
      end
    end
  done;
  if Hashtbl.length pair_tainted > 0 then
    Array.iter
      (fun (g : Graph.t) ->
        Array.iter
          (fun (e : Edge.t) ->
            if not dirty.(e.src) && not dirty.(e.dst) then begin
              (* Both endpoints unmoved, so base and candidate pairs
                 coincide. *)
              let a = site_pe.(e.src) and b = site_pe.(e.dst) in
              if a >= 0 && b >= 0 && a <> b
                 && Hashtbl.mem pair_tainted ((a * max_np) + b)
              then mark e.dst
            end)
          g.edges)
      spec.graphs;
  (* Priority-level changes on tie-capable tasks (the comparator only
     reads levels inside an equal effective deadline). *)
  for t = 0 to n_tasks - 1 do
    if ist.is_tie.(t) && levels.(t) <> r.r_levels.(t) then mark t
  done;
  (* Downstream closure: a changed finish propagates along precedence. *)
  if !any then begin
    let stack = ref [] in
    for t = 0 to n_tasks - 1 do
      if dirty.(t) then stack := t :: !stack
    done;
    let rec go () =
      match !stack with
      | [] -> ()
      | t :: rest ->
          stack := rest;
          List.iter
            (fun (e : Edge.t) ->
              if not dirty.(e.dst) then begin
                dirty.(e.dst) <- true;
                stack := e.dst :: !stack
              end)
            spec.succs.(t);
          go ()
    in
    go ()
  end;
  (* D*: earliest effective deadline among marked tasks placed in either
     run (unplaced-in-both marked tasks schedule in neither). *)
  let dstar = ref max_int in
  for t = 0 to n_tasks - 1 do
    if dirty.(t) && (site_pe.(t) >= 0 || r.r_site_pe.(t) >= 0) then begin
      let idx0 = ist.is_bases.(ss.ss_graph_of.(t)) + ss.ss_local_index.(t) in
      if ist.is_deadline.(idx0) < !dstar then dstar := ist.is_deadline.(idx0)
    end
  done;
  if !dstar = max_int then r.r_steps
  else begin
    (* Pop deadlines are not monotone (the heap pops the min of the
       *ready* set), so the cut is the first recorded pop at or past D*;
       later sub-D* pops re-run in the suffix. *)
    let s = ref 0 in
    while !s < r.r_steps && r.r_pop_deadline.(!s) < !dstar do incr s done;
    !s
  end

let run ?(copy_cap = default_copy_cap) (spec : Spec.t) (clustering : Clustering.t)
    (arch : Arch.t) =
  let site_pe, site_mode = site_arrays spec clustering arch in
  let levels = priorities spec clustering arch in
  match
    exec ~copy_cap ~materialize:true ~record:false ~replay:None spec clustering
      arch ~site_pe ~site_mode ~levels
  with
  | Error _ as e -> e
  | Ok out -> Ok (Option.get out.x_sched)

(* The incremental engine's low-level interface: capture a recording
   alongside a full run, diff a candidate architecture against it, and
   replay the provably unchanged prefix.  [Incremental] wraps this with
   a policy; the raw operations stay exposed for the differential tests
   and the fuzzer's self-test. *)
module Replay = struct
  type nonrec recording = recording

  let steps (r : recording) = r.r_steps

  let compatible (r : recording) ?(copy_cap = default_copy_cap) (spec : Spec.t)
      (clustering : Clustering.t) =
    r.r_spec == spec && r.r_clustering == clustering && r.r_copy_cap = copy_cap

  (* Cross-basis adoption: a recording taken under a *different*
     clustering identity is still a sound diff basis as long as the
     physical spec and copy cap match.  The scheduler consumes the
     clustering only through the task-indexed site/priority arrays —
     recomputed for the candidate by [prepare] — and the recording's
     snapshot is entirely task- and resource-indexed (no cluster ids),
     so [replay_cut]'s per-task diff already accounts for every
     clustering-induced change: tasks whose placement, levels or
     resource environment moved are marked dirty and rescheduled, the
     rest replay verbatim.  Spec identity must still be physical
     ([==]): the diff indexes the recording's arrays by task id. *)
  let adoptable (r : recording) ?(copy_cap = default_copy_cap) (spec : Spec.t) =
    r.r_spec == spec && r.r_copy_cap = copy_cap

  let record ?(copy_cap = default_copy_cap) (spec : Spec.t)
      (clustering : Clustering.t) (arch : Arch.t) =
    let site_pe, site_mode = site_arrays spec clustering arch in
    let levels = priorities spec clustering arch in
    match
      exec ~copy_cap ~materialize:true ~record:true ~replay:None spec clustering
        arch ~site_pe ~site_mode ~levels
    with
    | Error _ as e -> e
    | Ok out -> Ok (Option.get out.x_sched, Option.get out.x_recording)

  (* Recording capture without schedule materialization: the commit
     points of the synthesis loops refresh the replay basis but discard
     the schedule, so building the instance records and activity
     intervals there is pure waste. *)
  let record_only ?(copy_cap = default_copy_cap) (spec : Spec.t)
      (clustering : Clustering.t) (arch : Arch.t) =
    let site_pe, site_mode = site_arrays spec clustering arch in
    let levels = priorities spec clustering arch in
    match
      exec ~copy_cap ~materialize:false ~record:true ~replay:None spec
        clustering arch ~site_pe ~site_mode ~levels
    with
    | Error _ as e -> e
    | Ok out -> Ok (Option.get out.x_recording)

  type prep = {
    p_recording : recording;
    p_spec : Spec.t;
    p_clustering : Clustering.t;
    p_arch : Arch.t;
    p_site_pe : int array;
    p_site_mode : int array;
    p_levels : int array;
    p_cut : int;
  }

  let prepare (r : recording) (spec : Spec.t) (clustering : Clustering.t)
      (arch : Arch.t) =
    let site_pe, site_mode = site_arrays spec clustering arch in
    let levels = priorities spec clustering arch in
    let cut = replay_cut r spec arch ~site_pe ~site_mode ~levels in
    {
      p_recording = r;
      p_spec = spec;
      p_clustering = clustering;
      p_arch = arch;
      p_site_pe = site_pe;
      p_site_mode = site_mode;
      p_levels = levels;
      p_cut = cut;
    }

  let cut p = p.p_cut

  let replay_verdict p =
    match
      exec ~copy_cap:p.p_recording.r_copy_cap ~materialize:false ~record:false
        ~replay:(Some (p.p_recording, p.p_cut)) p.p_spec p.p_clustering p.p_arch
        ~site_pe:p.p_site_pe ~site_mode:p.p_site_mode ~levels:p.p_levels
    with
    | Error _ as e -> e
    | Ok out -> Ok out.x_verdict

  let replay_run p =
    match
      exec ~copy_cap:p.p_recording.r_copy_cap ~materialize:true ~record:false
        ~replay:(Some (p.p_recording, p.p_cut)) p.p_spec p.p_clustering p.p_arch
        ~site_pe:p.p_site_pe ~site_mode:p.p_site_mode ~levels:p.p_levels
    with
    | Error _ as e -> e
    | Ok out -> Ok (Option.get out.x_sched)

  (* Damage the recording so a subsequent replay that includes the
     corrupted step diverges from a fresh run: proves the differential
     harness can detect a broken replay.  [step] selects which pop to
     corrupt (default: the last, so a full-prefix replay is always
     poisoned); callers replaying a partial prefix must pick a step
     below their cut.  Returns false when the recording has no such
     step. *)
  let corrupt_for_selftest ?step (r : recording) =
    let step = match step with Some s -> s | None -> r.r_steps - 1 in
    if step < 0 || step >= r.r_steps then false
    else begin
      r.r_pop_finish.(step) <- r.r_pop_finish.(step) + 1;
      true
    end
end


(* Stage-1 evaluator: an admissible lower bound on [run]'s total
   tardiness, O(V + E + I log I) with no timeline construction.

   Two bounds, both provable against the list scheduler above, combined
   by [max]:

   - Critical-path bound.  For a placed task t, every instance finishes
     no earlier than its arrival plus
       path(t) = exec(t) + max(0, max over placed preds of
                                    comm_lb(edge) + path(src))
     where exec is the placement's execution time (the same
     [Task.exec_on] default the scheduler uses) and comm_lb is zero for
     same-PE edges and the cheapest connecting link's transfer time
     otherwise — the scheduler can only pick a link at least that slow,
     and gap-search/preemption/mode reboots only push starts later.
     Since an instance's arrival and effective deadline shift together by
     copy * period, the per-instance lateness max 0 (path(t) - slack(t))
     is copy-independent and multiplies by the explicit copy count.

   - CPU-load bound.  A general-purpose PE is a serial resource: all the
     work of its resident instances occupies disjoint time.  For any
     prefix of its instances sorted by effective deadline, some instance
     finishes no earlier than (earliest arrival in prefix) + (total work
     of prefix) and has a deadline no later than the prefix's last, so
     the prefix lateness is a valid tardiness witness; distinct PEs have
     distinct witnesses, so per-PE maxima sum.  Work includes the
     deterministic copy-in overhead of inter-PE input edges on CPUs
     without a communication processor (exactly the scheduler's
     [copy_overhead]).  ASICs run in parallel and PPE same-mode windows
     may overlap, so only CPUs contribute.

   Returns [Error] exactly when [run] would: two communicating placed
   tasks on PEs with no connecting link. *)
let estimate ?(copy_cap = default_copy_cap) (spec : Spec.t)
    (clustering : Clustering.t) (arch : Arch.t) =
  let n_tasks = Spec.n_tasks spec in
  (* Placement as int arrays: the estimator runs once per pruned
     candidate, and per-task placement-map probes plus the option boxes
     they allocated were a measurable share of its cost. *)
  let site_pe, _ = site_arrays spec clustering arch in
  (* Exact disconnection check: [run] computes the ready time of every
     placed instance, so it raises iff some placed-placed edge crosses
     unconnected PEs. *)
  let disconnected = ref None in
  Array.iter
    (fun (g : Graph.t) ->
      Array.iter
        (fun (e : Edge.t) ->
          if Option.is_none !disconnected then begin
            let pa = site_pe.(e.src) and pb = site_pe.(e.dst) in
            if
              pa >= 0 && pb >= 0 && pa <> pb
              && Arch.links_between arch pa pb = []
            then disconnected := Some (pa, pb)
          end)
        g.edges)
    spec.graphs;
  match !disconnected with
  | Some (a, b) -> Error (Printf.sprintf "no link between PE %d and PE %d" a b)
  | None ->
      let static = spec_static spec in
      let downstream = static.ss_downstream in
      let exec_on_site (task : Task.t) pe =
        let pe = Vec.get arch.Arch.pes pe in
        max 0 (Task.exec_us_on task pe.Arch.ptype.Pe.id)
      in
      let link_ports =
        Array.init (Vec.length arch.Arch.links) (fun i ->
            max 2 (List.length (Vec.get arch.Arch.links i).Arch.attached))
      in
      let comm_lb (e : Edge.t) src_pe dst_pe =
        if src_pe = dst_pe then 0
        else
          List.fold_left
            (fun acc (l : Arch.link_inst) ->
              min acc
                (Link.comm_time l.ltype ~ports:link_ports.(l.Arch.l_id)
                   ~bytes:e.bytes))
            max_int
            (Arch.links_between arch src_pe dst_pe)
      in
      let path = Array.make n_tasks 0 in
      let path_bound = ref 0 in
      Array.iter
        (fun (g : Graph.t) ->
          let explicit = min (static.ss_hyperperiod / g.Graph.period) copy_cap in
          List.iter
            (fun (task : Task.t) ->
              let pe = site_pe.(task.id) in
              if pe >= 0 then begin
                let chain =
                  List.fold_left
                    (fun acc (e : Edge.t) ->
                      let ps = site_pe.(e.src) in
                      if ps >= 0 then max acc (path.(e.src) + comm_lb e ps pe)
                      else acc)
                    0 spec.preds.(task.id)
                in
                path.(task.id) <- chain + exec_on_site task pe;
                let slack = Graph.task_deadline g task - downstream.(task.id) in
                let late = path.(task.id) - slack in
                if late > 0 then path_bound := !path_bound + (explicit * late)
              end)
            static.ss_topo.(g.id))
        spec.graphs;
      (* Serial-resource load bound per CPU: one pass over the tasks,
         bucketing (deadline, arrival, work) items by hosting PE, so the
         cost is O(tasks + sorting) instead of O(PEs * tasks). *)
      let buckets = Array.make (Vec.length arch.Arch.pes) [] in
      Array.iter
        (fun (g : Graph.t) ->
          let explicit = min (static.ss_hyperperiod / g.Graph.period) copy_cap in
          Array.iter
            (fun (task : Task.t) ->
              let s_pe = site_pe.(task.id) in
              if s_pe >= 0 then begin
                let pe = Vec.get arch.Arch.pes s_pe in
                match pe.Arch.ptype.Pe.pe_class with
                | Pe.Asic_pe _ | Pe.Programmable _ -> ()
                | Pe.General_purpose cpu ->
                    let overhead =
                      if cpu.Pe.has_communication_processor then 0
                      else
                        List.fold_left
                          (fun acc (e : Edge.t) ->
                            let ps = site_pe.(e.src) in
                            if ps >= 0 && ps <> s_pe then
                              acc
                              + Crusade_util.Arith.ceil_div e.bytes
                                  cpu_copy_bytes_per_us
                            else acc)
                          0 spec.preds.(task.id)
                    in
                    let work = exec_on_site task s_pe + overhead in
                    let slack = Graph.task_deadline g task - downstream.(task.id) in
                    for copy = 0 to explicit - 1 do
                      let arrival = g.est + (copy * g.period) in
                      buckets.(s_pe) <-
                        (arrival + slack, arrival, work) :: buckets.(s_pe)
                    done
              end)
            g.tasks)
        spec.graphs;
      let cpu_bound = ref 0 in
      Array.iter
        (fun items ->
          if items <> [] then begin
            let sorted =
              List.sort
                (fun ((d1, a1, w1) : int * int * int) (d2, a2, w2) ->
                  if d1 <> d2 then Int.compare d1 d2
                  else if a1 <> a2 then Int.compare a1 a2
                  else Int.compare w1 w2)
                items
            in
            let worst = ref 0 and work_sum = ref 0 and arr_min = ref max_int in
            List.iter
              (fun (deadline, arrival, work) ->
                work_sum := !work_sum + work;
                if arrival < !arr_min then arr_min := arrival;
                let late = !arr_min + !work_sum - deadline in
                if late > !worst then worst := late)
              sorted;
            cpu_bound := !cpu_bound + !worst
          end)
        buckets;
      Ok (max !path_bound !cpu_bound)
