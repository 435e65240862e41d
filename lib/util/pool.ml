type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable stop : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    work_available = Condition.create ();
    queue = Queue.create ();
    workers = [];
    stop = false;
  }

let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let default_jobs () =
  match Sys.getenv_opt "CRUSADE_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> min j (recommended_jobs ())
      | Some _ | None -> 1)

(* Hard ceiling on spawned domains, whatever [jobs] is asked for:
   oversubscription beyond this only adds scheduling noise. *)
let max_workers = 15

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work_available t.mutex
  done;
  if not (Queue.is_empty t.queue) then begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* Runner thunks catch their own exceptions; this is a backstop so a
       stray raise can never kill a worker. *)
    (try task () with _ -> ());
    worker_loop t
  end
  else Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.stop <- false

(* Grow the worker set to [n] domains (idempotent).  [t.workers] is
   mutated under the pool mutex: server jobs running on worker domains
   may start a portfolio's [map_n] concurrently with another domain
   growing the pool. *)
let ensure_workers t n =
  let n = min n max_workers in
  Mutex.lock t.mutex;
  let have = List.length t.workers in
  if have < n then
    for _ = have + 1 to n do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done;
  Mutex.unlock t.mutex

let size _t = max 1 (min max_workers (recommended_jobs ()))

(* More runners than the machine has domains never helps a CPU-bound
   work-steal: the extra runners just time-share cores and pay
   cross-domain GC synchronization for it.  The caller participates as
   a runner, so the cap is the full recommended count (not one less).
   Results are index-addressed, so the runner count never changes
   them. *)
let effective_jobs j = max 1 (min j (Domain.recommended_domain_count ()))

let warm t n = ensure_workers t n

let submit t task =
  Mutex.lock t.mutex;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let map_n ?jobs t f n =
  let jobs =
    match jobs with Some j -> effective_jobs j | None -> recommended_jobs ()
  in
  if n <= 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n f
  else begin
    let runners = min jobs n in
    ensure_workers t (runners - 1);
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let finished = ref 0 in
    let finished_mutex = Mutex.create () in
    let all_done = Condition.create () in
    let runner () =
      let rec steal () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f i with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          steal ()
        end
      in
      steal ();
      Mutex.lock finished_mutex;
      incr finished;
      if !finished = runners then Condition.broadcast all_done;
      Mutex.unlock finished_mutex
    in
    Mutex.lock t.mutex;
    for _ = 2 to runners do
      Queue.push runner t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    (* The calling domain is a runner too, so progress never depends on a
       worker being free. *)
    runner ();
    Mutex.lock finished_mutex;
    while !finished < runners do
      Condition.wait all_done finished_mutex
    done;
    Mutex.unlock finished_mutex;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let global_pool = ref None

let global () =
  match !global_pool with
  | Some t -> t
  | None ->
      let t = create () in
      global_pool := Some t;
      at_exit (fun () -> shutdown t);
      t
