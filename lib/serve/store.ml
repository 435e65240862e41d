type state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : string;
  seq : int;
  spec_text : string;
  cache_key : string;
  cacheable : bool;
  submitted_at : float;
  mutable state : state;
  mutable cache_hit : bool;
  mutable payload : string option;
  mutable error : string option;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable log : (float * state) list;
  mutable events : string list;
  mutable n_events : int;
  cancel_requested : bool Atomic.t;
}

type t = {
  lock : Mutex.t;
  jobs : (string, job) Hashtbl.t;
  mutable next : int;
}

let create () = { lock = Mutex.create (); jobs = Hashtbl.create 64; next = 1 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t ~spec_text ~cache_key ~cacheable =
  locked t (fun () ->
      let seq = t.next in
      t.next <- seq + 1;
      let now = Unix.gettimeofday () in
      let job =
        {
          id = Printf.sprintf "j%d" seq;
          seq;
          spec_text;
          cache_key;
          cacheable;
          submitted_at = now;
          state = Queued;
          cache_hit = false;
          payload = None;
          error = None;
          started_at = None;
          finished_at = None;
          log = [ (now, Queued) ];
          events = [];
          n_events = 0;
          cancel_requested = Atomic.make false;
        }
      in
      Hashtbl.replace t.jobs job.id job;
      job)

let find t id = locked t (fun () -> Hashtbl.find_opt t.jobs id)

(* The complete set of legal lifecycle edges. *)
let legal = function
  | Queued, Running
  | Queued, Cancelled
  | Queued, Done (* cache hit: served without running *)
  | Running, Done
  | Running, Failed
  | Running, Cancelled ->
      true
  | _ -> false

let transition t job target =
  locked t (fun () ->
      if legal (job.state, target) then begin
        let now = Unix.gettimeofday () in
        (match target with
        | Running -> job.started_at <- Some now
        | Done | Failed | Cancelled -> job.finished_at <- Some now
        | Queued -> ());
        job.state <- target;
        job.log <- (now, target) :: job.log;
        Ok ()
      end
      else
        Error
          (Printf.sprintf "illegal transition %s -> %s for %s"
             (state_name job.state) (state_name target) job.id))

let append_event t job line =
  locked t (fun () ->
      job.events <- line :: job.events;
      job.n_events <- job.n_events + 1)

let events_since t job n =
  locked t (fun () ->
      let total = job.n_events in
      let fresh =
        if n >= total then []
        else
          (* [events] is newest first; take the first (total - n). *)
          let rec take k = function
            | x :: rest when k > 0 -> x :: take (k - 1) rest
            | _ -> []
          in
          List.rev (take (total - n) job.events)
      in
      (fresh, total))

let log_of t job = locked t (fun () -> List.rev job.log)

let count_in t s =
  locked t (fun () ->
      Hashtbl.fold (fun _ j acc -> if j.state = s then acc + 1 else acc) t.jobs 0)
