(** The job store: every job's lifecycle as an explicit, auditable
    state machine.

    {v
      Queued ──► Running ──► Done
        │           │  └───► Failed
        │           └──────► Cancelled
        ├──────────────────► Cancelled   (cancelled before starting)
        └──────────────────► Done        (served from the result cache)
    v}

    Any other transition is rejected by {!transition} — process
    management is never ad hoc; every state change is validated and
    timestamped in the job's transition log.  All accessors lock the
    store, so HTTP handler threads, the queue pump and pool worker
    domains share it safely. *)

type state = Queued | Running | Done | Failed | Cancelled

val state_name : state -> string

type job = {
  id : string;
  seq : int;  (** arrival order, the FIFO key *)
  spec_text : string;  (** canonical [Dsl.print] of the parsed spec *)
  cache_key : string;
  cacheable : bool;  (** false for budgeted (anytime) jobs *)
  submitted_at : float;
  mutable state : state;
  mutable cache_hit : bool;
  mutable payload : string option;  (** result JSON once [Done] *)
  mutable error : string option;  (** diagnostic once [Failed] *)
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable log : (float * state) list;  (** newest first; the audit trail *)
  mutable events : string list;  (** NDJSON phase-event lines, newest first *)
  mutable n_events : int;
  cancel_requested : bool Atomic.t;
      (** polled by the running flow's [options.cancel] hook *)
}

type t

val create : unit -> t

val add : t -> spec_text:string -> cache_key:string -> cacheable:bool -> job
(** Registers a fresh [Queued] job and returns it (ids are ["j1"],
    ["j2"], ... in arrival order). *)

val find : t -> string -> job option

val transition : t -> job -> state -> (unit, string) result
(** Validated state change; [Error] names the illegal edge and leaves
    the job untouched.  Legal edges are exactly the diagram above.
    Timestamps [started_at]/[finished_at] as a side effect. *)

val append_event : t -> job -> string -> unit
(** Appends one NDJSON line to the job's event stream. *)

val events_since : t -> job -> int -> string list * int
(** [events_since t job n] returns the event lines after the first [n],
    oldest first, plus the new total — the long-poll cursor for
    [GET /jobs/:id/events?since=n]. *)

val log_of : t -> job -> (float * state) list
(** The transition log, oldest first. *)

val count_in : t -> state -> int
