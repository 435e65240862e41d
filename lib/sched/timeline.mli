(** Busy-interval timelines for serially shared resources (general-purpose
    processors and communication links).

    Insertion-based list scheduling: each new piece of work is placed into
    the earliest gap that fits.  A processor timeline may split work
    around existing reservations — the resident (higher-priority,
    already-scheduled) work preempts the newcomer, which pays the
    preemption overhead per extra chunk (Section 5's restricted
    preemptive scheduling). *)

type t

val create : unit -> t

val insert : t -> ready:int -> duration:int -> int * int
(** Places an indivisible piece of work in the earliest gap starting at
    or after [ready]; returns (start, finish). *)

val insert_preemptible :
  ?on_commit:(int -> int -> unit) ->
  t ->
  ready:int ->
  duration:int ->
  max_chunks:int ->
  chunk_penalty:int ->
  int * int
(** Places work that may be cut into up to [max_chunks] chunks around
    existing reservations, paying [chunk_penalty] extra work per cut.
    Chunks smaller than a quarter of the total are not created.  Returns
    (start of first chunk, finish of last chunk).  [?on_commit] is called
    once per committed chunk with its (start, stop) — the incremental
    engine records the exact reservations this call made. *)

val append : t -> int -> int -> unit
(** Appends a busy interval whose start is at or after every existing
    interval's start, coalescing when touching.  Replaying a timeline's
    committed intervals in start order through [append] rebuilds exactly
    the state the original out-of-order {!insert} calls produced (the
    normalized representation is canonical).  Incremental-replay only;
    feeding it unsorted intervals corrupts the timeline. *)

val busy : t -> (int * int) list
(** Current reservations, sorted and disjoint. *)

val probe : t -> ready:int -> duration:int -> int * int
(** Like {!insert} but without reserving: used to compare candidate
    links before committing to the best one. *)
