(** Growable vector (amortized O(1) push), used for the mutable PE and
    link tables of an architecture under construction. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element (the inverse of {!push}, used by
    the architecture undo journal).
    @raise Invalid_argument on an empty vector. *)

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val for_all : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val map_copy : ('a -> 'a) -> 'a t -> 'a t
(** Fresh vector whose elements are [f] of the originals; used to deep
    copy architectures. *)
