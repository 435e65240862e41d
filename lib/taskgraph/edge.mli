(** Directed communication edges between tasks.

    An edge carries the number of information bytes transferred; its
    communication vector (time per link type) is computed from the link
    characteristics — a priori with an average port count, and recomputed
    after each allocation with the actual port count (Section 2.2). *)

type t = {
  id : int;  (** global edge id, unique across the specification *)
  src : int;  (** global task id of the producer *)
  dst : int;  (** global task id of the consumer *)
  bytes : int;
}
