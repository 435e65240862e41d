(** Delay management (Section 4.5): the effective resource utilization
    factor (ERUF) and effective pin utilization factor (EPUF) experiment.

    The co-synthesis scheduler trusts each task's worst-case execution
    time; that constraint only holds if place-and-route does not stretch
    the critical path.  CRUSADE caps PPE fills at ERUF = 70% of PFUs and
    EPUF = 80% of pins.  This module measures, for a circuit sharing a
    device filled to a given utilization, how much its post-route delay
    exceeds the delay constraint derived at the default caps. *)

val default_eruf : float
(** 0.70 *)

val default_epuf : float
(** 0.80 *)

type result = Increase_pct of float | Unroutable

val measure :
  ?device:Device.t ->
  ?samples:int ->
  Circuit.t ->
  eruf:float ->
  epuf:float ->
  seed:int ->
  result
(** [measure circuit ~eruf ~epuf ~seed] fills the device with synthetic
    filler functions up to [eruf * pfus] PFUs, drives [epuf * io_pins]
    pin nets, places and routes, and reports the percentage increase of
    the circuit's critical-path delay over its constraint (the delay
    measured at the default caps with the same seed).  Averaged over
    [samples] seeds (default 15).  [Unroutable] when a majority of the
    samples fail to route.  When [device] is omitted, the circuit is
    hosted on a device it occupies to about 35%, so the ERUF sweep has
    room to fill. *)
