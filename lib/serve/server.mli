(** Synthesis as a service: the job server.

    One server owns a {!Store.t} of jobs, a {!Cache.t} of results, a
    FIFO {!Crusade_util.Jobqueue} of admitted work and a bounded
    in-flight budget on the shared {!Crusade_util.Pool} domain pool.
    HTTP handling is pure request -> response ({!handle}), so tests and
    the fuzz harness drive the full API in process; {!start} wraps the
    same handler in a real [unix] socket accept loop with keep-alive
    connection threads.

    API (JSON in, JSON out):
    - [POST /jobs] — body [{"spec": "<DSL text>", "options": {...},
      "resynth": {...}}]; returns the job id.  Options: [reconfig],
      [jobs], [portfolio], [quality] ("fast"|"balanced"|"max"),
      [budget_ms], [audit], [copy_cap], [eval_window].  [resynth] is a
      change event in the CLI's [--change-json] shape.  An identical
      (canonical spec, canonical options) re-submission is answered from
      the result cache: the job is born [done] with [cache_hit = true]
      and a payload byte-identical to the fresh run's.
    - [GET /jobs/:id] — status, transition log, event count.
    - [GET /jobs/:id/result] — the raw result payload (409 until done).
    - [GET /jobs/:id/events?since=N] — newline-delimited JSON phase
      events from the run's trace sink; [since] is the line cursor.
    - [DELETE /jobs/:id] — cooperative cancel: a queued job is removed
      outright, a running one is signalled through [options.cancel] and
      stops at its next commit point.
    - [GET /healthz] — liveness: 200 [{"ok":true}], or 503
      [{"ok":false,"error":...}] once the accept loop ({!serve}) has
      died.
    - [GET /stats] — queue depth, in-flight, job states, cache
      hits/misses, per-phase latency totals. *)

type config = {
  max_in_flight : int;  (** jobs running concurrently on the pool *)
  queue_cap : int;  (** admitted-but-waiting bound; 503 when full *)
  default_jobs : int;
      (** default [options.jobs] of a job: the domains its portfolio
          trajectories spread over *)
  lib : Crusade_resource.Library.t;  (** PE library specs resolve against *)
  pre_run : (string -> unit) option;
      (** test hook: called with the job id on the worker domain after
          the job leaves the queue, before synthesis starts — lets a
          test hold a job "running" deterministically *)
}

val default_config : unit -> config
(** max_in_flight 2, queue_cap 64, [Pool.default_jobs ()] portfolio
    domains, the stock library, no test hook. *)

type t

val create : config -> t
(** A fresh server sharing the global domain pool (warmed to
    [max_in_flight]). *)

val handle : t -> Http.request -> Http.response
(** Routes one request — the whole API surface, no sockets involved. *)

val stats_json : t -> string

val listen : ?addr:string -> port:int -> t -> Unix.file_descr * int
(** Binds and listens ([port = 0] picks an ephemeral port); returns the
    listening socket and the actual port.  Ignores [SIGPIPE] for the
    whole process, so a write to a peer that hung up fails with [EPIPE]
    and drops only that connection. *)

val serve : t -> Unix.file_descr -> unit
(** Blocking accept loop on an already-listening socket; one thread per
    connection, keep-alive until the peer closes (or sends
    [Connection: close]).  [EINTR] and [ECONNABORTED] are retried at
    once; [EMFILE], [ENFILE], [ENOBUFS] and [ENOMEM] after a short
    pause.  Returns when {!stop} closes the socket; any other error is
    recorded on the server, so [/healthz] answers 503 from then on, and
    raised. *)

val start : ?addr:string -> port:int -> t -> int
(** {!listen} + {!serve} on a background thread; returns the port. *)

val stop : t -> unit
(** Closes the listening socket (ending {!serve}) and the job queue.
    Running jobs finish; queued jobs are cancelled. *)
