(** The FastVer serving loop: an I/O event loop feeding an executor pool.

    A single event loop (TCP and/or Unix-domain) reads requests into
    per-connection buffers and drains them through the FastVer worker loop
    in batches via {!Fastver.Batch.submit}, so the whole batch shares one
    verification-log flush — the same enclave-transition amortisation the
    paper applies to ecalls (§7).

    With [n_workers > 1] the select loop keeps I/O only: decoded batches
    are grouped by owning worker ({!Fastver.owner_of_key}) and handed to
    one executor domain per worker over bounded queues (a full queue
    blocks the dispatcher — backpressure, not unbounded growth). Puts are
    admitted (client MAC + nonce) on the I/O domain in arrival order
    before dispatch. Responses are written back in per-connection request
    order regardless of execution order (per-request reply slots), so
    clients may pipeline freely; operations on the {e same} key execute in
    arrival order (same key → same owner → same FIFO queue), while
    independent keys may execute in parallel. Cross-partition requests —
    scans, stats, metrics, session admin — quiesce the pool first and run
    at their exact position.

    [Verify] is dispatched like data operations: with an executor pool it
    runs as a job on executor 0, without one it runs inline. The epoch
    boundary is sealed under a brief O(workers) barrier and the scan then
    runs alongside the other executors, which keep serving gets and puts
    into the next epoch ({!Fastver.verify}); the response is emitted when
    the scan completes.

    Robustness properties:
    - {e backpressure}: the pending-request queue is bounded; when it (or a
      connection's output queue) fills, the loop simply stops reading from
      sockets until it drains — TCP flow control pushes back on clients;
    - {e error isolation}: a malformed frame or forged request poisons only
      its own connection/operation, never the loop or other clients;
    - {e clean shutdown}: {!stop} wakes the loop, which closes the executor
      queues, fails any batch that raced the close with an explicit
      [shutdown] error (never a crash: {!Fastver.Bounded_queue.push} is
      total), joins executors (finishing any scan they are running), then
      closes every socket and removes the Unix socket file;
    - {e no busy-wait}: the loop always blocks in [select] — completions
      from executor domains arrive over a wake pipe,
      and wake-up writes that fail for a real reason (not a full pipe, not
      an orderly shutdown) are logged and counted
      ([fastver_net_lost_wakeups_total]) instead of silently dropped. *)

type config = {
  batch_limit : int;  (** max requests drained per batch (default 256) *)
  queue_limit : int;  (** pending-queue bound — backpressure (default 1024) *)
  conn_out_limit : int;
      (** queued output bytes per connection before its reads pause *)
  max_frame : int;
  max_scan_len : int;  (** reject scans longer than this *)
  read_only : bool;
      (** replication-follower mode (default [false]): [Put] requests are
          refused, and [Verify] answers with the follower's already-verified
          epoch — re-signing its certificate under the shared secret — rather
          than sealing an epoch locally (a follower's epochs advance only
          with the primary's authenticated boundary records, so the client's
          [verify_now] check works unchanged). Gets, scans, stats and
          metrics are served normally. *)
}

val default_config : config

type counters = {
  accepted : int;  (** connections accepted *)
  served : int;  (** requests answered *)
  batches : int;  (** worker-loop drains *)
  max_batch : int;  (** largest single drain *)
  proto_errors : int;  (** malformed frames / requests *)
  op_failures : int;  (** operations answered with an error *)
}
(** A point-in-time snapshot. The live counters are [Atomic.t]s registered
    on the system's {!Fastver.registry} (names [fastver_net_*]), so reading
    from outside the server domain is sound. *)

type t

val create : ?config:config -> Fastver.t -> listen:Addr.t -> (t, string) result
(** Binds and listens immediately (so [listen] may use TCP port 0 and the
    effective address read back with {!bound_addr}). *)

val bound_addr : t -> Addr.t

val read_only : t -> bool
(** The live value — starts as [config.read_only], moved by
    {!set_read_only}. *)

val set_read_only : t -> bool -> unit
(** Flip follower mode on a running server. Election promotion calls
    [set_read_only t false] so a follower starts admitting puts without
    restarting its loop (demotion flips it back). Requests already past
    classification keep the mode they saw. *)

val counters : t -> counters

val run : t -> unit
(** Run the event loop in the calling thread until {!stop}. *)

val start : t -> unit
(** Run the loop in a background domain. *)

val stop : t -> unit
(** Signal shutdown and, if {!start} was used, join the domain. Idempotent. *)
