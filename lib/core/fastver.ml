open Fastver_verifier
open Fastver_kvstore

exception Integrity_violation of string

module Config = Config
module Auth = Auth
module Adaptive = Adaptive
module Bounded_queue = Bounded_queue
module Reg = Fastver_obs.Registry

(* ------------------------------------------------------------------ *)
(* Protection state in the 64-bit aux field of data records (§7)       *)
(* ------------------------------------------------------------------ *)

let aux_merkle = 0L
let aux_blum ts = Int64.logor Int64.min_int ts
let aux_is_blum aux = Int64.compare aux 0L < 0
let aux_timestamp aux = Int64.logand aux Int64.max_int

(* Host-side protection state of merkle records. [M_cached sid] names the
   shard whose (single) verifier thread holds the record. *)
type mstate = M_merkle | M_blum of Timestamp.t | M_cached of int

type maux = { mutable mstate : mstate; mutable owner : int }
(** [owner >= 0] marks a frontier record and names its shard. *)

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type meta = {
  client : int;
  nonce : int64;
  mac : string;
  receipt : (string * int) option ref;
      (* validated-result receipt (mac, epoch), written when the op's log
         entry flushes through the enclave. A per-op cell rather than a
         per-worker FIFO: concurrent batch submissions (the server's
         executor pool) would interleave positional queues. *)
}

let mk_meta ~client ~nonce ~mac = { client; nonce; mac; receipt = ref None }

type entry =
  | E_add_b of Key.t * Value.t * Timestamp.t
  | E_evict_b of Key.t * Timestamp.t
  | E_vget of Key.t * string option * meta option
  | E_vput of Key.t * string option * meta option

(* One keyspace partition: its own Merkle tree, its own single-threaded
   verifier (tid is always 0), its own dirty set, frontier and epoch
   clock — and its own pair of locks, so partitions never contend. The
   worker-side mirror state (lru/via/parents/log) lives here too: shard
   routing is forced by key, so a shard {e is} its worker. *)
type shard = {
  sid : int;
  tree : maux Tree.t; (* this partition's merkle records *)
  verifier : Verifier.t; (* n_threads = 1, sharing the system enclave *)
  tree_lock : Mutex.t;
  worker_lock : Mutex.t;
  mutable frontier : Key.t list; (* this shard's frontier merkle keys *)
  mutable clock : Timestamp.t; (* exact mirror of the verifier thread clock *)
  lru : Key_lru.t; (* mirror of the merkle records in the verifier cache *)
  via : [ `M | `B ] Key.Tbl.t;
  parents : Key.t Key.Tbl.t; (* pointing parent of each cached-via-merkle key *)
  mutable log : entry list; (* buffered verifier calls, newest first *)
  mutable log_len : int;
  mutable dirty : Key.t list; (* data keys handed to blum this epoch *)
  mutable dirty_len : int;
  (* Adaptive-controller state. [heat] and the per-epoch tier counters are
     written under [worker_lock] (and only when the config enables the
     controller); the rest is written at the seal barrier under the world
     lock and read by the scan that follows. *)
  mutable cache_cap : int; (* live verifier-cache capacity for this shard *)
  mutable depth : int; (* current frontier cut depth (Patricia levels) *)
  heat : int array; (* Adaptive.buckets-cell per-key-range heat sketch *)
  hot : unit Key.Tbl.t; (* keys currently carried in the deferred tier *)
  mutable plan : Adaptive.plan option; (* decision for the upcoming scan *)
  mutable ops_blum_e : int; (* per-epoch tier attribution for the controller *)
  mutable ops_merkle_e : int;
  mutable ops_cached_e : int;
}

type stats = {
  mutable ops : int;
  mutable gets : int;
  mutable puts : int;
  mutable scans : int;
  mutable blum_fast_path : int;
  mutable merkle_path : int;
  mutable verifies : int;
  mutable migrated_data : int;
  mutable migrated_frontier : int;
  mutable verify_time_s : float;
  mutable last_verify_latency_s : float;
  mutable verifier_time_s : float;
  mutable cas_retries : int;
  mutable worker_busy_s : float array;
      (* per-shard attributed processing time, for scalability modelling *)
  mutable serial_s : float;
      (* inherently serial work: the store-level multiset fold + signature *)
}

(* Replication tee. [on_op] fires for every applied put/delete, under the
   owning shard's worker lock at the instant the op folds into its epoch —
   so for any single key the stream order equals the apply order, and every
   op tagged epoch [e] is teed before [on_seal] can fire for [e] (the seal
   barrier holds all worker locks). [on_seal] fires once per verified epoch,
   in epoch order (serialized by [verify_mutex]), with the store-level
   certificate. Hooks must be lock-free leaf code: they run under core
   locks. *)
type replication = {
  on_op : epoch:int -> key:Key.t -> value:string option -> unit;
  on_seal : epoch:int -> cert:string -> unit;
}

type t = {
  mutable config : Config.t;
      (* mutable only for [set_batch_size]: election promotion re-enables
         auto-sealing on a live store that was created as a follower
         (batch_size 0). The field swap is a single word store of an
         immutable record, so concurrent readers see either value whole. *)
  enclave : Enclave.t;
  shards : shard array;
  mutable boundaries : Key.t array;
      (* [n_shards - 1] sorted data keys partitioning the keyspace into
         ranges; shard [i] owns keys in [boundaries.(i-1), boundaries.(i)).
         Computed from key quantiles at load time and sealed inside the
         enclave payload at checkpoint: routing decides which shard proves
         a key's (non-)existence, so a tampered boundary would let the host
         ask the wrong shard for a false absence proof. *)
  store : string option Store.t; (* data records; None = null value *)
  auth : Auth.key;
  nonces : (int, int64) Hashtbl.t; (* gateway: last put nonce per client *)
  sealed : Enclave.Sealed_slot.slot;
  mutable loaded : bool;
  gateway_lock : Mutex.t;
  ops_since_verify : int Atomic.t;
  live_epoch : int Atomic.t;
      (* the epoch operations are folding into right now. Trails the
         verifiers' current epoch during a scan: the seal barrier bumps it
         to [e+1] while the verifiers still hold epoch [e] open until the
         scan closes it. Equal to the verifiers' current epoch whenever no
         scan is in flight. *)
  verify_mutex : Mutex.t;
      (* serializes verification scans and checkpoints with each other;
         acquired before (never inside) the shard locks *)
  verify_inflight : bool Atomic.t;
  mutable redeferred : Key.t list;
  redeferred_lock : Mutex.t;
      (* leaf lock (no other lock taken while held): data keys whose
         fast-path touch crossed the epoch boundary during a scan; the next
         seal barrier routes them to their shards' dirty snapshots *)
  mutable on_verified : (unit -> unit) option;
      (* e.g. auto-checkpoint: runs after each successful scan *)
  mutable repl : replication option;
      (* replication tee, if a primary is streaming this store *)
  cold : Store.Cold.t option;
  cold_lock : Mutex.t;
      (* serialises cold maintenance (demotion + compaction) with itself
         and with checkpointing, so one demotion pass's segment rotations
         are never interleaved with another's manifest encoding *)
  stats : stats;
  metrics : Metrics.t;
}

(* Callback-backed metrics: surface the subsystems' own counters at render
   time instead of double-accounting them on the hot path. Runs once per
   system (both constructors); re-registration on the same registry is
   idempotent. *)
let wire_metrics t =
  let module V = Fastver_verifier.Verifier in
  let reg = Metrics.registry t.metrics in
  Reg.gauge_fn reg ~help:"Current (in-progress) epoch" "fastver_epoch"
    (fun () -> float_of_int (V.current_epoch t.shards.(0).verifier));
  Reg.gauge_fn reg ~help:"Newest verified epoch" "fastver_verified_epoch"
    (fun () ->
      float_of_int
        (Array.fold_left
           (fun acc sh -> min acc (V.verified_epoch sh.verifier))
           max_int t.shards));
  (* Epochs certify in lockstep across shards, so shard 0 counts them all. *)
  Reg.counter_fn reg ~help:"Epoch certificates issued"
    "fastver_epoch_certificates_total" (fun () ->
      (V.stats t.shards.(0).verifier).n_certificates);
  let sum read =
    Array.fold_left (fun acc sh -> acc + read (V.stats sh.verifier)) 0 t.shards
  in
  List.iter
    (fun (op, read) ->
      Reg.counter_fn reg
        ~labels:[ ("op", op) ]
        ~help:"In-enclave verifier calls by operation"
        "fastver_verifier_ops_total"
        (fun () -> sum read))
    [
      ("add_m", fun (s : V.op_stats) -> s.n_add_m);
      ("evict_m", fun s -> s.n_evict_m);
      ("add_b", fun s -> s.n_add_b);
      ("evict_b", fun s -> s.n_evict_b);
      ("evict_bm", fun s -> s.n_evict_bm);
      ("vget", fun s -> s.n_vget);
      ("vput", fun s -> s.n_vput);
    ];
  Array.iter
    (fun sh ->
      Reg.counter_fn reg
        ~labels:[ ("shard", string_of_int sh.sid) ]
        ~help:"In-enclave verifier calls by shard"
        "fastver_shard_ops_total"
        (fun () ->
          let s = V.stats sh.verifier in
          s.n_add_m + s.n_evict_m + s.n_add_b + s.n_evict_b + s.n_evict_bm
          + s.n_vget + s.n_vput))
    t.shards;
  (* Adaptive-controller decision surfaces. The bytes figure is a nominal
     footprint (entries x a conservative 128 B/record: 34 B encoded key +
     value/pointer payload + table overhead) so operators can watch the
     budget without the verifier exposing its allocator. *)
  let cache_entry_bytes = 128 in
  Array.iter
    (fun sh ->
      let labels = [ ("shard", string_of_int sh.sid) ] in
      Reg.gauge_fn reg ~labels
        ~help:"Live verifier-cache capacity (entries)"
        "fastver_adaptive_cache_capacity" (fun () ->
          float_of_int sh.cache_cap);
      Reg.gauge_fn reg ~labels
        ~help:"Frontier cut depth (Patricia levels)" "fastver_adaptive_depth"
        (fun () -> float_of_int sh.depth);
      Reg.gauge_fn reg ~labels
        ~help:"Keys currently carried in the deferred tier"
        "fastver_adaptive_hot_keys" (fun () ->
          float_of_int (Key.Tbl.length sh.hot)))
    t.shards;
  Reg.gauge_fn reg
    ~help:"Nominal verifier-cache footprint across shards (bytes)"
    "fastver_adaptive_cache_bytes" (fun () ->
      float_of_int
        (cache_entry_bytes
        * Array.fold_left (fun a sh -> a + sh.cache_cap) 0 t.shards));
  Reg.gauge_fn reg ~help:"Live data records in the host store"
    "fastver_store_records" (fun () ->
      float_of_int (Fastver_kvstore.Store.length t.store));
  Reg.counter_fn reg ~help:"Host store reads" "fastver_store_reads_total"
    (fun () -> (Fastver_kvstore.Store.stats t.store).reads);
  Reg.counter_fn reg ~help:"Host store writes" "fastver_store_writes_total"
    (fun () -> (Fastver_kvstore.Store.stats t.store).writes);
  Reg.counter_fn reg
    ~help:"Updates that appended a new immutable version"
    "fastver_store_rcu_copies_total" (fun () ->
      (Fastver_kvstore.Store.stats t.store).rcu_copies);
  Reg.counter_fn reg ~help:"Gets served from the spill file"
    "fastver_store_spill_reads_total" (fun () ->
      (Fastver_kvstore.Store.stats t.store).spill_reads);
  (* Registered whether or not a cold tier is attached, so the documented
     fastver_cold_* names are always present in a snapshot. *)
  Store.Cold.wire_metrics t.cold reg;
  Reg.gauge_fn reg
    ~help:"Modelled enclave-transition nanoseconds accumulated"
    "fastver_enclave_overhead_ns" (fun () ->
      Int64.to_float (Enclave.charged_ns t.enclave));
  (* Register the per-shard scan-slice series eagerly so every shard's
     histogram is present in snapshots before the first verification scan. *)
  for sid = 0 to Array.length t.shards - 1 do
    ignore (Metrics.verify_shard_seconds t.metrics ~sid)
  done

let option_codec : string option Store.codec =
  {
    encode = (function None -> "\x00" | Some v -> "\x01" ^ v);
    decode =
      (fun s ->
        if s = "\x00" then None else Some (String.sub s 1 (String.length s - 1)));
  }

(* Open the cold tier named by the configuration. [manifest] is the
   committed cold manifest when recovering from a checkpoint; [None] means a
   fresh start, where any leftover segment files are uncommitted garbage. *)
let cold_of_config ?manifest (config : Config.t) =
  match config.cold_dir with
  | None -> Ok None
  | Some dir -> (
      let ccfg =
        {
          Store.Cold.dir;
          mac_secret = config.mac_secret;
          segment_bytes = config.cold_segment_bytes;
        }
      in
      match manifest with
      | Some m -> Result.map Option.some (Store.Cold.recover ccfg ~manifest:m)
      | None ->
          Result.map Option.some (Store.Cold.create ~clear_stray:true ccfg))

let vconfig_of (config : Config.t) =
  {
    Verifier.n_threads = 1;
    cache_capacity = config.cache_capacity;
    algo = config.algo;
    mac_secret = config.mac_secret;
    mset_secret = config.mset_secret;
  }

let mk_shard ?tree verifier sid =
  let tree =
    match tree with
    | Some tr -> tr
    | None -> Tree.create ~root_aux:{ mstate = M_cached sid; owner = -1 }
  in
  {
    sid;
    tree;
    verifier;
    tree_lock = Mutex.create ();
    worker_lock = Mutex.create ();
    frontier = [];
    clock = Verifier.clock verifier ~tid:0;
    lru = Key_lru.create ();
    via = Key.Tbl.create 64;
    parents = Key.Tbl.create 64;
    log = [];
    log_len = 0;
    dirty = [];
    dirty_len = 0;
    cache_cap = Verifier.cache_capacity verifier;
    depth = 0;
    heat = Array.make Adaptive.buckets 0;
    hot = Key.Tbl.create 64;
    plan = None;
    ops_blum_e = 0;
    ops_merkle_e = 0;
    ops_cached_e = 0;
  }

let mk_stats n_sh =
  {
    ops = 0;
    gets = 0;
    puts = 0;
    scans = 0;
    blum_fast_path = 0;
    merkle_path = 0;
    verifies = 0;
    migrated_data = 0;
    migrated_frontier = 0;
    verify_time_s = 0.0;
    last_verify_latency_s = 0.0;
    verifier_time_s = 0.0;
    cas_retries = 0;
    worker_busy_s = Array.make n_sh 0.0;
    serial_s = 0.0;
  }

let create ?(config = Config.default) () =
  let enclave = Enclave.create config.cost_model in
  let cold =
    match cold_of_config config with
    | Ok c -> c
    | Error e -> invalid_arg ("Fastver.create: " ^ e)
  in
  let n_sh = Config.shards config in
  let vconfig = vconfig_of config in
  let t =
    {
      config;
      enclave;
      shards =
        Array.init n_sh (fun sid ->
            mk_shard (Verifier.create ~enclave vconfig) sid);
      boundaries = [||];
      store = Store.create ?cold ~codec:option_codec ();
      auth = Auth.key_of_secret config.mac_secret;
      nonces = Hashtbl.create 8;
      sealed = Enclave.Sealed_slot.create ();
      loaded = false;
      gateway_lock = Mutex.create ();
      ops_since_verify = Atomic.make 0;
      live_epoch = Atomic.make 0;
      verify_mutex = Mutex.create ();
      verify_inflight = Atomic.make false;
      redeferred = [];
      redeferred_lock = Mutex.create ();
      on_verified = None;
      repl = None;
      cold;
      cold_lock = Mutex.create ();
      stats = mk_stats n_sh;
      metrics = Metrics.create ~enabled:config.metrics_enabled ();
    }
  in
  wire_metrics t;
  t

let config t = t.config
let stats t = t.stats
let registry t = Metrics.registry t.metrics
let n_shards t = Array.length t.shards

type adaptive_shard = {
  a_sid : int;
  a_depth : int;
  a_cache_cap : int;
  a_hot_keys : int;
  a_frontier : int;
}

(* Unsynchronised int reads: a point-in-time picture for stats and tests. *)
let adaptive_state t =
  Array.map
    (fun sh ->
      {
        a_sid = sh.sid;
        a_depth = sh.depth;
        a_cache_cap = sh.cache_cap;
        a_hot_keys = Key.Tbl.length sh.hot;
        a_frontier = List.length sh.frontier;
      })
    t.shards
let enclave_handle t = t.enclave
let enclave_overhead_ns t = Enclave.charged_ns t.enclave
let cold_stats t = Option.map Store.Cold.stats t.cold
let current_epoch t = Verifier.current_epoch t.shards.(0).verifier

let verified_epoch t =
  Array.fold_left
    (fun acc sh -> min acc (Verifier.verified_epoch sh.verifier))
    max_int t.shards

let verifier_failure t =
  Array.fold_left
    (fun acc sh ->
      match acc with Some _ -> acc | None -> Verifier.failure sh.verifier)
    None t.shards

let verifier_stats t =
  let acc =
    {
      Verifier.n_add_m = 0;
      n_evict_m = 0;
      n_add_b = 0;
      n_evict_b = 0;
      n_evict_bm = 0;
      n_vget = 0;
      n_vput = 0;
      n_certificates = 0;
    }
  in
  Array.iter
    (fun sh ->
      let s = Verifier.stats sh.verifier in
      acc.n_add_m <- acc.n_add_m + s.n_add_m;
      acc.n_evict_m <- acc.n_evict_m + s.n_evict_m;
      acc.n_add_b <- acc.n_add_b + s.n_add_b;
      acc.n_evict_b <- acc.n_evict_b + s.n_evict_b;
      acc.n_evict_bm <- acc.n_evict_bm + s.n_evict_bm;
      acc.n_vget <- acc.n_vget + s.n_vget;
      acc.n_vput <- acc.n_vput + s.n_vput;
      acc.n_certificates <- max acc.n_certificates s.n_certificates)
    t.shards;
  acc

let live_epoch t = Atomic.get t.live_epoch

(* Replication tee call sites. No-ops unless a primary installed hooks. *)
let repl_op t ~epoch ~key ~value =
  match t.repl with None -> () | Some r -> r.on_op ~epoch ~key ~value

let repl_seal t ~epoch ~cert =
  match t.repl with None -> () | Some r -> r.on_seal ~epoch ~cert

let set_replication_hooks t ~on_op ~on_seal =
  t.repl <- Some { on_op; on_seal }

let clear_replication_hooks t = t.repl <- None
let verify_in_flight t = Atomic.get t.verify_inflight

let ok = function Ok x -> x | Error e -> raise (Integrity_violation e)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Shadow of the documented lock order — shard tree locks in ascending sid,
   then worker locks in ascending sid ([merkle_slow], [verify_inner] and
   [checkpoint] all follow it); [redeferred_lock] and [cold_lock] come
   after the world (redeferred under any shard/worker lock, cold under the
   world lock), and both are leaves: nothing is acquired while they are
   held. Each domain tracks what it holds in
   domain-local state; enforcement is off by default (a single [Atomic.get]
   per lock operation) and switched on by tests via
   [Testing.enforce_lock_order]. A violation raises [Invalid_argument] at
   the acquisition that breaks the order, naming both locks. *)
module Lock_order = struct
  type held = {
    mutable trees : int list; (* desc *)
    mutable workers : int list; (* desc *)
    mutable redeferred : bool;
    mutable cold : bool;
  }

  let enforce = Atomic.make false

  let dls =
    Domain.DLS.new_key (fun () ->
        { trees = []; workers = []; redeferred = false; cold = false })

  let fail fmt = Printf.ksprintf invalid_arg ("lock order: " ^^ fmt)

  (* Locks under which nothing further may be acquired. *)
  let leaf_held h =
    if h.redeferred then Some "redeferred_lock"
    else if h.cold then Some "cold_lock"
    else None

  let check_leaf h what =
    match leaf_held h with
    | Some l -> fail "%s requested while holding %s" what l
    | None -> ()

  let note_tree_lock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h (Printf.sprintf "shard tree lock %d" sid);
      (match h.workers with
      | wid :: _ ->
          fail "shard tree lock %d requested while holding worker lock %d" sid
            wid
      | [] -> ());
      (match h.trees with
      | top :: _ when top >= sid ->
          fail "shard tree lock %d requested while holding shard tree lock %d"
            sid top
      | _ -> ());
      h.trees <- sid :: h.trees
    end

  let note_tree_unlock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      h.trees <- List.filter (fun s -> s <> sid) h.trees
    end

  let note_worker_lock wid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h (Printf.sprintf "worker lock %d" wid);
      (match h.workers with
      | top :: _ when top >= wid ->
          fail "worker lock %d requested while holding worker lock %d" wid top
      | _ -> ());
      h.workers <- wid :: h.workers
    end

  let note_worker_unlock wid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      h.workers <- List.filter (fun w -> w <> wid) h.workers
    end

  (* Acquirable under shard/worker locks (the fast path parks keys while
     holding its worker lock; the seal barrier routes them under the world
     lock) — but itself a leaf. *)
  let note_redeferred_lock () =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h "redeferred_lock";
      h.redeferred <- true
    end

  let note_redeferred_unlock () =
    if Atomic.get enforce then (Domain.DLS.get dls).redeferred <- false

  (* Acquirable under the world lock (checkpoint commits the cold manifest
     with the world stopped) — but itself a leaf. *)
  let note_cold_lock () =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h "cold_lock";
      h.cold <- true
    end

  let note_cold_unlock () =
    if Atomic.get enforce then (Domain.DLS.get dls).cold <- false
end

let with_shard_lock t sid f =
  Lock_order.note_tree_lock sid;
  Mutex.lock t.shards.(sid).tree_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.shards.(sid).tree_lock;
      Lock_order.note_tree_unlock sid)
    f

let with_worker_lock t wid f =
  Lock_order.note_worker_lock wid;
  Mutex.lock t.shards.(wid).worker_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.shards.(wid).worker_lock;
      Lock_order.note_worker_unlock wid)
    f

let with_redeferred_lock t f =
  Lock_order.note_redeferred_lock ();
  Mutex.lock t.redeferred_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.redeferred_lock;
      Lock_order.note_redeferred_unlock ())
    f

let with_cold_lock t f =
  Lock_order.note_cold_lock ();
  Mutex.lock t.cold_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.cold_lock;
      Lock_order.note_cold_unlock ())
    f

(* Stop-the-world acquisition (verification scans, checkpoints): every
   shard tree lock in ascending sid, then every worker lock in ascending
   sid — the same order [merkle_slow] uses for its single shard. *)
let lock_world t =
  Array.iter
    (fun sh ->
      Lock_order.note_tree_lock sh.sid;
      Mutex.lock sh.tree_lock)
    t.shards;
  Array.iter
    (fun sh ->
      Lock_order.note_worker_lock sh.sid;
      Mutex.lock sh.worker_lock)
    t.shards

let unlock_world t =
  Array.iter
    (fun sh ->
      Mutex.unlock sh.worker_lock;
      Lock_order.note_worker_unlock sh.sid)
    t.shards;
  Array.iter
    (fun sh ->
      Mutex.unlock sh.tree_lock;
      Lock_order.note_tree_unlock sh.sid)
    t.shards

let now = Unix.gettimeofday

let maux sh k = (Tree.get_exn sh.tree k).aux

(* Mirror the verifier's Lamport-clock rules so the host can predict evict
   timestamps without a verifier round trip (§5.3). *)
let mirror_add_b sh ts = sh.clock <- Timestamp.max sh.clock (Timestamp.next ts)

(* ------------------------------------------------------------------ *)
(* Routing: keyspace partitioning                                      *)
(* ------------------------------------------------------------------ *)

(* The shard owning [key]: the number of range boundaries <= key (binary
   search). Total by construction — every key lands in exactly one shard,
   whatever bytes it holds — and lock-free: boundaries are immutable after
   load/recover, so external dispatchers (the server's executor pool)
   route without coordination. *)
let shard_of_data_key t key =
  let b = t.boundaries in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare b.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let owner_of_key t k = shard_of_data_key t (Key.of_int64 k)

(* Boundaries for an empty load: evenly spaced top-byte cuts. Real loads
   use key quantiles instead (uniform cuts would put every key in one
   shard under [Key.of_int64], which populates the low bits). *)
let synth_boundaries n =
  Array.init (n - 1) (fun i ->
      let b = Bytes.make 32 '\x00' in
      Bytes.set b 0 (Char.chr ((i + 1) * 256 / n mod 256));
      Key.of_bytes32 (Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Gateway: client authentication inside the enclave                   *)
(* ------------------------------------------------------------------ *)

let last_put : (Key.t * string option * meta) option ref = ref None

let gateway_check_put t key value meta =
  (match meta with Some m -> last_put := Some (key, value, m) | None -> ());
  match meta with
  | Some m when t.config.authenticate_clients ->
      with_lock t.gateway_lock (fun () ->
          let last =
            Option.value
              (Hashtbl.find_opt t.nonces m.client)
              ~default:Int64.min_int
          in
          if Int64.compare m.nonce last <= 0 then
            raise (Integrity_violation "gateway: put nonce replayed");
          let v = match value with Some v -> v | None -> "" in
          let expected =
            Auth.put_request t.auth ~client:m.client ~nonce:m.nonce key v
          in
          if not (Auth.check ~expected m.mac) then
            raise (Integrity_violation "gateway: bad client signature on put");
          Hashtbl.replace t.nonces m.client m.nonce)
  | Some _ | None -> ()

let gateway_receipt t ~kind key value meta =
  match meta with
  | Some m when t.config.authenticate_clients ->
      (* The live epoch, not the verifier's: during a scan the verifier
         still holds the sealed epoch open, but this op folds into the
         live one — a receipt stamped with the sealed epoch could claim
         certainty one epoch early. Reading one epoch late is merely
         conservative. *)
      let epoch = Atomic.get t.live_epoch in
      let mac =
        Auth.receipt t.auth ~kind ~client:m.client ~nonce:m.nonce key value
          ~epoch
      in
      m.receipt := Some (mac, epoch)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Verification log                                                    *)
(* ------------------------------------------------------------------ *)

let apply_entry t sh = function
  | E_add_b (k, v, ts) ->
      ok (Verifier.add_b sh.verifier ~tid:0 ~key:k ~value:v ~timestamp:ts)
  | E_evict_b (k, ts) ->
      ok (Verifier.evict_b sh.verifier ~tid:0 ~key:k ~timestamp:ts)
  | E_vget (k, v, meta) ->
      ok (Verifier.vget sh.verifier ~tid:0 ~key:k v);
      gateway_receipt t ~kind:Auth.Get k v meta
  | E_vput (k, v, meta) ->
      ok (Verifier.vput sh.verifier ~tid:0 ~key:k v);
      gateway_receipt t ~kind:Auth.Put k v meta

let flush_worker t sh =
  if sh.log_len > 0 then begin
    Metrics.flush t.metrics sh.log_len;
    let entries = List.rev sh.log in
    sh.log <- [];
    sh.log_len <- 0;
    let t0 = now () in
    Enclave.call t.enclave (fun () -> List.iter (apply_entry t sh) entries);
    t.stats.verifier_time_s <- t.stats.verifier_time_s +. (now () -. t0)
  end

let push t sh e =
  sh.log <- e :: sh.log;
  sh.log_len <- sh.log_len + 1;
  if sh.log_len >= t.config.log_buffer_size then flush_worker t sh

(* Drain all buffers; takes each shard's worker lock (callers already
   inside a worker lock use [flush_worker] directly). *)
let flush t =
  Array.iter
    (fun sh -> with_worker_lock t sh.sid (fun () -> flush_worker t sh))
    t.shards

let _ = flush

(* ------------------------------------------------------------------ *)
(* Mirror cache management (direct, in-enclave sections)               *)
(* ------------------------------------------------------------------ *)

(* Update the host copy of [parent]'s slot with a pointer computed and
   returned by the verifier (the eviction hand-back of §4.3). *)
let apply_ptr sh parent (ptr : Value.ptr) =
  let pe = Tree.get_exn sh.tree parent in
  match pe.value with
  | Value.Node n ->
      let d = Key.dir ptr.key ~ancestor:parent in
      pe.value <- Value.Node (Value.set_slot n d (Some ptr))
  | Value.Data _ -> assert false

let mark_in_blum sh parent key =
  let pe = Tree.get_exn sh.tree parent in
  match pe.value with
  | Value.Node n -> (
      let d = Key.dir key ~ancestor:parent in
      match Value.slot n d with
      | Some p when Key.equal p.key key ->
          pe.value <- Value.Node (Value.set_slot n d (Some { p with in_blum = true }))
      | Some _ | None -> assert false)
  | Value.Data _ -> assert false

let decr_parent_children sh parent =
  match Key_lru.find sh.lru parent with
  | Some pe -> Key_lru.decr_children pe
  | None -> assert (Key.equal parent Key.root)

(* Evict one merkle record from the verifier cache (and its mirror). *)
let evict_mirror _t sh e ~epoch_floor =
  let k = Key_lru.key e in
  assert (Key_lru.children e = 0);
  (match Key.Tbl.find sh.via k with
  | `M ->
      let parent = Key.Tbl.find sh.parents k in
      let ptr = ok (Verifier.evict_m sh.verifier ~tid:0 ~key:k ~parent) in
      apply_ptr sh parent ptr;
      decr_parent_children sh parent;
      (maux sh k).mstate <- M_merkle
  | `B ->
      let ts' = Timestamp.max sh.clock (Timestamp.first_of_epoch epoch_floor) in
      ok (Verifier.evict_b sh.verifier ~tid:0 ~key:k ~timestamp:ts');
      sh.clock <- ts';
      (maux sh k).mstate <- M_blum ts');
  Key_lru.remove sh.lru e;
  Key.Tbl.remove sh.via k;
  Key.Tbl.remove sh.parents k

let ensure_room t sh ?protect () =
  (* Keep two slots of headroom: one for the record being added, one for the
     transient data record of the operation in flight. *)
  while Key_lru.length sh.lru >= sh.cache_cap - 2 do
    match Key_lru.victim ?exclude:protect sh.lru with
    | Some e ->
        (* Evictions must land in the live epoch: during a scan of the
           sealed epoch, an evict timestamped into the sealed epoch
           would add an element the in-flight scan can no longer balance. *)
        evict_mirror t sh e ~epoch_floor:(Atomic.get t.live_epoch)
    | None ->
        raise
          (Integrity_violation
             "verifier cache too small for the active merkle chain")
  done

(* Make every merkle record on [path] (root-first, ending at the pointing
   parent) resident in [sh]'s verifier cache; returns the pointing parent.
   [loaded] counts chain records that were not already resident — the
   operation's tier attribution hinges on it. *)
let ensure_chain ?loaded t sh path =
  let note_load () =
    match loaded with Some r -> incr r | None -> ()
  in
  let arr = Array.of_list path in
  let n = Array.length arr in
  (* The deepest node already cached or blum-protected anchors the chain:
     everything below it is plain merkle-protected. Each shard's verifier
     pins its own tree's root, so the root always anchors. *)
  let rec find_anchor i =
    if i < 0 then -1
    else
      let k = arr.(i) in
      if Key.equal k Key.root then i
      else if Key_lru.mem sh.lru k then i
      else
        match (maux sh k).mstate with
        | M_blum _ -> i
        | M_merkle -> find_anchor (i - 1)
        | M_cached sid ->
            raise
              (Integrity_violation
                 (Fmt.str "routing: %a marked cached in shard %d but absent \
                           from its mirror" Key.pp k sid))
  in
  let anchor = find_anchor (n - 1) in
  if anchor < 0 then
    raise (Integrity_violation "routing: chain has no anchor for this shard");
  for j = anchor to n - 1 do
    let k = arr.(j) in
    if Key.equal k Key.root then () (* pinned in the shard's thread 0 *)
    else
      match Key_lru.find sh.lru k with
      | Some e -> Key_lru.touch sh.lru e
      | None -> (
          let entry = Tree.get_exn sh.tree k in
          match entry.aux.mstate with
          | M_blum ts ->
              note_load ();
              ensure_room t sh ();
              ok
                (Verifier.add_b sh.verifier ~tid:0 ~key:k ~value:entry.value
                   ~timestamp:ts);
              mirror_add_b sh ts;
              ignore (Key_lru.add sh.lru k);
              Key.Tbl.replace sh.via k `B;
              entry.aux.mstate <- M_cached sh.sid
          | M_merkle ->
              note_load ();
              let parent = arr.(j - 1) in
              ensure_room t sh ~protect:parent ();
              let installed =
                ok
                  (Verifier.add_m sh.verifier ~tid:0 ~key:k
                     ~value:entry.value ~parent)
              in
              assert (installed = None);
              ignore (Key_lru.add sh.lru k);
              Key.Tbl.replace sh.via k `M;
              Key.Tbl.replace sh.parents k parent;
              (match Key_lru.find sh.lru parent with
              | Some pe -> Key_lru.incr_children pe
              | None -> assert (Key.equal parent Key.root));
              entry.aux.mstate <- M_cached sh.sid
          | M_cached _ -> assert false)
  done;
  arr.(n - 1)

(* ------------------------------------------------------------------ *)
(* Operation processing                                                *)
(* ------------------------------------------------------------------ *)

type action = A_get of meta option | A_put of string option * meta option

exception Raced
(* The record changed protection tier between the optimistic read and the
   lock acquisition (a verification scan migrated it, §5.3's CAS races);
   the operation is retried from routing. *)

(* Fast path: the record rides the deferred tier — one CAS plus three O(1)
   log entries, no Merkle hashing (§5.3). *)
let rec blum_fast t sh key cur ts action =
  (* The evict must land in the live epoch: while a scan has the previous
     epoch sealed but still open in the verifier, a re-touch of a
     record whose timestamp predates the seal would otherwise evict back
     into the sealed epoch — an element the in-flight scan's snapshot can
     no longer balance. *)
  let clock' = Timestamp.max sh.clock (Timestamp.next ts) in
  let ts' =
    Timestamp.max clock' (Timestamp.first_of_epoch (Atomic.get t.live_epoch))
  in
  let new_v = match action with A_get _ -> cur | A_put (v, _) -> v in
  if
    Store.try_cas t.store key ~expected_aux:(aux_blum ts) new_v
      ~aux:(aux_blum ts')
  then begin
    sh.clock <- ts';
    push t sh (E_add_b (key, Value.Data cur, ts));
    (match action with
    | A_get meta -> push t sh (E_vget (key, cur, meta))
    | A_put (v, meta) -> push t sh (E_vput (key, v, meta)));
    push t sh (E_evict_b (key, ts'));
    (match action with
    | A_put (v, _) -> repl_op t ~epoch:(Timestamp.epoch ts') ~key ~value:v
    | A_get _ -> ());
    if Timestamp.epoch ts < Timestamp.epoch ts' then
      (* The touch crossed the epoch boundary (only possible while a scan
         is in flight): the [add_b] above balances the sealed epoch's
         evict of this record, and the new evict lands in the live epoch
         — so the record must re-enter the live epoch's dirty set or that
         evict would never be balanced. The shard's dirty list is
         snapshotted by the seal barrier; park the key in a leaf-locked
         side list that the next seal barrier routes back to its shard's
         snapshot. Exactly one touch per record crosses (the
         next one sees both timestamps in the live epoch). *)
      with_redeferred_lock t (fun () -> t.redeferred <- key :: t.redeferred);
    if t.config.adaptive then begin
      sh.ops_blum_e <- sh.ops_blum_e + 1;
      let b = Adaptive.bucket key in
      sh.heat.(b) <- sh.heat.(b) + 1
    end;
    Metrics.tier t.metrics Metrics.Blum;
    cur
  end
  else begin
    (* Another domain won the CAS; retry against the fresh state. *)
    t.stats.cas_retries <- t.stats.cas_retries + 1;
    Metrics.cas_retry t.metrics;
    match ok (Store.get t.store key) with
    | Some (cur', aux) when aux_is_blum aux ->
        blum_fast t sh key cur' (aux_timestamp aux) action
    | Some _ | None -> raise Raced
  end

(* Validate the client-visible operation against the cached record. *)
let client_validate t sh key cur action =
  match action with
  | A_get meta ->
      ok (Verifier.vget sh.verifier ~tid:0 ~key cur);
      gateway_receipt t ~kind:Auth.Get key cur meta;
      cur
  | A_put (v, meta) ->
      ok (Verifier.vput sh.verifier ~tid:0 ~key v);
      gateway_receipt t ~kind:Auth.Put key v meta;
      v

(* Hand the (cached, just-validated) data record to the deferred tier for the
   rest of the epoch (§6.1: touched records are hot). *)
let defer_data t sh key parent new_v =
  (* Same live-epoch floor as [blum_fast]: during a scan the deferral's
     evict may not land in the sealed epoch. *)
  let ts' =
    Timestamp.max sh.clock (Timestamp.first_of_epoch (Atomic.get t.live_epoch))
  in
  ok (Verifier.evict_bm sh.verifier ~tid:0 ~key ~timestamp:ts' ~parent);
  sh.clock <- ts';
  mark_in_blum sh parent key;
  Store.put t.store key new_v ~aux:(aux_blum ts');
  sh.dirty <- key :: sh.dirty;
  sh.dirty_len <- sh.dirty_len + 1

(* Slow path: the record is merkle-protected (first touch this epoch), or
   absent. Pays the chain from the nearest blum anchor (§6). Takes the
   shard's tree lock, then its worker lock; if the record turned
   blum-protected while we raced for the locks (another domain's first
   touch), returns [None] and the caller retries on the fast path. *)
let merkle_slow t sh key action =
  with_shard_lock t sh.sid @@ fun () ->
  let descent = Tree.descend sh.tree key in
  with_worker_lock t sh.sid @@ fun () ->
  match ok (Store.get t.store key) with
  | Some (_, aux) when aux_is_blum aux -> None
  | store_state ->
  t.stats.merkle_path <- t.stats.merkle_path + 1;
  flush_worker t sh;
  let t0 = now () in
  let loaded = ref 0 in
  let result =
    Enclave.call t.enclave (fun () ->
        match (descent.outcome, action) with
        | Tree.Exists, _ ->
            let cur, aux =
              match store_state with Some s -> s | None -> assert false
            in
            assert (Int64.equal aux aux_merkle);
            let parent = ensure_chain ~loaded t sh descent.path in
            let installed =
              ok
                (Verifier.add_m sh.verifier ~tid:0 ~key
                   ~value:(Value.Data cur) ~parent)
            in
            assert (installed = None);
            let new_v = client_validate t sh key cur action in
            defer_data t sh key parent new_v;
            (match action with
            | A_put _ ->
                repl_op t ~epoch:(Timestamp.epoch sh.clock) ~key ~value:new_v
            | A_get _ -> ());
            cur
        | (Tree.Empty_slot | Tree.Split _), A_get meta ->
            (* Non-existence proof from the pointing parent (Example 4.1). *)
            let parent = ensure_chain ~loaded t sh descent.path in
            ok (Verifier.vget_absent sh.verifier ~tid:0 ~key ~parent);
            gateway_receipt t ~kind:Auth.Get key None meta;
            None
        | Tree.Empty_slot, (A_put (_, _) as action) ->
            let parent = ensure_chain ~loaded t sh descent.path in
            let installed =
              ok
                (Verifier.add_m sh.verifier ~tid:0 ~key
                   ~value:(Value.Data None) ~parent)
            in
            (match installed with
            | Some ptr -> apply_ptr sh parent ptr
            | None -> assert false);
            let new_v = client_validate t sh key None action in
            defer_data t sh key parent new_v;
            (match action with
            | A_put _ ->
                repl_op t ~epoch:(Timestamp.epoch sh.clock) ~key ~value:new_v
            | A_get _ -> ());
            None
        | Tree.Split pointee, (A_put (_, _) as action) ->
            let parent = ensure_chain ~loaded t sh descent.path in
            (* Fabricate the internal node splitting the edge to [pointee] —
               new chain material, so the op is Merkle-tier regardless of
               cache residency. *)
            incr loaded;
            let node_key = Key.lca key pointee in
            let pn = Tree.get_exn sh.tree parent in
            let old_ptr =
              match pn.value with
              | Value.Node n -> (
                  match Value.slot n (Key.dir key ~ancestor:parent) with
                  | Some p -> p
                  | None -> assert false)
              | Value.Data _ -> assert false
            in
            assert (Key.equal old_ptr.key pointee);
            let node_value =
              Value.Node
                (Value.set_slot { left = None; right = None }
                   (Key.dir pointee ~ancestor:node_key)
                   (Some old_ptr))
            in
            ensure_room t sh ~protect:parent ();
            let installed =
              ok
                (Verifier.add_m sh.verifier ~tid:0 ~key:node_key
                   ~value:node_value ~parent)
            in
            Tree.set sh.tree node_key node_value
              ~aux:{ mstate = M_cached sh.sid; owner = -1 };
            (match installed with
            | Some ptr -> apply_ptr sh parent ptr
            | None -> assert false);
            ignore (Key_lru.add sh.lru node_key);
            Key.Tbl.replace sh.via node_key `M;
            Key.Tbl.replace sh.parents node_key parent;
            (match Key_lru.find sh.lru parent with
            | Some pe -> Key_lru.incr_children pe
            | None -> assert (Key.equal parent Key.root));
            (* If the displaced pointee is a cached merkle record, its
               pointing parent is now the new node. *)
            (if (not (Key.is_data_key pointee)) && Key_lru.mem sh.lru pointee then begin
               Key.Tbl.replace sh.parents pointee node_key;
               decr_parent_children sh parent;
               match Key_lru.find sh.lru node_key with
               | Some ne -> Key_lru.incr_children ne
               | None -> assert false
             end);
            (* Now a plain fresh insert under the new node. *)
            let installed =
              ok
                (Verifier.add_m sh.verifier ~tid:0 ~key
                   ~value:(Value.Data None) ~parent:node_key)
            in
            (match installed with
            | Some ptr -> apply_ptr sh node_key ptr
            | None -> assert false);
            let new_v = client_validate t sh key None action in
            defer_data t sh key node_key new_v;
            (match action with
            | A_put _ ->
                repl_op t ~epoch:(Timestamp.epoch sh.clock) ~key ~value:new_v
            | A_get _ -> ());
            None)
  in
  t.stats.verifier_time_s <- t.stats.verifier_time_s +. (now () -. t0);
  if t.config.adaptive then begin
    if !loaded = 0 then sh.ops_cached_e <- sh.ops_cached_e + 1
    else sh.ops_merkle_e <- sh.ops_merkle_e + 1;
    let b = Adaptive.bucket key in
    sh.heat.(b) <- sh.heat.(b) + 1
  end;
  Metrics.tier t.metrics
    (if !loaded = 0 then Metrics.Cached else Metrics.Merkle);
  Some (result, sh)

let rec process_inner t key action =
  t.stats.ops <- t.stats.ops + 1;
  (* Routing is forced by the key: each record belongs to exactly one
     shard, so a worker's log buffer only ever holds entries for its own
     partition — which is what lets a shard close and seal its own epoch
     slice without waiting for the others. *)
  let sh = t.shards.(shard_of_data_key t key) in
  match ok (Store.get t.store key) with
  | Some (cur, aux) when aux_is_blum aux -> (
      t.stats.blum_fast_path <- t.stats.blum_fast_path + 1;
      match
        with_worker_lock t sh.sid (fun () ->
            blum_fast t sh key cur (aux_timestamp aux) action)
      with
      | value -> (value, sh)
      | exception Raced ->
          t.stats.ops <- t.stats.ops - 1;
          process_inner t key action)
  | Some _ | None -> (
      match merkle_slow t sh key action with
      | Some result -> result
      | None ->
          (* lost a first-touch race; the record is deferred now *)
          t.stats.ops <- t.stats.ops - 1;
          process_inner t key action)

let process t ?(admitted = false) key action =
  (* Admission control runs up front, before any verifier mutation or log
     entry: a put with a forged client MAC or a replayed nonce is rejected
     here with the system state untouched, so one bad request cannot poison
     the epoch for everyone else (needed by the batching server).
     [admitted] skips the check for ops the dispatcher already admitted in
     arrival order on its own domain — re-running it here would burn the
     nonce twice and reject every such put as a replay. *)
  (match action with
  | A_put (v, (Some _ as meta)) when not admitted ->
      gateway_check_put t key v meta
  | A_put _ | A_get _ -> ());
  let t0 = now () in
  let ((_, sh) as result) = process_inner t key action in
  (match action with
  | A_get _ -> Metrics.get_op t.metrics
  | A_put _ -> Metrics.put_op t.metrics);
  t.stats.worker_busy_s.(sh.sid) <-
    t.stats.worker_busy_s.(sh.sid) +. (now () -. t0);
  result

(* ------------------------------------------------------------------ *)
(* Verification scan (§6.3, §8.1)                                      *)
(* ------------------------------------------------------------------ *)

let verifier_op_count t =
  Array.fold_left
    (fun acc sh ->
      let s = Verifier.stats sh.verifier in
      acc + s.n_add_m + s.n_evict_m + s.n_add_b + s.n_evict_b + s.n_evict_bm
      + s.n_vget + s.n_vput)
    0 t.shards

(* Scan slices re-take their shard's tree lock and worker lock per
   [scan_chunk]-sized chunk of work, releasing them in between so
   foreground operations interleave: the pause any single operation can
   observe is bounded by one chunk, not the whole scan. *)
let scan_chunk = 256

let adaptive_params t =
  let n = Array.length t.shards in
  {
    Adaptive.cache_budget =
      (if t.config.adaptive_cache_budget > 0 then t.config.adaptive_cache_budget
       else n * t.config.cache_capacity);
    depth_min = t.config.adaptive_depth_min;
    depth_max = t.config.adaptive_depth_max;
    hot_fraction = t.config.adaptive_hot_fraction;
    (* The floor must leave room for a full merkle chain plus [ensure_room]'s
       two slots of headroom, or a shrunken shard would refuse its own slow
       path. *)
    min_cache = max 32 (t.config.cache_capacity / 8);
  }

(* Controller step, inside the seal barrier (world lock held): snapshot this
   epoch's observations, decide, and install the plan the following scan
   executes. Scans leave caches resident, so a new capacity can land below
   the resident count; the shard then evicts down to the new headroom here,
   because an operation whose whole chain is already resident adds its
   data record without passing through [ensure_room]. *)
let adaptive_step t =
  if t.config.adaptive then begin
    let obs =
      Array.map
        (fun sh ->
          {
            Adaptive.blum_ops = sh.ops_blum_e;
            merkle_ops = sh.ops_merkle_e;
            cached_ops = sh.ops_cached_e;
            frontier_size = List.length sh.frontier;
            cache_len = Key_lru.length sh.lru;
            cache_cap = sh.cache_cap;
            depth = sh.depth;
            heat = Array.copy sh.heat;
          })
        t.shards
    in
    let plans = Adaptive.decide (adaptive_params t) obs in
    Array.iteri
      (fun i sh ->
        let p = plans.(i) in
        sh.plan <- Some p;
        sh.cache_cap <- p.Adaptive.p_cache_cap;
        Verifier.set_cache_capacity sh.verifier p.Adaptive.p_cache_cap;
        if Key_lru.length sh.lru > sh.cache_cap - 2 then
          Enclave.call t.enclave (fun () -> ensure_room t sh ());
        sh.depth <- p.Adaptive.p_depth;
        Adaptive.decay sh.heat;
        sh.ops_blum_e <- 0;
        sh.ops_merkle_e <- 0;
        sh.ops_cached_e <- 0)
      t.shards;
    Metrics.adaptive_retune t.metrics
  end

(* One shard's slice of the verification scan: sorted dirty re-apply,
   frontier retune and frontier migration. Because routing confines every
   record — and therefore every buffered log entry — to its own shard, the
   epoch close and seal also ride the slice ([close_and_seal_shard] below):
   a shard certifies its partition the moment its own migration finishes,
   without waiting for the others. Only the store-level multiset fold
   remains serial.

   The world is live: the slice chunks its way through the sealed snapshot
   under its shard's tree + worker locks (the same order [merkle_slow]
   takes, so no deadlock), racing foreground fast-path CASes on the store;
   migration therefore claims each dirty record by CAS, and a record whose
   touch already carried it into the live epoch is skipped (the toucher's
   [add_b] balanced this epoch, and the seal parked the key for the next).
   Cached merkle records stay resident: a record cached in epoch [e]
   contributes nothing further to [e] (its add already balanced the evict
   that made it cached), and its own eventual eviction lands at the
   live-epoch floor, balanced by that epoch's scan. *)
let scan_shard t ~epoch sh dirty =
  let migrated_data = ref 0 and migrated_frontier = ref 0 in
  let chunked len f =
    let i = ref 0 in
    while !i < len do
      let hi = min len (!i + scan_chunk) in
      with_shard_lock t sh.sid (fun () ->
          with_worker_lock t sh.sid (fun () ->
              (* Drain buffered foreground entries before any direct
                 verifier call: their evict timestamps predate ours, and
                 the thread clock only moves forward. *)
              flush_worker t sh;
              Enclave.call t.enclave (fun () -> f !i hi)));
      i := hi
    done
  in
  (* 1. Sorted merkle updates: re-apply every touched data record to the
     tree in key order, exploiting chain-prefix locality (the snapshot
     array is sorted in place — no per-node allocation). Duplicates cannot
     arise today (a dirty key is blum-protected and re-touches take the
     fast path), but the sorted pass skips adjacent equals so a duplicate
     could never double-migrate. *)
  if t.config.sorted_migration then Array.sort Key.compare dirty;
  let plan = if t.config.adaptive then sh.plan else None in
  let carry_budget =
    ref (match plan with Some p -> p.Adaptive.p_hot_budget | None -> 0)
  in
  let promoted = ref 0 and demoted = ref 0 in
  let rec migrate_dirty key =
    match ok (Store.get t.store key) with
    | Some (v, aux) when aux_is_blum aux -> (
        let ts = aux_timestamp aux in
        if Timestamp.epoch ts > epoch then
          (* Re-touched across the seal while this scan was in flight: the
             toucher's [add_b] balanced this epoch's evict and its key is
             parked for the next seal. Nothing to do here. *)
          ()
        else
          let carry =
            match plan with
            | Some p when !carry_budget > 0 ->
                Adaptive.should_carry p
                  ~heat:sh.heat.(Adaptive.bucket key)
                  ~already_hot:(Key.Tbl.mem sh.hot key)
            | Some _ | None -> false
          in
          if carry then begin
            (* Hot carry: keep the record in the deferred tier across the
               boundary instead of migrating it back to merkle, so its next
               touches stay on the fast path. Same balance as a fast-path
               epoch crossing: the [add_b] at [ts] squares the sealed
               epoch's evict, the fresh evict lands in the live epoch, and
               re-entering the dirty list guarantees the next scan balances
               that one in turn. *)
            let ts' =
              Timestamp.max
                (Timestamp.max sh.clock (Timestamp.next ts))
                (Timestamp.first_of_epoch (epoch + 1))
            in
            if
              not
                (Store.try_cas t.store key ~expected_aux:aux v
                   ~aux:(aux_blum ts'))
            then migrate_dirty key
            else begin
              ensure_room t sh ();
              ok
                (Verifier.add_b sh.verifier ~tid:0 ~key ~value:(Value.Data v)
                   ~timestamp:ts);
              mirror_add_b sh ts;
              ok (Verifier.evict_b sh.verifier ~tid:0 ~key ~timestamp:ts');
              sh.clock <- ts';
              sh.dirty <- key :: sh.dirty;
              sh.dirty_len <- sh.dirty_len + 1;
              decr carry_budget;
              if not (Key.Tbl.mem sh.hot key) then begin
                Key.Tbl.replace sh.hot key ();
                incr promoted
              end;
              incr migrated_data
            end
          end
          else if
            not (Store.try_cas t.store key ~expected_aux:aux v ~aux:aux_merkle)
          then
            (* A foreground fast-path CAS slipped in between our read and
               ours; re-read — it either stayed in the sealed epoch (retry
               the claim) or crossed into the live one (skip, above). *)
            migrate_dirty key
          else begin
            (* Claimed: the store says merkle, so any racing fast path now
               fails its CAS and falls through to [merkle_slow], which
               blocks on the shard's tree lock until this chunk completes. *)
            let descent = Tree.descend sh.tree key in
            assert (descent.outcome = Tree.Exists);
            let parent = ensure_chain t sh descent.path in
            ensure_room t sh ~protect:parent ();
            ok
              (Verifier.add_b sh.verifier ~tid:0 ~key ~value:(Value.Data v)
                 ~timestamp:ts);
            mirror_add_b sh ts;
            let ptr = ok (Verifier.evict_m sh.verifier ~tid:0 ~key ~parent) in
            apply_ptr sh parent ptr;
            if Key.Tbl.mem sh.hot key then begin
              Key.Tbl.remove sh.hot key;
              incr demoted
            end;
            incr migrated_data
          end)
    | Some _ | None ->
        raise (Integrity_violation "dirty record not in blum state")
  in
  chunked (Array.length dirty) (fun lo hi ->
      for i = lo to hi - 1 do
        let key = dirty.(i) in
        if not (i > 0 && Key.equal key dirty.(i - 1)) then migrate_dirty key
      done);
  (* 1b. Frontier retune (adaptive): diff the current cut against the
     depth-[p_depth] cut of today's tree and migrate membership toward it.
     Promotions run the trusted-load procedure (chain in, [evict_bm] into
     the live epoch); demotions reverse it ([add_b] squaring the sealed
     epoch, [evict_m] back to a plain merkle pointer — which also clears
     the parent's in-blum mark). A member that is currently cached, or
     whose timestamp already crossed into the live epoch, is skipped and
     retried at the next seal; convergence over a few epochs is the point,
     not a liability — it bounds per-scan work and doubles as hysteresis. *)
  (match plan with
  | Some p ->
      let demote = ref [||] and promote = ref [||] in
      chunked 1 (fun _ _ ->
          let cut = Tree.frontier sh.tree ~levels:p.Adaptive.p_depth in
          let in_cut = Key.Tbl.create 64 in
          List.iter (fun k -> Key.Tbl.replace in_cut k ()) cut;
          demote :=
            Array.of_list
              (List.filter (fun f -> not (Key.Tbl.mem in_cut f)) sh.frontier);
          promote :=
            Array.of_list
              (List.filter
                 (fun k ->
                   (not (Key.equal k Key.root))
                   && (Tree.get_exn sh.tree k).aux.owner < 0)
                 cut));
      chunked (Array.length !demote) (fun lo hi ->
          for i = lo to hi - 1 do
            let f = !demote.(i) in
            let entry = Tree.get_exn sh.tree f in
            match entry.aux.mstate with
            | M_blum ts
              when Timestamp.epoch ts <= epoch && not (Key_lru.mem sh.lru f)
              ->
                let descent = Tree.descend sh.tree f in
                assert (descent.outcome = Tree.Exists);
                let parent = ensure_chain t sh descent.path in
                ensure_room t sh ~protect:parent ();
                ok
                  (Verifier.add_b sh.verifier ~tid:0 ~key:f
                     ~value:entry.value ~timestamp:ts);
                mirror_add_b sh ts;
                let ptr =
                  ok (Verifier.evict_m sh.verifier ~tid:0 ~key:f ~parent)
                in
                apply_ptr sh parent ptr;
                entry.aux.mstate <- M_merkle;
                entry.aux.owner <- -1;
                sh.frontier <-
                  List.filter (fun k -> not (Key.equal k f)) sh.frontier;
                incr migrated_frontier
            | M_blum _ | M_cached _ -> ()
            | M_merkle -> assert false
          done);
      chunked (Array.length !promote) (fun lo hi ->
          for i = lo to hi - 1 do
            let g = !promote.(i) in
            let entry = Tree.get_exn sh.tree g in
            match entry.aux.mstate with
            | M_merkle ->
                let descent = Tree.descend sh.tree g in
                assert (descent.outcome = Tree.Exists);
                let parent = ensure_chain t sh descent.path in
                ensure_room t sh ~protect:parent ();
                let installed =
                  ok
                    (Verifier.add_m sh.verifier ~tid:0 ~key:g
                       ~value:entry.value ~parent)
                in
                assert (installed = None);
                let ts' =
                  Timestamp.max sh.clock
                    (Timestamp.first_of_epoch (epoch + 1))
                in
                ok
                  (Verifier.evict_bm sh.verifier ~tid:0 ~key:g ~timestamp:ts'
                     ~parent);
                sh.clock <- ts';
                mark_in_blum sh parent g;
                entry.aux.mstate <- M_blum ts';
                entry.aux.owner <- sh.sid;
                sh.frontier <- g :: sh.frontier;
                incr migrated_frontier
            | M_blum _ | M_cached _ ->
                (* Resident on some chain right now (or already carried into
                   the live epoch); retried at the next seal. *)
                ()
          done)
  | None -> ());
  Metrics.adaptive_promotions t.metrics !promoted;
  Metrics.adaptive_demotions t.metrics !demoted;
  (* 2. Migrate this shard's frontier merkle records that were not touched
     (still in the deferred tier) to the next epoch. *)
  let frontier = Array.of_list sh.frontier in
  chunked (Array.length frontier) (fun lo hi ->
      for i = lo to hi - 1 do
        let f = frontier.(i) in
        let entry = Tree.get_exn sh.tree f in
        match entry.aux.mstate with
        | M_blum ts when Timestamp.epoch ts <= epoch ->
            ensure_room t sh ();
            ok
              (Verifier.add_b sh.verifier ~tid:0 ~key:f ~value:entry.value
                 ~timestamp:ts);
            mirror_add_b sh ts;
            let ts' =
              Timestamp.max sh.clock (Timestamp.first_of_epoch (epoch + 1))
            in
            ok (Verifier.evict_b sh.verifier ~tid:0 ~key:f ~timestamp:ts');
            sh.clock <- ts';
            entry.aux.mstate <- M_blum ts';
            incr migrated_frontier
        | M_blum _ ->
            (* Already carried into the live epoch by a mid-scan cache
               eviction; the next scan migrates it. *)
            ()
        | M_cached sid ->
            (* Cached this epoch: a later capacity eviction at the
               live-epoch floor moves it into a later epoch. Only ever
               cached by its own shard (routing is forced by key). *)
            assert (sid = sh.sid)
        | M_merkle -> assert false
      done);
  (!migrated_data, !migrated_frontier)

(* Per-shard epoch close + seal, at the tail of each shard's own slice
   (routing confines a shard's log entries to its own partition, so a
   shard may certify the moment its migration finishes). The shard's worker
   lock is held just long enough to flush its buffer, close the epoch,
   detach its set hashes and seal; afterwards the store-level aggregation
   reads only the returned fold, never thread state that foreground traffic
   keeps mutating. *)
let close_and_seal_shard t ~epoch sh =
  with_worker_lock t sh.sid @@ fun () ->
  flush_worker t sh;
  let fold =
    Enclave.call t.enclave (fun () ->
        ok (Verifier.close_epoch sh.verifier ~tid:0 ~epoch);
        let detached =
          [| ok (Verifier.detach_epoch sh.verifier ~tid:0 ~epoch) |]
        in
        let _shard_cert, fold =
          ok
            (Verifier.seal_epoch_shard sh.verifier ~shard:sh.sid ~epoch
               ~detached)
        in
        fold)
  in
  sh.clock <- Timestamp.max sh.clock (Timestamp.first_of_epoch (epoch + 1));
  fold

(* The verification scan (§6.3, §8.1), run on the calling domain. The world
   stops only for the {e seal barrier} — flush every log buffer, snapshot
   every dirty set, route the parked epoch-crossing keys, bump the live
   epoch — after which foreground gets/puts resume immediately against
   epoch [e+1] while the per-shard slices migrate epoch [e] underneath
   them, fanned out over real domains when there are several shards
   (§8.5).

   Each slice ends by closing and sealing its own shard's epoch
   ([close_and_seal_shard]); the serial tail is only the store-level
   multiset fold over the per-shard values plus one HMAC. The fold is
   order-independent, so the aggregated certificate is bit-identical
   whether one shard or N produced it — and identical to the certificate a
   single unsharded verifier would sign.

   The caller must hold [verify_mutex]. Returns [(epoch, certificate)]. *)
let verify_inner t =
  let t0 = now () in
  let charged0 = Enclave.charged_ns t.enclave in
  let vops0 = verifier_op_count t in
  let touched0 = t.stats.migrated_data + t.stats.migrated_frontier in
  Atomic.set t.verify_inflight true;
  Metrics.verify_in_flight t.metrics 1;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.verify_inflight false;
      Metrics.verify_in_flight t.metrics 0)
  @@ fun () ->
  (* ---- Seal barrier: O(shards) under the world lock. ---- *)
  lock_world t;
  let seal () =
    let epoch = Verifier.current_epoch t.shards.(0).verifier in
    Array.iter (flush_worker t) t.shards;
    let dirty_lists =
      Array.map
        (fun sh ->
          let d = sh.dirty in
          sh.dirty <- [];
          sh.dirty_len <- 0;
          d)
        t.shards
    in
    (* Keys whose fast-path touch crossed the previous boundary belong to
       this epoch's dirty sets; route each to its shard's snapshot. *)
    List.iter
      (fun k ->
        let sid = shard_of_data_key t k in
        dirty_lists.(sid) <- k :: dirty_lists.(sid))
      (with_redeferred_lock t (fun () ->
           let r = t.redeferred in
           t.redeferred <- [];
           r));
    (* Adaptive controller: decide and install the next epoch's plan from
       this epoch's observations, atomically with the boundary — the scan
       below executes it. *)
    adaptive_step t;
    (* From here on, operations fold into the next epoch. *)
    Atomic.set t.live_epoch (epoch + 1);
    Atomic.set t.ops_since_verify 0;
    (epoch, Array.map Array.of_list dirty_lists)
  in
  let epoch, dirty = Fun.protect ~finally:(fun () -> unlock_world t) seal in
  Metrics.verify_pause t.metrics ~seconds:(now () -. t0);
  let cert =
    let n = Array.length t.shards in
    let results = Array.make n (0, 0) in
    let folds = Array.make n ("", "") in
    let failures = Array.make n None in
    let slice sid () =
      let sh = t.shards.(sid) in
      let tw = now () in
      (match
         let r = scan_shard t ~epoch sh dirty.(sid) in
         let fold = close_and_seal_shard t ~epoch sh in
         (r, fold)
       with
      | r, fold ->
          results.(sid) <- r;
          folds.(sid) <- fold
      | exception e -> failures.(sid) <- Some e);
      let dt = now () -. tw in
      t.stats.worker_busy_s.(sid) <- t.stats.worker_busy_s.(sid) +. dt;
      Metrics.verify_shard t.metrics ~sid ~seconds:dt
    in
    (* Dispatch the slices over at most [recommended_domain_count]
       domains: spawning one domain per shard on a machine with fewer
       cores makes the domains time-share, which both adds scheduler
       overhead and corrupts the per-slice wall-clock accounting (each
       slice's elapsed time would absorb the others' work). Each lane
       drains a strided subset of shards sequentially; lane 0 runs on
       the coordinator domain. Failures are collected per shard and
       re-raised only after every domain has joined, so a tampering
       detection on one partition never leaves another domain running
       unsupervised. *)
    let lanes = min n (Domain.recommended_domain_count ()) in
    let lane l () =
      let sid = ref l in
      while !sid < n do
        slice !sid ();
        sid := !sid + lanes
      done
    in
    (if lanes = 1 then lane 0 ()
     else begin
       let domains =
         Array.init (lanes - 1) (fun i -> Domain.spawn (lane (i + 1)))
       in
       lane 0 ();
       Array.iter Domain.join domains
     end);
    Array.iter (function Some e -> raise e | None -> ()) failures;
    Array.iter
      (fun (d, f) ->
        t.stats.migrated_data <- t.stats.migrated_data + d;
        t.stats.migrated_frontier <- t.stats.migrated_frontier + f)
      results;
    (* Serial tail: fold every shard's detached set-hash values into
       the store-level accumulators and sign the epoch certificate. The
       per-shard balance checks already ran inside the slices; this is
       O(shards) multiset merges plus one HMAC — the only inherently
       serial work left in a scan. *)
    let ts = now () in
    let cert =
      Enclave.call t.enclave (fun () ->
          match
            Verifier.aggregate_epoch_certificate
              ~mset_secret:t.config.mset_secret
              ~mac_secret:t.config.mac_secret ~epoch
              ~folds:(Array.to_list folds)
          with
          | Ok c -> c
          | Error e -> raise (Integrity_violation e))
    in
    t.stats.serial_s <- t.stats.serial_s +. (now () -. ts);
    cert
  in
  (* Epoch-boundary record for replication followers: emitted after the
     scan proved the epoch balanced, in epoch order ([verify_mutex]
     serializes scans). Every op teed with this epoch tag preceded the
     seal barrier above, so followers hold the full epoch when this
     record reaches them. *)
  repl_seal t ~epoch ~cert;
  (* Account the enclave crossings this scan would have cost: its verifier
     calls stream through log buffers in a real deployment. *)
  let vops = verifier_op_count t - vops0 in
  Enclave.charge_transitions t.enclave (vops / t.config.log_buffer_size);
  let elapsed =
    now () -. t0
    +. Int64.to_float (Int64.sub (Enclave.charged_ns t.enclave) charged0)
       /. 1e9
  in
  t.stats.verifies <- t.stats.verifies + 1;
  t.stats.last_verify_latency_s <- elapsed;
  t.stats.verify_time_s <- t.stats.verify_time_s +. elapsed;
  t.stats.verifier_time_s <- t.stats.verifier_time_s +. (now () -. t0);
  Metrics.verify_scan t.metrics ~seconds:elapsed
    ~touched:(t.stats.migrated_data + t.stats.migrated_frontier - touched0);
  (epoch, cert)

(* Cold-tier maintenance rides the verification cadence: right after a scan
   every record's aux is freshly installed, so demotion moves settled
   versions, and the records just migrated to merkle are exactly the cooling
   ones. Runs outside [verify_mutex] (demotion flips bodies under stripe
   locks, safe against live traffic) but under [cold_lock] so two scans
   finishing close together don't compact concurrently. Maintenance errors
   are soft — the tier degrades to serving what it has and the next cycle
   retries — but injected crash faults propagate (the crash tests need the
   exception to escape). *)
let cold_maintain t =
  match t.cold with
  | None -> ()
  | Some _ ->
      with_cold_lock t (fun () ->
          (match Store.demote_now t.store ~budget:t.config.cold_threshold with
          | Ok _ -> ()
          | Error e -> Logs.warn (fun m -> m "cold demotion: %s" e));
          match
            Store.compact_cold t.store
              ~min_dead_ratio:t.config.cold_gc_ratio
          with
          | Ok _ -> ()
          | Error e -> Logs.warn (fun m -> m "cold compaction: %s" e))

let verify_epoch t =
  let pair = with_lock t.verify_mutex (fun () -> verify_inner t) in
  cold_maintain t;
  (* post-verification hooks (auto-checkpoint) run outside the locks: they
     re-enter the public API *)
  (match t.on_verified with Some hook -> hook () | None -> ());
  pair

let verify t = snd (verify_epoch t)

let maybe_verify t =
  if
    Atomic.fetch_and_add t.ops_since_verify 1 + 1 >= t.config.batch_size
    && t.config.batch_size > 0
  then ignore (verify t)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let check_loaded t =
  if not t.loaded then invalid_arg "Fastver: call load before operating"

let data_key k =
  if not (Key.is_data_key k) then invalid_arg "Fastver: not a data key";
  k

(* Admission for external dispatchers: validate and consume a put's client
   MAC + nonce in arrival order on the dispatching domain, then process the
   op (with [~admitted:true]) on any executor. Splitting admission from
   execution is what keeps per-client nonce monotonicity exact when batches
   execute concurrently. *)
let admit_put t ~client ~nonce ~mac ~key ~value =
  check_loaded t;
  let meta = Some (mk_meta ~client ~nonce ~mac) in
  match gateway_check_put t (data_key (Key.of_int64 key)) value meta with
  | () -> Ok ()
  | exception Integrity_violation e -> Error e

let get_key t k =
  check_loaded t;
  t.stats.gets <- t.stats.gets + 1;
  let v, _ = process t (data_key k) (A_get None) in
  maybe_verify t;
  v

let put_key t k v =
  check_loaded t;
  t.stats.puts <- t.stats.puts + 1;
  ignore (process t (data_key k) (A_put (Some v, None)));
  maybe_verify t

let delete_key t k =
  check_loaded t;
  t.stats.puts <- t.stats.puts + 1;
  ignore (process t (data_key k) (A_put (None, None)));
  maybe_verify t

let get t k = get_key t (Key.of_int64 k)

let put t k v = put_key t (Key.of_int64 k) v
let delete t k = delete_key t (Key.of_int64 k)

let scan t k len =
  check_loaded t;
  t.stats.scans <- t.stats.scans + 1;
  Metrics.scan_op t.metrics;
  Array.init len (fun i ->
      let ki = Int64.add k (Int64.of_int i) in
      t.stats.gets <- t.stats.gets + 1;
      let v, _ = process t (Key.of_int64 ki) (A_get None) in
      maybe_verify t;
      (ki, v))

let check_epoch_certificate t ~epoch cert =
  Fastver_crypto.Hmac.verify ~key:t.config.mac_secret
    (Verifier.epoch_certificate_message ~epoch)
    ~tag:cert

(* ------------------------------------------------------------------ *)
(* Trusted load                                                        *)
(* ------------------------------------------------------------------ *)

let load t records =
  if t.loaded then invalid_arg "Fastver.load: already loaded";
  let n_sh = Array.length t.shards in
  let keyed = Array.map (fun (k, v) -> (Key.of_int64 k, v)) records in
  (* Range boundaries from key quantiles, so shards start balanced on the
     loaded distribution. Duplicate quantiles (tiny loads) just leave some
     shards empty — routing stays total either way. *)
  let sorted = Array.copy keyed in
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) sorted;
  let len = Array.length sorted in
  t.boundaries <-
    (if len = 0 then synth_boundaries n_sh
     else Array.init (n_sh - 1) (fun i -> fst sorted.((i + 1) * len / n_sh)));
  let buckets = Array.make n_sh [] in
  Array.iter
    (fun (k, v) ->
      let sid = shard_of_data_key t k in
      buckets.(sid) <- (k, Value.Data (Some v)) :: buckets.(sid))
    keyed;
  Array.iter (fun (k, v) -> Store.put t.store k (Some v) ~aux:aux_merkle) keyed;
  Array.iter
    (fun sh ->
      Tree.bulk_build sh.tree ~algo:t.config.algo
        ~aux:(fun _ _ -> { mstate = M_merkle; owner = -1 })
        (Array.of_list buckets.(sh.sid));
      (maux sh Key.root).mstate <- M_cached sh.sid;
      ok
        (Verifier.install_root sh.verifier
           (Tree.get_exn sh.tree Key.root).value))
    t.shards;
  t.loaded <- true;
  (* Push each shard's depth-d frontier into the deferred tier (§6.2), on
     that shard's own verifier thread. *)
  Array.iter
    (fun sh ->
      sh.depth <- t.config.frontier_levels;
      let frontier =
        Tree.frontier sh.tree ~levels:t.config.frontier_levels
        |> List.filter (fun k -> not (Key.equal k Key.root))
        |> List.sort Key.compare
      in
      Enclave.call t.enclave (fun () ->
          List.iter
            (fun f ->
              let entry = Tree.get_exn sh.tree f in
              entry.aux.owner <- sh.sid;
              sh.frontier <- f :: sh.frontier;
              let descent = Tree.descend sh.tree f in
              assert (descent.outcome = Tree.Exists);
              let parent = ensure_chain t sh descent.path in
              ensure_room t sh ~protect:parent ();
              let installed =
                ok
                  (Verifier.add_m sh.verifier ~tid:0 ~key:f
                     ~value:entry.value ~parent)
              in
              assert (installed = None);
              let ts' = sh.clock in
              ok
                (Verifier.evict_bm sh.verifier ~tid:0 ~key:f ~timestamp:ts'
                   ~parent);
              mark_in_blum sh parent f;
              entry.aux.mstate <- M_blum ts')
            frontier;
          (* Clear the chain nodes so every shard starts symmetric. *)
          while Key_lru.length sh.lru > 0 do
            match Key_lru.victim sh.lru with
            | Some e -> evict_mirror t sh e ~epoch_floor:0
            | None -> assert false
          done))
    t.shards

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

let run_ops t gen n =
  let open Fastver_workload in
  let i = ref 0 in
  while !i < n do
    (match Ycsb.next gen with
    | Ycsb.Read k ->
        ignore (get t k);
        incr i
    | Ycsb.Update (k, v) ->
        put t k v;
        incr i
    | Ycsb.Scan (k, len) ->
        ignore (scan t k len);
        i := !i + len)
  done

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type session = {
    sys : t;
    client_id : int;
    auth : Auth.key;
    mutable nonce : int64;
  }

  let connect t ~client_id =
    { sys = t; client_id; auth = Auth.key_of_secret t.config.mac_secret; nonce = 0L }

  type 'v receipt = { value : 'v; nonce : int64; epoch : int; mac : string }

  let take_receipt s sh meta ~kind ~key ~value ~nonce =
    (* The op's receipt cell fills when its log entry flushes; flushing under
       the shard's worker lock also orders any cell write made by a
       concurrent domain's scan before this read. *)
    with_worker_lock s.sys sh.sid (fun () -> flush_worker s.sys sh);
    match !(meta.receipt) with
    | None -> raise (Integrity_violation "missing validation receipt")
    | Some (mac, epoch) ->
        let expected =
          Auth.receipt s.auth ~kind ~client:s.client_id ~nonce key value ~epoch
        in
        if not (Auth.check ~expected mac) then
          raise (Integrity_violation "result MAC check failed");
        (mac, epoch)

  let get s k =
    check_loaded s.sys;
    s.nonce <- Int64.succ s.nonce;
    let nonce = s.nonce in
    let key = Key.of_int64 k in
    s.sys.stats.gets <- s.sys.stats.gets + 1;
    let meta = mk_meta ~client:s.client_id ~nonce ~mac:"" in
    let value, sh = process s.sys key (A_get (Some meta)) in
    let mac, epoch = take_receipt s sh meta ~kind:Auth.Get ~key ~value ~nonce in
    maybe_verify s.sys;
    { value; nonce; epoch; mac }

  let put s k v =
    check_loaded s.sys;
    s.nonce <- Int64.succ s.nonce;
    let nonce = s.nonce in
    let key = Key.of_int64 k in
    s.sys.stats.puts <- s.sys.stats.puts + 1;
    let mac = Auth.put_request s.auth ~client:s.client_id ~nonce key v in
    let meta = mk_meta ~client:s.client_id ~nonce ~mac in
    let _, sh = process s.sys key (A_put (Some v, Some meta)) in
    let mac, epoch =
      take_receipt s sh meta ~kind:Auth.Put ~key ~value:(Some v) ~nonce
    in
    maybe_verify s.sys;
    { value = (); nonce; epoch; mac }

  let await_certainty s r =
    while verified_epoch s.sys < r.epoch do
      (* [verify_epoch] reports which epoch the certificate covers — reading
         the verifier's current epoch separately would race a concurrent
         scan and check the certificate against the wrong
         epoch. *)
      let epoch, cert = verify_epoch s.sys in
      if not (check_epoch_certificate s.sys ~epoch cert) then
        raise (Integrity_violation "bad epoch certificate")
    done
end

(* ------------------------------------------------------------------ *)
(* Batch submission (network serving path)                             *)
(* ------------------------------------------------------------------ *)

module Batch = struct
  type op =
    | Get of { client : int; nonce : int64; key : int64 }
    | Put of { client : int; nonce : int64; mac : string; key : int64;
               value : string option }
    | Scan of { client : int; nonce : int64; start : int64; len : int }

  type item = {
    ikey : int64;
    ivalue : string option;
    mutable iepoch : int;
    mutable imac : string;
  }

  type reply =
    | Got of item
    | Put_done of item
    | Scanned of item array
    | Failed of string

  (* One elementary validated operation (a scan of length n is n of them),
     waiting for its receipt cell to fill when its log entry flushes. *)
  type pending = { p_meta : meta option; p_item : item; p_op : int }

  let submit ?(pre_admitted = false) t ops =
    check_loaded t;
    let auth = t.config.authenticate_clients in
    let n = Array.length ops in
    let errors = Array.make n None in
    let pendings = ref [] (* newest first *) in
    let meta_of ~client ~nonce ~mac =
      if auth then Some (mk_meta ~client ~nonce ~mac) else None
    in
    let touched = Array.make (Array.length t.shards) false in
    let one i action ~client ~nonce ~mac key =
      let meta = meta_of ~client ~nonce ~mac in
      let returned, sh =
        process t ~admitted:pre_admitted
          (data_key (Key.of_int64 key))
          (match action with
          | `Get -> A_get meta
          | `Put v -> A_put (v, meta))
      in
      touched.(sh.sid) <- true;
      (* what the receipt MAC covers: the read value for gets, the new
         value for puts (process returns the overwritten value) *)
      let value = match action with `Get -> returned | `Put v -> v in
      let item = { ikey = key; ivalue = value; iepoch = 0; imac = "" } in
      pendings := { p_meta = meta; p_item = item; p_op = i } :: !pendings;
      maybe_verify t;
      item
    in
    let replies =
      Array.mapi
        (fun i op ->
          match op with
          | Get { client; nonce; key } -> (
              t.stats.gets <- t.stats.gets + 1;
              match one i `Get ~client ~nonce ~mac:"" key with
              | item -> Got item
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e)
          | Put { client; nonce; mac; key; value } -> (
              t.stats.puts <- t.stats.puts + 1;
              match one i (`Put value) ~client ~nonce ~mac key with
              | item -> Put_done item
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e)
          | Scan { client; nonce; start; len } -> (
              t.stats.scans <- t.stats.scans + 1;
              Metrics.scan_op t.metrics;
              let items = ref [] in
              match
                for j = 0 to len - 1 do
                  t.stats.gets <- t.stats.gets + 1;
                  let k = Int64.add start (Int64.of_int j) in
                  items := one i `Get ~client ~nonce ~mac:"" k :: !items
                done
              with
              | () -> Scanned (Array.of_list (List.rev !items))
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e))
        ops
    in
    (* One drain per shard this batch actually ran on covers every receipt:
       this is where the enclave-transition amortisation happens (§7) —
       and flushing only touched shards means a batch confined to one
       partition never blocks on another partition's (possibly stalled)
       executor. A violation here is real tampering surfacing on a deferred
       validation; ops whose receipts never materialise are failed below. *)
    let flush_error =
      match
        Array.iteri
          (fun sid sh ->
            if touched.(sid) then
              with_worker_lock t sid (fun () -> flush_worker t sh))
          t.shards
      with
      | () -> None
      | exception Integrity_violation e -> Some e
    in
    (if auth then
       (* Live epoch, not the verifier's: a scan keeps the sealed
          epoch open in the verifier while these ops folded into the live
          one; a later fallback stamp is merely conservative. *)
       let fallback_epoch = Atomic.get t.live_epoch in
       List.iter
         (fun p ->
           (* The flush above took every touched shard's worker lock, which
              also orders any receipt-cell write made by a concurrent
              domain's verification scan before these reads. *)
           match p.p_meta with
           | None -> assert false
           | Some m -> (
               match !(m.receipt) with
               | Some (mac, epoch) ->
                   p.p_item.imac <- mac;
                   p.p_item.iepoch <- epoch
               | None ->
                   p.p_item.iepoch <- fallback_epoch;
                   if errors.(p.p_op) = None then
                     errors.(p.p_op) <-
                       Some
                         (Option.value flush_error
                            ~default:"validation receipt missing")))
         !pendings
     else
       let epoch = Atomic.get t.live_epoch in
       List.iter (fun p -> p.p_item.iepoch <- epoch) !pendings);
    Array.mapi
      (fun i reply ->
        match errors.(i) with Some e -> Failed e | None -> reply)
      replies
end

(* ------------------------------------------------------------------ *)
(* Durability (§7)                                                     *)
(* ------------------------------------------------------------------ *)

let data_file = "data.ckpt"
let sealed_file = "verifier.sealed"
let tpm_file = "tpm.state"

(* One merkle image per shard: untrusted files; tampering surfaces as
   verification failures after recovery. *)
let shard_tree_file sid = Printf.sprintf "merkle-%d.tree" sid

(* Present only when a cold tier is configured; checksummed by the MANIFEST
   like every other component. Written after the data checkpoint so every
   cold reference the data file holds points at a segment the manifest
   commits. *)
let cold_manifest_file = "cold.manifest"

(* Checkpoints are versioned generations [dir/ckpt-<n>/] holding the
   component files plus a MANIFEST with the SHA-256 of each. Every file —
   the manifest included — is written temp-file + fsync + rename
   ({!Ckpt_io}), and the manifest is written last, so the manifest's
   presence-and-validity is the generation's commit point: a crash at any
   byte offset leaves either a committed generation (old or new) or a torn
   one that recovery can recognise and discard.

   The shard count lives in the sealed payload, so the static component
   check below names only the shard-count-independent files; the per-shard
   tree files are still checksummed by the manifest (its [verify] covers
   every entry), and a missing one surfaces as a read failure during
   recovery of a generation whose manifest vouches for it — Tampered by
   construction. *)
let static_component_files = [ data_file; sealed_file; tpm_file ]

(* A generation commits only when its manifest lists every component file,
   records the directory's own generation number, and every checksum
   verifies. The two failure modes are not interchangeable:

   [Torn] — no manifest, or one that doesn't parse. Components are fsync'd
   and renamed before the manifest commits, so this is what a crash leaves
   behind; the generation never happened and is safe to delete and skip.

   [Tampered] — a well-formed manifest whose claims don't hold: a checksum
   or size mismatch, a missing component entry, or a generation number that
   disagrees with the [ckpt-<n>] directory name. No crash can produce this
   (the manifest only ever commits over fully-synced components), so it
   implies tampering or corruption and must be surfaced, never silently
   skipped — deleting it and falling back would hand an adversary a
   one-bit-flip rollback primitive and destroy the evidence. *)
type generation_status = Committed | Torn of string | Tampered of string

let classify_generation ~number gdir =
  match Ckpt_io.Manifest.read ~dir:gdir with
  | Error e -> Torn e
  | Ok m ->
      if m.Ckpt_io.Manifest.generation <> number then
        Tampered
          (Printf.sprintf "manifest records generation %d"
             m.Ckpt_io.Manifest.generation)
      else if
        not
          (List.for_all
             (fun name ->
               List.exists
                 (fun e -> e.Ckpt_io.Manifest.name = name)
                 m.Ckpt_io.Manifest.entries)
             static_component_files)
      then Tampered "manifest missing a component file"
      else
        match Ckpt_io.Manifest.verify ~dir:gdir m with
        | Ok () -> Committed
        | Error e -> Tampered e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Internal: aborts a checkpoint attempt with an [Error], leaving the new
   generation uncommitted (no manifest was written, so recovery classifies
   the directory as torn and the previous generation stays authoritative). *)
exception Ckpt_error of string

let mstate_encode buf st ~is_root =
  match st with
  | M_merkle -> Buffer.add_char buf 'm'
  | M_blum ts ->
      Buffer.add_char buf 'b';
      Buffer.add_string buf (Timestamp.encode ts)
  | M_cached _ when is_root -> Buffer.add_char buf 'm' (* re-pinned on recover *)
  | M_cached _ -> raise (Ckpt_error "checkpoint: record still cached")

(* Sealed-payload layout (version 2, sharded):
     u64  nonce_blob length
     ...  nonce blob (16 bytes per client: u64 client, u64 last nonce)
     8    magic "FVSHARD1"
     u64  shard count
     ...  (shards - 1) range boundaries, 34 bytes each (Key.encode)
     per shard: u64 summary length, then the shard verifier's summary
   The boundaries and shard count ride the *sealed* (trusted,
   rollback-protected) payload because routing is integrity-critical: a
   host free to re-aim routing could ask the wrong shard for an absence
   proof of a key the right shard holds. *)
let shard_magic = "FVSHARD1"

let encode_sealed_payload t ~summaries =
  let nonce_blob =
    let buf = Buffer.create 64 in
    Hashtbl.iter
      (fun client nonce ->
        Buffer.add_string buf
          (Fastver_crypto.Bytes_util.string_of_u64_le (Int64.of_int client));
        Buffer.add_string buf (Fastver_crypto.Bytes_util.string_of_u64_le nonce))
      t.nonces;
    Buffer.contents buf
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fastver_crypto.Bytes_util.string_of_u64_le
       (Int64.of_int (String.length nonce_blob)));
  Buffer.add_string buf nonce_blob;
  Buffer.add_string buf shard_magic;
  Buffer.add_string buf
    (Fastver_crypto.Bytes_util.string_of_u64_le
       (Int64.of_int (Array.length t.shards)));
  Array.iter (fun b -> Buffer.add_string buf (Key.encode b)) t.boundaries;
  Array.iter
    (fun summary ->
      Buffer.add_string buf
        (Fastver_crypto.Bytes_util.string_of_u64_le
           (Int64.of_int (String.length summary)));
      Buffer.add_string buf summary)
    summaries;
  Buffer.contents buf

(* Total parser for the sealed payload: hostile bytes yield [Error], never
   an exception (the slot's MAC already vouched for it, but recovery's
   contract is that no decoder raises on corrupt input). *)
let parse_sealed_payload payload =
  let exception Corrupt of string in
  let fail fmt = Printf.ksprintf (fun e -> raise (Corrupt e)) fmt in
  let pos = ref 0 and n = String.length payload in
  let need k = if k < 0 || !pos + k > n then fail "sealed payload truncated" in
  let u64 () =
    need 8;
    let v = Fastver_crypto.Bytes_util.get_u64_le payload !pos in
    pos := !pos + 8;
    v
  in
  let str k =
    need k;
    let s = String.sub payload !pos k in
    pos := !pos + k;
    s
  in
  try
    let nonce_len = Int64.to_int (u64 ()) in
    let nonce_blob = str nonce_len in
    if String.length nonce_blob mod 16 <> 0 then
      fail "sealed payload: ragged nonce table";
    let nonces = Hashtbl.create 8 in
    let rec entries off =
      if off < String.length nonce_blob then begin
        Hashtbl.replace nonces
          (Int64.to_int (Fastver_crypto.Bytes_util.get_u64_le nonce_blob off))
          (Fastver_crypto.Bytes_util.get_u64_le nonce_blob (off + 8));
        entries (off + 16)
      end
    in
    entries 0;
    let magic = str (String.length shard_magic) in
    if magic <> shard_magic then
      fail
        "unsupported pre-sharding sealed payload; re-checkpoint with this \
         release";
    let n_shards = Int64.to_int (u64 ()) in
    if n_shards < 1 || n_shards > 65536 then
      fail "sealed payload: implausible shard count %d" n_shards;
    let boundaries =
      Array.init (n_shards - 1) (fun _ ->
          let kenc = str 34 in
          let depth = String.get_uint16_le kenc 0 in
          if depth > Key.max_depth then fail "sealed payload: bad boundary key";
          let p = Key.of_bytes32 (String.sub kenc 2 32) in
          if depth = Key.max_depth then p else Key.prefix p depth)
    in
    let summaries =
      Array.init n_shards (fun _ -> str (Int64.to_int (u64 ())))
    in
    if !pos <> n then fail "sealed payload: trailing bytes";
    Ok (nonces, boundaries, summaries)
  with Corrupt e -> Error e

let checkpoint t ~dir =
  check_loaded t;
  let ck0 = now () in
  match
    (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    (* Serialize against verification scans: a checkpoint taken mid-scan
       would capture half-migrated protection state and lose the scan's
       sealed snapshot (which lives only in the scan's arrays). Taken before
       any world lock — the same order the scans use. *)
    with_lock t.verify_mutex
    @@ fun () ->
    (* Stop the world: snapshotting the store and tries while other domains
       mutate them would tear the images (and race Hashtbl internals). *)
    lock_world t;
    Fun.protect ~finally:(fun () -> unlock_world t)
    @@ fun () ->
    Array.iter (flush_worker t) t.shards;
    (* Scans leave the working set cached, so merkle records may be cached
       at the instant the world stopped; the sealed summaries
       require empty caches and the tree images cannot encode cached
       records, so evict them all (children first) into the live epoch. *)
    Array.iter
      (fun sh ->
        Enclave.call t.enclave (fun () ->
            while Key_lru.length sh.lru > 0 do
              match Key_lru.victim sh.lru with
              | Some e ->
                  evict_mirror t sh e ~epoch_floor:(Atomic.get t.live_epoch)
              | None ->
                  raise (Integrity_violation "cycle in cached merkle records")
            done))
      t.shards;
    let summaries =
      Array.map
        (fun sh ->
          Enclave.call t.enclave (fun () ->
              ok (Verifier.checkpoint_summary sh.verifier)))
        t.shards
    in
    (* The gateway's anti-replay nonce table is trusted state too: without it
       a recovered system would accept replays of pre-crash puts. It is
       sealed alongside the shard summaries and routing boundaries. *)
    Enclave.Sealed_slot.store t.sealed (encode_sealed_payload t ~summaries);
    (* A fresh generation directory: higher than anything on disk, committed
       or torn. Its files all land inside it, so a crash mid-checkpoint can
       never touch a previous generation. *)
    let generation =
      match Ckpt_io.generations dir with (g, _) :: _ -> g + 1 | [] -> 0
    in
    let gdir = Filename.concat dir (Ckpt_io.generation_dir_name generation) in
    Ckpt_io.remove_tree gdir;
    Sys.mkdir gdir 0o755;
    Ckpt_io.write_file_atomic (Filename.concat gdir sealed_file)
      (Enclave.Sealed_slot.external_blob t.sealed);
    (* Simulated TPM NVRAM: hardware state that survives restarts. *)
    Ckpt_io.write_file_atomic (Filename.concat gdir tpm_file)
      (Fastver_crypto.Bytes_util.to_hex (Enclave.Sealed_slot.hw_key t.sealed)
      ^ "\n"
      ^ Int64.to_string (Enclave.Sealed_slot.counter t.sealed));
    Store.checkpoint t.store
      ~path:(Filename.concat gdir data_file)
      ~version:(verified_epoch t);
    (* Cold tier: the segment files themselves stay in [cold_dir] (they are
       append-only and immutable once sealed); the generation records only
       the manifest naming the committed prefix of each. [manifest_encode]
       fsyncs the active segment first, so every record the data checkpoint
       references is durable before the manifest that vouches for it. Under
       [cold_lock] so a racing maintenance pass's segment rotation is never
       interleaved with the encoding. *)
    (match t.cold with
    | None -> ()
    | Some c ->
        let encoded = with_cold_lock t (fun () -> Store.Cold.manifest_encode c) in
        Ckpt_io.write_file_atomic
          (Filename.concat gdir cold_manifest_file)
          encoded);
    (* Per-shard merkle images. *)
    Array.iter
      (fun sh ->
        let buf = Buffer.create 4096 in
        Tree.iter sh.tree (fun k entry ->
            Buffer.add_string buf (Key.encode k);
            let venc = Value.encode entry.value in
            let b4 = Bytes.create 4 in
            Bytes.set_int32_le b4 0 (Int32.of_int (String.length venc));
            Buffer.add_bytes buf b4;
            Buffer.add_string buf venc;
            mstate_encode buf entry.aux.mstate
              ~is_root:(Key.equal k Key.root);
            Bytes.set_int32_le b4 0 (Int32.of_int entry.aux.owner);
            Buffer.add_bytes buf b4);
        Ckpt_io.write_file_atomic
          (Filename.concat gdir (shard_tree_file sh.sid))
          (Buffer.contents buf))
      t.shards;
    (* Commit point: the manifest, checksumming every component, goes last. *)
    let components =
      static_component_files
      @ List.init (Array.length t.shards) shard_tree_file
      @ (match t.cold with None -> [] | Some _ -> [ cold_manifest_file ])
    in
    let entries =
      List.map
        (fun name ->
          match Ckpt_io.Manifest.entry_of_file ~dir:gdir name with
          | Ok e -> e
          | Error e -> raise (Ckpt_error ("checkpoint: " ^ name ^ ": " ^ e)))
        components
    in
    Ckpt_io.Manifest.write ~dir:gdir { generation; entries };
    Ckpt_io.fsync_dir dir;
    (* Retention: keep this generation plus its newest *committed*
       predecessor (the fallback for a crash during the *next* checkpoint);
       prune everything else. The fallback is chosen by commit status, not by
       number: a checkpoint attempt that failed non-fatally (disk full, say,
       with the process still serving) leaves a torn directory in the numeric
       predecessor slot, and keeping that instead of the last good generation
       would leave no usable fallback at all. *)
    let older =
      List.filter (fun (g, _) -> g < generation) (Ckpt_io.generations dir)
    in
    let fallback =
      List.find_opt
        (fun (g, path) -> classify_generation ~number:g path = Committed)
        older
    in
    List.iter
      (fun (g, path) ->
        match fallback with
        | Some (fg, _) when g = fg -> ()
        | Some _ | None -> Ckpt_io.remove_tree path)
      older;
    (* Only now — after the new generation committed and old ones were
       pruned — may segments retired two checkpoints ago be unlinked: no
       retained manifest can still name them. *)
    (match t.cold with
    | None -> ()
    | Some c -> with_cold_lock t (fun () -> Store.Cold.note_checkpoint c))
  with
  | () ->
      Metrics.checkpoint_write t.metrics (now () -. ck0);
      Ok ()
  | exception Ckpt_error e -> Error e
  | exception Sys_error e -> Error ("checkpoint: " ^ e)
  | exception Failure e -> Error ("checkpoint: " ^ e)

(* Total parser for one shard's merkle image: every malformed-input path is
   an [Error] — truncation, a data key where an internal node belongs, a
   negative length, an unknown protection tag. The enclosing generation was
   already classified Committed, so any of these means the manifest was
   forged around tampered bytes; the caller treats the generation as
   tampered and refuses to fall back. *)
let parse_tree_file ~sid raw =
  let exception Corrupt of string in
  let fail fmt = Printf.ksprintf (fun e -> raise (Corrupt e)) fmt in
  let tree = Tree.create ~root_aux:{ mstate = M_cached sid; owner = -1 } in
  let pos = ref 0 and n = String.length raw in
  let need k = if k < 0 || !pos + k > n then fail "tree file truncated" in
  try
    while !pos < n do
      need 34;
      let kenc = String.sub raw !pos 34 in
      let depth = String.get_uint16_le kenc 0 in
      if depth >= Key.max_depth then fail "data key in tree file";
      let key = Key.prefix (Key.of_bytes32 (String.sub kenc 2 32)) depth in
      pos := !pos + 34;
      need 4;
      let vlen = Int32.to_int (String.get_int32_le raw !pos) in
      pos := !pos + 4;
      need vlen;
      let value =
        match Value.decode (String.sub raw !pos vlen) with
        | Ok v -> v
        | Error e -> fail "%s" e
      in
      pos := !pos + vlen;
      need 1;
      let mstate =
        match raw.[!pos] with
        | 'm' ->
            incr pos;
            M_merkle
        | 'b' ->
            need 9;
            let ts = String.get_int64_le raw (!pos + 1) in
            pos := !pos + 9;
            M_blum ts
        | c -> fail "bad mstate tag 0x%02x" (Char.code c)
      in
      need 4;
      let owner = Int32.to_int (String.get_int32_le raw !pos) in
      pos := !pos + 4;
      if Key.equal key Key.root then begin
        let e = Tree.get_exn tree Key.root in
        e.value <- value;
        e.aux <- { mstate = M_cached sid; owner }
      end
      else Tree.set tree key value ~aux:{ mstate; owner }
    done;
    (* Structural consistency: every pointer must target either a data key
       (whose record lives in the store) or an internal record present in
       this file, strictly inside its pointing record's subtree. No honest
       checkpoint writes anything else, and a dangling or upward pointer
       would crash or loop tree descent after recovery instead of
       surfacing as the tampering it is. *)
    Tree.iter tree (fun k e ->
        match e.value with
        | Value.Data _ -> fail "data value under merkle key in tree file"
        | Value.Node node ->
            List.iter
              (function
                | None -> ()
                | Some (p : Value.ptr) ->
                    if not (Key.is_proper_ancestor k p.key) then
                      fail "pointer outside its subtree in tree file";
                    if not (Key.is_data_key p.key) then (
                      match Tree.find tree p.key with
                      | Some { value = Value.Node _; _ } -> ()
                      | Some _ | None ->
                          fail "dangling pointer in tree file"))
              [ node.left; node.right ]);
    Ok tree
  with Corrupt e -> Error e

(* Rebuild a system from one committed generation directory. Total: every
   decoder failure is an [Error]; nothing here may raise on corrupt input.
   The shard count and routing boundaries are adopted from the sealed
   payload — the configuration's [n_shards] only governs fresh systems. *)
let recover_generation ?(config = Config.default) ~gdir () =
  let ( let* ) = Result.bind in
  let* tpm =
    try Ok (read_file (Filename.concat gdir tpm_file))
    with Sys_error e | Failure e -> Error e
  in
  let* hw_key, counter =
    match String.split_on_char '\n' tpm with
    | [ k; c ] -> (
        try Ok (Fastver_crypto.Bytes_util.of_hex k, Int64.of_string c)
        with _ -> Error "corrupt tpm state")
    | _ -> Error "corrupt tpm state"
  in
  let sealed = Enclave.Sealed_slot.create_with ~hw_key ~counter in
  let* blob =
    try Ok (read_file (Filename.concat gdir sealed_file))
    with Sys_error e | Failure e -> Error e
  in
  Enclave.Sealed_slot.inject_blob sealed blob;
  let* sealed_payload = Enclave.Sealed_slot.load sealed in
  let* nonces, boundaries, summaries = parse_sealed_payload sealed_payload in
  let n_sh = Array.length summaries in
  let enclave = Enclave.create config.cost_model in
  let vconfig = vconfig_of config in
  let* verifiers =
    let rec build acc sid =
      if sid >= n_sh then Ok (Array.of_list (List.rev acc))
      else
        match Verifier.of_summary ~enclave vconfig summaries.(sid) with
        | Ok v -> build (v :: acc) (sid + 1)
        | Error e -> Error (Printf.sprintf "shard %d: %s" sid e)
    in
    build [] 0
  in
  (* The cold tier recovers from the manifest this generation committed:
     sealed segments are re-verified against their footers and the torn
     tail of the active segment is truncated back to the committed length.
     A generation without a cold manifest (written with the tier off)
     recovers with a fresh tier when one is now configured. *)
  let* cold =
    let mpath = Filename.concat gdir cold_manifest_file in
    if Sys.file_exists mpath then
      let* manifest =
        try Ok (read_file mpath) with Sys_error e | Failure e -> Error e
      in
      cold_of_config ~manifest config
    else cold_of_config config
  in
  let* store, data_version =
    Store.recover ?cold ~codec:option_codec
      ~path:(Filename.concat gdir data_file)
      ()
  in
  (* The data checkpoint's version must equal every sealed shard summary's
     verified epoch: they were written by the same checkpoint, and a
     disagreement means the generation was stitched together from mixed
     states (the sealed summaries are the trusted side of the pair). *)
  let* () =
    let rec check sid =
      if sid >= n_sh then Ok ()
      else
        let epoch = Verifier.verified_epoch verifiers.(sid) in
        if data_version <> epoch then
          Error
            (Printf.sprintf
               "data checkpoint version %d disagrees with shard %d's sealed \
                verifier epoch %d"
               data_version sid epoch)
        else check (sid + 1)
    in
    check 0
  in
  let* shards =
    let rec build acc sid =
      if sid >= n_sh then Ok (Array.of_list (List.rev acc))
      else
        let* raw =
          try Ok (read_file (Filename.concat gdir (shard_tree_file sid)))
          with Sys_error e | Failure e -> Error e
        in
        let* tree =
          Result.map_error
            (fun e -> Printf.sprintf "shard %d: %s" sid e)
            (parse_tree_file ~sid raw)
        in
        build (mk_shard ~tree verifiers.(sid) sid :: acc) (sid + 1)
    in
    build [] 0
  in
  let t =
    {
      config;
      enclave;
      shards;
      boundaries;
      store;
      auth = Auth.key_of_secret config.mac_secret;
      nonces;
      sealed;
      loaded = true;
      gateway_lock = Mutex.create ();
      ops_since_verify = Atomic.make 0;
      live_epoch = Atomic.make (Verifier.current_epoch verifiers.(0));
      verify_mutex = Mutex.create ();
      verify_inflight = Atomic.make false;
      redeferred = [];
      redeferred_lock = Mutex.create ();
      on_verified = None;
      repl = None;
      cold;
      cold_lock = Mutex.create ();
      stats = mk_stats n_sh;
      metrics = Metrics.create ~enabled:config.metrics_enabled ();
    }
  in
  Array.iter
    (fun sh ->
      Tree.iter sh.tree (fun k entry ->
          if entry.aux.owner >= 0 then sh.frontier <- k :: sh.frontier);
      (* The frontier cut depth survives as the shape of the recovered
         frontier itself (owner marks): a member's Patricia level is the
         length of its parent chain. Heat, hot-set and per-epoch counters
         are advisory and restart cold; the carried keys themselves persist
         as blum aux and re-enter via the dirty re-seed below, so an
         adaptive store recovers mid-flight without certificate drift. *)
      sh.depth <-
        (match sh.frontier with
        | [] -> config.frontier_levels
        | fs ->
            List.fold_left
              (fun d f -> max d (List.length (Tree.descend sh.tree f).path))
              1 fs))
    t.shards;
  (* Re-seed the dirty sets from the persisted protection state: a
     checkpoint routinely lands mid-epoch, so data records still riding the deferred tier
     persist with blum aux, and their evict-set entries came back with the
     sealed summaries. Without their keys in the shards' dirty lists the
     next scan could never balance those entries. The store aux is the
     source of truth — it also covers keys that were sitting in the
     in-memory re-deferral list when the process died. *)
  Store.iter_aux t.store (fun k aux ->
      if aux_is_blum aux then begin
        let sh = t.shards.(shard_of_data_key t k) in
        sh.dirty <- k :: sh.dirty;
        sh.dirty_len <- sh.dirty_len + 1
      end);
  wire_metrics t;
  Ok t

let err_no_checkpoint = "no checkpoint found"

(* Newest-first scan over the generations, applying the torn/tampered
   distinction of {!classify_generation}: torn crash artifacts are deleted
   and skipped (they never committed and can never shadow the good
   generation behind them); a tampered generation stops recovery cold, with
   the directory left in place as evidence. *)
let recover ?(config = Config.default) ~dir () =
  let t0 = now () in
  let rec scan = function
    | [] -> Error "no valid checkpoint generation"
    | (number, gdir) :: older -> (
        match classify_generation ~number gdir with
        | Torn _ ->
            Ckpt_io.remove_tree gdir;
            scan older
        | Tampered e ->
            Error
              (Printf.sprintf
                 "%s: %s — a committed manifest that fails validation \
                  implies tampering, not a crash; refusing to fall back to \
                  an older generation"
                 (Filename.basename gdir) e)
        | Committed -> recover_generation ~config ~gdir ())
  in
  match Ckpt_io.generations dir with
  | [] ->
      (* Distinguish "nothing here" (fresh start is safe) from a checkpoint
         written by the pre-generation flat layout, which this release can
         no longer read. *)
      if
        List.exists
          (fun f -> Sys.file_exists (Filename.concat dir f))
          ("merkle.tree" :: static_component_files)
      then
        Error
          "unsupported legacy checkpoint format (flat pre-generation \
           layout); re-checkpoint with this release"
      else Error err_no_checkpoint
  | gens -> (
      match scan gens with
      | Ok t ->
          Metrics.recover_done t.metrics (now () -. t0);
          Ok t
      | Error _ as e -> e)

module String_keys = struct
  let key s =
    Key.of_bytes32 (Fastver_crypto.Sha256.digest ("fastver-skey:" ^ s))

  let get t k = get_key t (key k)
  let put t k v = put_key t (key k) v
  let delete t k = delete_key t (key k)
end

let set_auto_checkpoint t ~dir =
  t.on_verified <-
    Some
      (fun () ->
        match checkpoint t ~dir with
        | Ok () -> ()
        | Error e -> Logs.warn (fun m -> m "auto-checkpoint: %s" e))

let clear_auto_checkpoint t = t.on_verified <- None

(* Promotion support: a store created as a replication follower runs with
   batch_size 0 (its epochs are sealed by the primary's stream). When the
   follower wins an election it must start sealing epochs itself again, so
   the new primary's boundary records flow. *)
let set_batch_size t n =
  if n < 0 then invalid_arg "Fastver.set_batch_size: negative batch size";
  t.config <- { t.config with Config.batch_size = n }

(* ------------------------------------------------------------------ *)
(* Parallel runtime (§5.3, §7 thread model)                            *)
(* ------------------------------------------------------------------ *)

module Parallel = struct
  exception Worker_failed of int * exn

  let () =
    Printexc.register_printer (function
      | Worker_failed (wid, e) ->
          Some
            (Printf.sprintf "Parallel.Worker_failed(worker %d, %s)" wid
               (Printexc.to_string e))
      | _ -> None)

  (* SplitMix64 finaliser mixing the worker id into the configured seed.
     The previous [seed + wid * 7919] made configured seeds differing by a
     multiple of 7919 replay each other's worker streams shifted by one
     worker; a bijective avalanche mix decorrelates every (seed, wid)
     pair. *)
  let mix_seed seed wid =
    let z =
      ref
        (Int64.add (Int64.of_int seed)
           (Int64.mul (Int64.of_int (wid + 1)) 0x9e3779b97f4a7c15L))
    in
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30))
           0xbf58476d1ce4e5b9L;
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27))
           0x94d049bb133111ebL;
    z := Int64.logxor !z (Int64.shift_right_logical !z 31);
    Int64.to_int (Int64.logand !z 0x3fffffffffffffffL)

  let run_ycsb t ~spec ~db_size ~ops_per_worker =
    check_loaded t;
    let open Fastver_workload in
    (* Driver domains: [n_workers] of them. Each operation still routes to
       its key's shard — the domains only generate and drive traffic. *)
    let n = max 1 t.config.n_workers in
    let failures = Array.make n None in
    let body wid () =
      let gen =
        Ycsb.create ~seed:(mix_seed t.config.seed wid) ~db_size spec
      in
      try
        let i = ref 0 in
        while !i < ops_per_worker do
          (match Ycsb.next gen with
          | Ycsb.Read k ->
              ignore (process t (Key.of_int64 k) (A_get None));
              incr i
          | Ycsb.Update (k, v) ->
              ignore (process t (Key.of_int64 k) (A_put (Some v, None)));
              incr i
          | Ycsb.Scan (k, len) ->
              for j = 0 to len - 1 do
                ignore
                  (process t
                     (Key.of_int64 (Int64.add k (Int64.of_int j)))
                     (A_get None))
              done;
              i := !i + len);
          maybe_verify t
        done
      with e -> failures.(wid) <- Some e
    in
    let domains = Array.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
    body 0 ();
    Array.iter Domain.join domains;
    Array.iteri
      (fun wid failure ->
        match failure with
        | Some e -> raise (Worker_failed (wid, e))
        | None -> ())
      failures
end

(* ------------------------------------------------------------------ *)
(* Failure injection for adversarial tests                             *)
(* ------------------------------------------------------------------ *)

module Testing = struct
  let corrupt_store t k value =
    let key = Key.of_int64 k in
    match Store.get t.store key with
    | Ok (Some (_, aux)) -> Store.put t.store key value ~aux
    | Ok None | Error _ -> Store.put t.store key value ~aux:aux_merkle

  let replay_last_put t =
    match !last_put with
    | None -> invalid_arg "Testing.replay_last_put: no put recorded"
    | Some (key, value, m) ->
        let _, sh = process t key (A_put (value, Some m)) in
        flush_worker t sh

  let corrupt_merkle_record t k =
    let rec entry_of sid =
      if sid >= Array.length t.shards then
        invalid_arg "corrupt_merkle_record: key not present"
      else
        match Tree.find t.shards.(sid).tree k with
        | Some e -> e
        | None -> entry_of (sid + 1)
    in
    let e = entry_of 0 in
    match e.value with
    | Value.Node { left = Some p; right } ->
        e.value <-
          Value.Node { left = Some { p with hash = String.make 32 'Z' }; right }
    | Value.Node { left = None; right = Some p } ->
        e.value <-
          Value.Node { left = None; right = Some { p with hash = String.make 32 'Z' } }
    | Value.Node { left = None; right = None } | Value.Data _ ->
        invalid_arg "corrupt_merkle_record: nothing to corrupt"

  let some_merkle_key t =
    let found = ref None in
    Array.iter
      (fun sh ->
        Tree.iter sh.tree (fun k e ->
            if !found = None && (not (Key.equal k Key.root)) then
              match e.aux.mstate with M_merkle -> found := Some k | _ -> ()))
      t.shards;
    !found

  (* Lock-order assertion hooks: with enforcement on, every acquisition in
     the core checks the documented order — shard tree locks ascending,
     then worker locks ascending, with [redeferred_lock]/[cold_lock] as
     annotated leaves — and these helpers let tests provoke
     violations directly. *)
  let enforce_lock_order on = Atomic.set Lock_order.enforce on
  let with_tree_lock t f = with_shard_lock t 0 f
  let with_shard_lock t sid f = with_shard_lock t sid f
  let with_worker_lock t wid f = with_worker_lock t wid f
  let with_redeferred_lock t f = with_redeferred_lock t f
  let with_cold_lock t f = with_cold_lock t f
end
