(* fvbench: one benchmark run against the FastVer store.

   Runs one named workload for a wall-clock window, checks every receipt
   MAC, every epoch certificate and a seeded read-back of all writes, and
   prints one JSON object as its last line of output.  perfbench/run.py
   builds this program, runs it and re-emits the result in the benchmark's
   format; README.md in this directory explains the workloads and metrics.

   Layers are measured from outside: this program times its own calls into
   the layers' public functions and reads the counters the program already
   keeps (the metric registry, [Record_enc.hash_count],
   [Multiset_hash.elements_hashed], [Enclave.transitions], [Gc]). *)

module Y = Fastver_workload.Ycsb
module Reg = Fastver_obs.Registry
module Client = Fastver_net.Client
module S = Fastver.Session
module BA = Bigarray.Array1

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- Command line ---- *)

let o_workload = ref ""
let o_seed = ref 1
let o_seconds = ref 10.0
let o_trace = ref false
let o_tmp = ref ""
let o_cli = ref ""
let o_quick = ref false
let o_tamper = ref false
let o_quiet_file = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string o_workload,
       "NAME hot-inproc | large-cold | net-repl");
      ("--seed", Arg.Set_int o_seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float o_seconds, "S length of the timed window");
      ("--trace", Arg.Int (fun v -> o_trace := v <> 0),
       "0|1 report per-layer metrics instead of end-to-end ones");
      ("--tmp", Arg.Set_string o_tmp,
       "DIR existing temporary directory (relative paths keep socket names \
        short)");
      ("--cli", Arg.Set_string o_cli, "PATH fastver CLI executable (net-repl)");
      ("--quick", Arg.Set o_quick, " small sizes, for the self-test");
      ("--tamper", Arg.Set o_tamper,
       " flip one byte of a cold segment mid-run (large-cold)");
      ("--quiet-file", Arg.Set_string o_quiet_file,
       "PATH file whose first byte is 1 while the run's CPU is quiet");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fvbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR"

(* ---- Workloads ---- *)

type workload = {
  records : int;
  spec : Y.spec;
  scan_every : int;  (** ops between verification scans *)
  cold_budget : int option;  (** in-memory record budget; [None]: no cold tier *)
  remote : bool;  (** served by its own [fastver serve] process *)
  counted_blocks : int;
      (** traced epochs whose counts are reported; they repeat exactly *)
  max_scans : int;
      (** the window ends after this many scans even before [--seconds] *)
}

let workload =
  let hot =
    {
      records = 4096;
      spec = Y.with_dist Y.workload_a (Y.Zipfian 0.99);
      scan_every = 8192;
      cold_budget = None;
      remote = false;
      counted_blocks = 4;
      max_scans = max_int;
    }
  in
  let w =
    match !o_workload with
    | "hot-inproc" -> hot
    | "large-cold" ->
        {
          records = 262_144;
          spec = Y.with_dist Y.workload_b (Y.Zipfian 0.9);
          scan_every = 2048;
          cold_budget = Some 65_536;
          remote = false;
          counted_blocks = 2;
          max_scans = max_int;
        }
    | "net-repl" ->
        (* The primary keeps its last [retain_epochs] sealed epochs
           replayable; the warm-up epoch, the window's scans and a margin
           must fit, so that a fresh follower can still subscribe from
           epoch 0. *)
        let retain = Fastver_replica.Primary.default_config.retain_epochs in
        { hot with remote = true; max_scans = retain - 8 }
    | w ->
        prerr_endline ("fvbench: unknown workload " ^ w);
        exit 2
  in
  if !o_quick then
    {
      w with
      records = w.records / 16;
      scan_every = w.scan_every / 8;
      cold_budget = Option.map (fun b -> b / 16) w.cold_budget;
      counted_blocks = 2;
    }
  else w

(* Every ops buffer is sized for this many ops; a window that fills one
   ends early (and says so in its notes). *)
let cap = (int_of_float (!o_seconds *. 150_000.)) + (4 * workload.scan_every)

(* ---- Outcome bookkeeping ---- *)

let attempted = ref 0
let failed = ref 0
let notes = ref []
let note s = if List.length !notes < 8 then notes := s :: !notes

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      note s)
    fmt

(* Raised for a run that cannot produce a supported measurement. *)
exception Unsupported of string

(* ---- Sample buffers (allocated before the window) ---- *)

module Samples = struct
  type t = {
    a : (float, Bigarray.float64_elt, Bigarray.c_layout) BA.t;
    mutable n : int;
  }

  let create n = { a = BA.create Bigarray.float64 Bigarray.c_layout n; n = 0 }

  let add t v =
    if t.n < BA.dim t.a then begin
      BA.unsafe_set t.a t.n v;
      t.n <- t.n + 1
    end

  let full t = t.n >= BA.dim t.a

  let sorted t =
    let a = Array.init t.n (fun i -> BA.get t.a i) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array.  A percentile is reported
   only when at least ten samples lie beyond it. *)
let pct ~what a q =
  let n = Array.length a in
  if n = 0 || (float_of_int n *. (1.0 -. q) < 10.0 && not !o_quick) then
    raise
      (Unsupported
         (Printf.sprintf "%s: %d samples do not support p%g" what n (q *. 100.)));
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The host's CPU speed is not steady.  Bursts of 0.1 to 0.5 s in which
   every instruction takes about 1.5x as long come and go, at times for
   most of a minute.  So a window's timings are cut into short chunks, each
   chunk's figure is taken on its own, and a run reports the tenth
   percentile of its chunks' figures: the program's speed in the quieter
   part of the run.  Every chunk moves with the program, so the percentile
   does too, while bursts move it only once they cover nine tenths of the
   run.  A median of the chunks jumps between the two speeds as a run's mix
   of them crosses one half, and a mean moves with the mix. *)
let quiet_q = 0.1

(* Linearly interpolated [quiet_q]-quantile of a list. *)
let quiet l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = quiet_q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)

(* Samples per chunk for a percentile: enough to put ten beyond a p99, and
   few enough that a p50 chunk is shorter than a burst. *)
let chunk_for q = if q > 0.9 then 1000 else 200

(* A percentile of time-ordered samples: its value in each consecutive
   chunk, summarised by [quiet]. *)
let chunked_pct ~what (s : Samples.t) q =
  let k = max 1 (s.n / chunk_for q) in
  quiet
    (List.init k (fun i ->
         let lo = i * s.n / k and hi = (i + 1) * s.n / k in
         let a = Array.init (hi - lo) (fun j -> BA.get s.a (lo + j)) in
         Array.sort Float.compare a;
         pct ~what a q))

(* Ops per throughput chunk, an eighth of an epoch: about 30 ms on
   [hot-inproc] and [net-repl], about 0.1 s on [large-cold]. *)
let tp_chunk = max 1 (workload.scan_every / 8)

(* Scans per certify chunk. *)
let certify_chunk = 3

(* ---- Write count: what a follower must replay ---- *)

module Wlog = struct
  type t = {
    mutable n : int;  (** writes so far *)
    mutable bounds : int list;  (** [n] at each certified epoch, newest first *)
  }

  let create () = { n = 0; bounds = [] }
  let add t = t.n <- t.n + 1
  let seal t = t.bounds <- t.n :: t.bounds
end

(* ---- Counter snapshots ---- *)

(* Flat view of a metric registry: "name{labels}" for counters and gauges,
   "name{labels}.count" / ".sum" / ".p50" for histograms. *)
type snap = (string, float) Hashtbl.t

let labels_key labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" k v) labels)
  ^ "}"

let snap_of_registry reg : snap =
  let h = Hashtbl.create 128 in
  List.iter
    (fun (name, labels, v) ->
      let k = name ^ labels_key labels in
      match v with
      | Reg.Counter_v n -> Hashtbl.replace h k (float_of_int n)
      | Reg.Gauge_v g -> Hashtbl.replace h k g
      | Reg.Histogram_v (s, scale) ->
          Hashtbl.replace h (k ^ ".count") (float_of_int s.count);
          Hashtbl.replace h (k ^ ".sum") (float_of_int s.sum *. scale);
          Hashtbl.replace h (k ^ ".p50")
            (Fastver_obs.Histogram.quantile s 0.5 *. scale))
    (Reg.dump reg);
  h

(* Parser for the registry's fixed-field-order JSON rendering, as served by
   [Client.metrics]: objects {"name":..,"labels":{..},"field":number,..}. *)
let snap_of_json (j : string) : snap =
  let h = Hashtbl.create 128 in
  let n = String.length j in
  let find_from i sub =
    let m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub j i m = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let rec objects i =
    match find_from i "{\"name\":\"" with
    | None -> ()
    | Some p ->
        let ns = p + 9 in
        let ne = String.index_from j ns '"' in
        let name = String.sub j ns (ne - ns) in
        let ls = ne + String.length "\",\"labels\":" in
        let le = String.index_from j ls '}' in
        let key = name ^ String.sub j ls (le - ls + 1) in
        let oe = String.index_from j (le + 1) '}' in
        let fields = String.sub j (le + 2) (max 0 (oe - le - 2)) in
        List.iter
          (fun kv ->
            match String.index_opt kv ':' with
            | None -> ()
            | Some c ->
                let f = String.sub kv 1 (c - 2) in
                let v =
                  Option.value ~default:nan
                    (float_of_string_opt
                       (String.sub kv (c + 1) (String.length kv - c - 1)))
                in
                let k = if f = "value" then key else key ^ "." ^ f in
                Hashtbl.replace h k v)
          (String.split_on_char ',' fields);
        objects oe
  in
  objects 0;
  h

let get (s : snap) k = Option.value ~default:0.0 (Hashtbl.find_opt s k)

let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> raise (Unsupported ("no VmHWM in " ^ path))
  in
  go ()

let rec rm_rf p =
  match (Unix.lstat p).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes d =
  if not (Sys.file_exists d) then 0
  else
    Array.fold_left
      (fun acc e ->
        match Unix.stat (Filename.concat d e) with
        | { st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
        | _ -> acc
        | exception Unix.Unix_error _ -> acc)
      0 (Sys.readdir d)

(* ---- Child processes (net-repl) ---- *)

let children : int list ref = ref []

let spawn ~log args =
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close null)
      (fun () ->
        Unix.create_process !o_cli (Array.of_list (!o_cli :: args)) null fd fd)
  in
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

(* SIGTERM, then SIGKILL after 5 s; always reaps.  Returns the status. *)
let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  let st = wait () in
  forget pid;
  st

let () =
  at_exit (fun () -> List.iter (fun p -> ignore (stop_child p)) !children);
  let bye = Sys.Signal_handle (fun _ -> exit 2) in
  Sys.set_signal Sys.sigterm bye;
  Sys.set_signal Sys.sigint bye;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let connect_when_up pid sock =
  let addr =
    match Fastver_net.Addr.parse ("unix:" ^ sock) with
    | Ok a -> a
    | Error e -> failwith e
  in
  let deadline = now () +. 120.0 in
  let rec go () =
    match Client.connect addr with
    | Ok c -> c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            raise (Unsupported ("child exited before answering on " ^ sock)));
        if now () > deadline then
          raise (Unsupported ("no answer on " ^ sock ^ ": " ^ e));
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* ---- Targets: the store behind one uniform, checked interface ---- *)

type target = {
  get : int64 -> string option;  (** a read whose receipt has been checked *)
  put : int64 -> string -> unit;
  certify : unit -> unit;
      (** a verification scan whose epoch certificate has been checked *)
  snap : unit -> snap;  (** layer counters, for traced runs *)
}

(* Client-side send/await split of every net op. *)
let net_send = Samples.create cap
let net_await = Samples.create cap

(* Major collections of this process: the store's heap in-process, the
   client's heap on net-repl. *)
let with_gc (h : snap) =
  Hashtbl.replace h "x.major_gc" (float_of_int (Gc.quick_stat ()).major_collections);
  h

let inproc_target t s ~cold_dir =
  let certify () =
    let e = Fastver.current_epoch t in
    let c = Fastver.verify t in
    if not (Fastver.check_epoch_certificate t ~epoch:e c) then
      fail "epoch %d: certificate does not check" e
  in
  let snap () =
    let h = snap_of_registry (Fastver.registry t) in
    Hashtbl.replace h "x.hashes"
      (float_of_int (Fastver_merkle.Record_enc.hash_count ()));
    Hashtbl.replace h "x.mset"
      (float_of_int (Fastver_crypto.Multiset_hash.elements_hashed ()));
    Hashtbl.replace h "x.transitions"
      (float_of_int
         (Fastver_enclave.Enclave.transitions (Fastver.enclave_handle t)));
    Hashtbl.replace h "x.verifier_s" (Fastver.stats t).verifier_time_s;
    Hashtbl.replace h "x.cold_bytes" (float_of_int (dir_bytes cold_dir));
    with_gc h
  in
  {
    get = (fun k -> (S.get s k).value);
    put = (fun k v -> ignore (S.put s k v));
    certify;
    snap;
  }

let sealed_epoch = ref (-1)

(* Each op is [Client.get]/[put] split into its send and await halves, which
   are timed; the reply's receipt is checked inside [Client.await]. *)
let net_target conn sess =
  let unexpected () = failwith "reply of the wrong kind" in
  let call send =
    let t0 = now () in
    let id = send () in
    let t1 = now () in
    let rid, reply = Client.await sess in
    let t2 = now () in
    if rid <> id then failwith "reply out of order";
    Samples.add net_send (t1 -. t0);
    Samples.add net_await (t2 -. t1);
    reply
  in
  {
    get =
      (fun k ->
        match call (fun () -> Client.send_get sess k) with
        | Client.Value v -> v
        | _ -> unexpected ());
    put =
      (fun k v ->
        match call (fun () -> Client.send_put sess k v) with
        | Client.Stored -> ()
        | _ -> unexpected ());
    certify =
      (fun () ->
        (* [verify_now] checks the certificate against the shared secret *)
        let e, _ = Client.verify_now sess in
        sealed_epoch := e);
    snap = (fun () -> with_gc (snap_of_json (Client.metrics conn ~format:Json)));
  }

(* ---- One run's state ---- *)

type run = {
  tg : target;
  gen : Y.t;
  shadow : string option array;  (** every value the store must hold *)
  wlog : Wlog.t;
}

let gets = Samples.create cap
let puts = Samples.create cap
let certs = Samples.create 4096
let buffers_full () = Samples.full gets || Samples.full puts

(* Traced-run accumulators. *)
let words = ref 0.0  (* minor words inside store calls, counted blocks *)
let gen_s = ref 0.0  (* time spent generating ops, traced blocks *)
let gen_ops = ref 0

let one_op r ~record ~traced ~counted =
  let g0 = if traced then now () else 0.0 in
  let op = Y.next r.gen in
  if traced then begin
    gen_s := !gen_s +. (now () -. g0);
    incr gen_ops
  end;
  incr attempted;
  match op with
  | Y.Read k -> (
      let ki = Int64.to_int k in
      let t0 = now () in
      let w0 = Gc.minor_words () in
      match r.tg.get k with
      | v ->
          let w1 = Gc.minor_words () in
          let t1 = now () in
          if record then Samples.add gets (t1 -. t0);
          if counted then words := !words +. (w1 -. w0);
          if v <> r.shadow.(ki) then fail "get %d: value differs from the model" ki
      | exception e -> fail "get %d: %s" ki (Printexc.to_string e))
  | Y.Update (k, v) -> (
      let ki = Int64.to_int k in
      let t0 = now () in
      let w0 = Gc.minor_words () in
      match r.tg.put k v with
      | () ->
          let w1 = Gc.minor_words () in
          let t1 = now () in
          if record then Samples.add puts (t1 -. t0);
          if counted then words := !words +. (w1 -. w0);
          r.shadow.(ki) <- Some v;
          Wlog.add r.wlog
      | exception e -> fail "put %d: %s" ki (Printexc.to_string e))
  | Y.Scan _ -> fail "unexpected range scan in the op mix"

(* ---- Quiet gate ---- *)

(* run.py probes the run's CPU every 50 ms and keeps the first byte of
   [--quiet-file] at '1' while it runs at the host's normal speed, '0' while
   another tenant slows it down.  Before each short timed action that is a
   sample of its own (a set-up, a scan) the runner waits up to
   [gate_max_s] for a quiet CPU, so that more of these samples fall in quiet
   time.  Ops are never held up.  [gate_wait] sums the time spent
   waiting, which no timing includes. *)
let gate_max_s = 0.1
let gate_wait = ref 0.0

let cpu_quiet () =
  match In_channel.with_open_bin !o_quiet_file (fun ic -> In_channel.input_char ic) with
  | Some '0' -> false
  | _ | (exception Sys_error _) -> true

let wait_quiet () =
  if !o_quiet_file <> "" then begin
    let t0 = now () in
    let rec go () =
      if (not (cpu_quiet ())) && now () -. t0 < gate_max_s then begin
        Unix.sleepf 0.005;
        go ()
      end
    in
    go ();
    gate_wait := !gate_wait +. (now () -. t0)
  end

let certify_timed r ~record =
  if record then wait_quiet ();
  let t0 = now () in
  (try r.tg.certify () with e -> fail "certify: %s" (Printexc.to_string e));
  let dt = now () -. t0 in
  if record then Samples.add certs dt;
  Wlog.seal r.wlog;
  dt

let warm_up r =
  for _ = 1 to workload.scan_every do
    one_op r ~record:false ~traced:false ~counted:false
  done;
  ignore (certify_timed r ~record:false)

let fresh_run tg =
  {
    tg;
    gen = Y.create ~seed:!o_seed ~db_size:workload.records workload.spec;
    shadow =
      Array.init workload.records (fun i -> Some (Y.initial_value (Int64.of_int i)));
    wlog = Wlog.create ();
  }

let initial_db () =
  Array.init workload.records (fun i ->
      (Int64.of_int i, Y.initial_value (Int64.of_int i)))

(* Keys read back after the run: a seeded sample, or every key. *)
let sample_keys ~all =
  if all then Array.init workload.records Int64.of_int
  else
    let st = Random.State.make [| !o_seed; 0x5eed |] in
    Array.init (if !o_quick then 256 else 2048) (fun _ ->
        Int64.of_int (Random.State.int st workload.records))

let read_back ~what get keys shadow =
  Array.iter
    (fun k ->
      incr attempted;
      let ki = Int64.to_int k in
      match get k with
      | v when v = shadow.(ki) -> ()
      | _ -> fail "%s read-back of %d differs from the model" what ki
      | exception e ->
          fail "%s read-back of %d: %s" what ki (Printexc.to_string e))
    keys

(* ---- In-process set-up ---- *)

(* Set-ups timed per run: [setup_s] is their median; the last one serves
   the window.  A [large-cold] set-up loads 262k records and takes seconds. *)
let setups_per_run = if workload.cold_budget = None then 9 else 3

let store_config dir =
  {
    Fastver.Config.default with
    n_workers = 1;
    n_shards = 1;
    batch_size = 0 (* the benchmark runs every scan itself *);
    cost_model = Fastver_enclave.Cost_model.zero;
    cold_dir = Option.map (fun _ -> dir) workload.cold_budget;
    cold_threshold =
      Option.value workload.cold_budget
        ~default:Fastver.Config.default.cold_threshold;
  }

let new_store name =
  let dir = Filename.concat !o_tmp name in
  if workload.cold_budget <> None then Unix.mkdir dir 0o755;
  let t = Fastver.create ~config:(store_config dir) () in
  Fastver.load t (initial_db ());
  (t, dir)

(* ---- Tamper leg ---- *)

let flip_byte_in_cold_segment dir =
  let segs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cold")
    |> List.sort compare
  in
  match segs with
  | [] -> note "tamper: no cold segment to flip"
  | s :: _ ->
      let path = Filename.concat dir s in
      let fd = Unix.openfile path [ O_RDWR ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let size = (Unix.fstat fd).st_size in
      let off = size / 2 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd off SEEK_SET);
      ignore (Unix.write fd b 0 1);
      note (Printf.sprintf "tamper: flipped byte %d of %s" off s)

(* ---- The timed window ---- *)

type window = {
  scans : int;
  traced_block_s : float list;  (** per-op seconds of each traced block *)
  plain_block_s : float list;
  plain_chunk_s : float list;
      (** per-op seconds of each [tp_chunk] ops of the untraced blocks,
          scans left out *)
  rss_mb : float;
      (** peak RSS of the store's process after [min_scans] epochs: a fixed
          amount of work, so it does not vary with the run's speed *)
  counted_ops : int;
  counted_wall : float;
  counted_certify : float;
  counts : snap;  (** counter growth summed over the counted epochs *)
  last : snap;  (** the snapshot taken after the last counted epoch *)
}

let run_window r ~cold_dir ~rss_probe =
  let trace = !o_trace in
  let seconds = !o_seconds in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let scans = ref 0 and block = ref 0 in
  let traced_blocks = ref 0 and plain_blocks = ref 0 in
  let traced_s = ref [] and plain_s = ref [] and chunk_s = ref [] in
  let counted_ops = ref 0 and counted_wall = ref 0.0 in
  let counted_certify = ref 0.0 in
  let counts = Hashtbl.create 128 and last = ref (Hashtbl.create 1) in
  let rss = ref nan in
  let tampered = ref false in
  (* The window is whole epochs, so every op's share of its scan is in the
     throughput; it ends at the first epoch boundary after [seconds], once
     enough scans support a certify median, or after [max_scans] scans. *)
  let min_scans = if !o_quick then 1 else 20 in
  let more () =
    (not (buffers_full ()))
    && !scans < workload.max_scans
    && (now () < deadline
       || !scans < min_scans
       || trace
          && (!traced_blocks < workload.counted_blocks
             || !plain_blocks < workload.counted_blocks))
  in
  while more () do
    let traced = trace && !block mod 2 = 0 in
    let counted = traced && !traced_blocks < workload.counted_blocks in
    let before = if counted then r.tg.snap () else last.contents in
    let b0 = now () and w0 = !gate_wait in
    let c0 = ref b0 in
    let i = ref 0 in
    while !i < workload.scan_every && not (buffers_full ()) do
      one_op r ~record:true ~traced ~counted;
      incr i;
      if (not traced) && !i mod tp_chunk = 0 then begin
        let c1 = now () in
        chunk_s := ((c1 -. !c0) /. float_of_int tp_chunk) :: !chunk_s;
        c0 := c1
      end;
      if !o_tamper && (not !tampered) && now () > t_start +. (seconds /. 2.0)
      then begin
        tampered := true;
        flip_byte_in_cold_segment cold_dir
      end
    done;
    let c = certify_timed r ~record:true in
    incr scans;
    if !scans = min_scans then rss := rss_probe ();
    if counted then counted_certify := !counted_certify +. c;
    let dt = now () -. b0 -. (!gate_wait -. w0) in
    if !i > 0 then begin
      let per_op = dt /. float_of_int !i in
      if traced then begin
        traced_s := per_op :: !traced_s;
        incr traced_blocks
      end
      else begin
        plain_s := per_op :: !plain_s;
        incr plain_blocks
      end
    end;
    if counted then begin
      counted_ops := !counted_ops + !i;
      counted_wall := !counted_wall +. dt;
      let after = r.tg.snap () in
      Hashtbl.iter
        (fun k v -> Hashtbl.replace counts k (get counts k +. v -. get before k))
        after;
      last := after
    end;
    incr block
  done;
  if buffers_full () then
    note "window ended early: a sample buffer is full";
  {
    scans = !scans;
    rss_mb = !rss;
    traced_block_s = !traced_s;
    plain_block_s = !plain_s;
    plain_chunk_s = !chunk_s;
    counted_ops = !counted_ops;
    counted_wall = !counted_wall;
    counted_certify = !counted_certify;
    counts;
    last = !last;
  }

(* ---- Crypto floor: timed calls on store-sized inputs ---- *)

let per_call_us f =
  let iters = if !o_quick then 300 else 3000 in
  let reps =
    List.init 7 (fun _ ->
        let t0 = now () in
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done;
        (now () -. t0) /. float_of_int iters *. 1e6)
  in
  median reps

let crypto_costs () =
  let module V = Fastver_merkle.Value in
  let module K = Fastver_merkle.Key in
  let ptr k = Some { V.key = K.of_int64 k; hash = String.make 32 'h'; in_blum = false } in
  (* A Merkle hash input is a node record; a multiset element embeds a data
     record; a cold record MAC covers domain, key, version and value. *)
  let node = V.encode (V.Node { left = ptr 1L; right = ptr 2L }) in
  let elem =
    Fastver_merkle.Record_enc.blum_element (K.of_int64 7L)
      (V.Data (Some "12345678")) 5L
  in
  let cmac_key = Fastver_crypto.Cmac.of_aes_key "0123456789abcdef" in
  let cold_body = String.make 58 'c' in
  let secret = Fastver.Config.default.mac_secret in
  let hmac () = Fastver_crypto.Hmac.mac ~key:secret cold_body in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (hmac ()))
  done;
  let hmac_words = (Gc.minor_words () -. w0) /. 100.0 in
  ( per_call_us (fun () -> Fastver_crypto.Blake2s.digest node),
    per_call_us (fun () -> Fastver_crypto.Cmac.mac cmac_key elem),
    per_call_us hmac,
    hmac_words )

(* ---- Per-layer metrics ---- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let layer_metrics ~(win : window) ~replica =
  let d = get win.counts in
  let n = float_of_int win.counted_ops in
  let per_op k = ratio (d k) n in
  let tier t = d (Printf.sprintf "fastver_ops_total{\"tier\":\"%s\"}" t) in
  let blum = tier "blum" and merkle = tier "merkle" and cached = tier "cached" in
  let tiers = blum +. merkle +. cached in
  let vop o = d (Printf.sprintf "fastver_verifier_ops_total{\"op\":\"%s\"}" o) in
  let vcalls =
    List.fold_left ( +. ) 0.0
      (List.map vop [ "add_m"; "evict_m"; "add_b"; "evict_b"; "evict_bm"; "vget"; "vput" ])
  in
  let hist k f = d (k ^ "{}." ^ f) in
  let touched = hist "fastver_verify_touched_records" "sum" in
  let scans = hist "fastver_verify_touched_records" "count" in
  let flushes = hist "fastver_log_flush_entries" "count" in
  let transitions =
    if workload.remote then flushes (* one enclave call per log flush *)
    else d "x.transitions"
  in
  let cold_reads = per_op "fastver_cold_reads_total{}" in
  let cold_writes = per_op "fastver_cold_writes_total{}" in
  let hashes = per_op "x.hashes" and mset = per_op "x.mset" in
  let blake2s_us, cmac_us, hmac_us, hmac_words = crypto_costs () in
  (* Session MACs per op: a get's receipt is MACed by the verifier and
     checked by the client; a put adds the client's request MAC and its
     admission check. *)
  let auth_macs =
    ratio
      ((2.0 *. float_of_int gets.n) +. (4.0 *. float_of_int puts.n))
      (float_of_int (gets.n + puts.n))
  in
  let user_bytes = float_of_int (workload.records * 16) in
  let med_sorted s = if s.Samples.n = 0 then 0.0 else pct ~what:"trace" (Samples.sorted s) 0.5 in
  let send_us = med_sorted net_send *. 1e6 in
  let await_us = med_sorted net_await *. 1e6 in
  let server_us =
    if workload.remote then get win.last "fastver_request_seconds{}.p50" *. 1e6
    else 0.0
  in
  let traced_tp = median win.traced_block_s and plain_tp = median win.plain_block_s in
  [
    ("core.blum_frac", ratio blum tiers, "frac");
    ("core.merkle_frac", ratio merkle tiers, "frac");
    ("core.words_per_op", ratio !words n, "words");
    ("core.major_gc_per_kop",
     ratio (1000.0 *. d "x.major_gc") n, "1/kop");
    ("core.verifier_busy_frac",
     ratio (d "x.verifier_s") win.counted_wall, "frac");
    ("core.scan_touched", ratio touched scans, "count");
    ("core.scan_us_per_touched",
     ratio (win.counted_certify *. 1e6) touched, "us");
    ("verifier.calls_per_op", ratio vcalls n, "count");
    ("verifier.add_m_per_op", ratio (vop "add_m") n, "count");
    ("merkle.hashes_per_op", hashes, "count");
    ("crypto.blake2s_us", blake2s_us, "us");
    ("crypto.cmac_us", cmac_us, "us");
    ("crypto.hmac_sha256_us", hmac_us, "us");
    ("crypto.hmac_sha256_words", hmac_words, "words");
    ("crypto.mset_elements_per_op", mset, "count");
    ("crypto.floor_us_per_op",
     (hashes *. blake2s_us) +. ((mset +. auth_macs) *. cmac_us)
     +. ((cold_reads +. cold_writes) *. hmac_us), "us");
    ("enclave.transitions_per_kop", ratio (1000.0 *. transitions) n, "1/kop");
    ("enclave.flush_entries_mean",
     ratio (hist "fastver_log_flush_entries" "sum") flushes, "count");
    ("kvstore.reads_per_op", per_op "fastver_store_reads_total{}", "count");
    ("kvstore.writes_per_op", per_op "fastver_store_writes_total{}", "count");
    ("kvstore.rcu_copies_per_op", per_op "fastver_store_rcu_copies_total{}", "count");
    ("cold.reads_per_op", cold_reads, "count");
    ("cold.read_wait_us",
     ratio (1e6 *. hist "fastver_cold_read_wait_seconds" "sum")
       (hist "fastver_cold_read_wait_seconds" "count"), "us");
    ("cold.writes_per_op", cold_writes, "count");
    ("cold.gc_rewrites", d "fastver_cold_gc_rewrites_total{}", "count");
    ("cold.bytes_per_user_byte",
     get win.last "x.cold_bytes" /. user_bytes, "B/B");
    ("net.client_send_us", send_us, "us");
    ("net.client_await_us", await_us, "us");
    ("net.server_request_us", server_us, "us");
    ("net.wire_us", (if workload.remote then await_us -. server_us else 0.0), "us");
    ("net.batch_requests_mean",
     ratio (hist "fastver_net_batch_requests" "sum")
       (hist "fastver_net_batch_requests" "count"), "count");
  ]
  @ replica
  @ [
      ("workload.gen_us", ratio (!gen_s *. 1e6) (float_of_int !gen_ops), "us");
      ("trace.overhead_frac", traced_tp /. plain_tp -. 1.0, "frac");
    ]

let no_replica =
  [
    ("replica.frames_per_epoch", 0.0, "count");
    ("replica.stream_lag_bytes_max", 0.0, "B");
    ("replica.certs_verified", 0.0, "count");
    ("replica.applied_frac", 0.0, "frac");
    ("replica.catchup_ops_s", 0.0, "ops/s");
  ]

(* ---- End-to-end metrics ---- *)

(* Timings printed in the result's context, not as metrics: they wait on
   memory, which the host's heavy phases slow about 2x for minutes at a
   time, so they spread past any bound a benchmark may set (README.md,
   Steadiness). *)
let unbounded = ref []

let e2e_metrics ~(win : window) ~setups =
  if win.scans < 20 && not !o_quick then
    raise
      (Unsupported
         (Printf.sprintf "%d scans in the window; certify_p50_ms needs 20"
            win.scans));
  (* Certify time: the median of each [certify_chunk] consecutive scans,
     summarised by [quiet]. *)
  let certify_s =
    let k = max 1 (certs.n / certify_chunk) in
    quiet
      (List.init k (fun i ->
           let lo = i * certs.n / k and hi = (i + 1) * certs.n / k in
           median (List.init (hi - lo) (fun j -> BA.get certs.a (lo + j)))))
  in
  unbounded :=
    [
      ("get_p99_us", chunked_pct ~what:"get" gets 0.99 *. 1e6, "us");
      ("put_p99_us", chunked_pct ~what:"put" puts 0.99 *. 1e6, "us");
      ("certify_p50_ms", certify_s *. 1e3, "ms");
    ];
  [
    (* An epoch's time per op: the quiet time per op of its ops, plus its
       scan's quiet time spread over them. *)
    ("throughput_ops_s",
     1.0 /. (quiet win.plain_chunk_s +. (certify_s /. float_of_int workload.scan_every)),
     "ops/s");
    ("get_p50_us", chunked_pct ~what:"get" gets 0.5 *. 1e6, "us");
    ("put_p50_us", chunked_pct ~what:"put" puts 0.5 *. 1e6, "us");
    ("setup_s", median setups, "s");
    ("rss_peak_mb", win.rss_mb, "MB");
  ]

(* ---- In-process workloads ---- *)

let run_inproc () =
  let setups = ref [] and last = ref None in
  for i = 1 to setups_per_run do
    (match !last with
    | Some (_, dir) ->
        last := None;
        rm_rf dir
    | None -> ());
    Gc.compact ();
    wait_quiet ();
    let t0 = now () in
    let t, dir = new_store (Printf.sprintf "cold-%d" i) in
    let r = fresh_run (inproc_target t (S.connect t ~client_id:1) ~cold_dir:dir) in
    warm_up r;
    setups := (now () -. t0) :: !setups;
    Gc.compact ();
    last := Some ((t, r), dir)
  done;
  let (t, r), dir = Option.get !last in
  let win = run_window r ~cold_dir:dir ~rss_probe:(fun () -> vm_hwm_mb 0) in
  let s = S.connect t ~client_id:2 in
  read_back ~what:"store" (fun k -> (S.get s k).value)
    (sample_keys ~all:!o_tamper) r.shadow;
  (match Fastver.verifier_failure t with
  | Some f -> fail "verifier poisoned: %s" f
  | None -> ());
  if !o_trace then layer_metrics ~win ~replica:no_replica
  else e2e_metrics ~win ~setups:!setups

(* ---- net-repl: server and follower processes ---- *)

let server_args i =
  let p f = Filename.concat !o_tmp (Printf.sprintf "%s-%d.sock" f i) in
  ( p "srv",
    p "repl",
    [
      "serve"; "--listen"; "unix:" ^ p "srv"; "--replication-listen";
      "unix:" ^ p "repl"; "-n"; string_of_int workload.records; "-w"; "1";
      "--shards"; "1"; "--batch"; "0"; "--enclave"; "zero";
    ] )

(* Polls every 5 ms: fine enough to time a catch-up epoch (about 0.3 s) to
   within a few per cent. *)
let poll_until ~what ~timeout f =
  let deadline = now () +. timeout in
  let rec go () =
    if f () then ()
    else if now () > deadline then raise (Unsupported ("timed out: " ^ what))
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* Epochs per span of the catch-up timeline over which a rate is taken. *)
let catchup_span = 2

(* Writes per second a follower applies and verifies, from its timeline of
   (verified epoch, time first seen), oldest first, and the writes through
   each epoch ([cum.(e)]): the inverse of the [quiet] time per
   write over consecutive spans of [catchup_span] epochs or more.  The time
   before its first verified epoch (the subscription) is left out; a
   catch-up shorter than one span is one span. *)
let catchup_rate cum timeline =
  let tl = List.filter (fun (e, _) -> e >= 0 && e < Array.length cum) timeline in
  let first = match tl with (e, _) :: _ -> e | [] -> 0 in
  let last = List.fold_left (fun m (e, _) -> max m e) first tl in
  let span = max 1 (min catchup_span (last - first)) in
  let rec spans acc = function
    | (e0, t0) :: rest -> (
        match List.find_opt (fun (e, _) -> e - e0 >= span) rest with
        | Some (e1, t1) ->
            let rest = List.filter (fun (e, _) -> e >= e1) rest in
            spans ((t1 -. t0) /. float_of_int (cum.(e1) - cum.(e0)) :: acc) rest
        | None -> acc)
    | [] -> acc
  in
  match spans [] tl with
  | [] -> raise (Unsupported "the follower verified fewer than two epochs")
  | per_write -> 1.0 /. quiet per_write

let run_net () =
  let setups = ref [] and last = ref None in
  let secret = Fastver.Config.default.mac_secret in
  for i = 1 to setups_per_run do
    (match !last with
    | Some (pid, conn, _, _, _) ->
        last := None;
        Client.close conn;
        ignore (stop_child pid)
    | None -> ());
    Gc.compact ();
    wait_quiet ();
    let t0 = now () in
    let srv, repl, args = server_args i in
    let pid = spawn ~log:(Filename.concat !o_tmp (Printf.sprintf "serve-%d.log" i)) args in
    let conn = connect_when_up pid srv in
    let sess = Client.open_session conn ~client:1 ~secret in
    let r = fresh_run (net_target conn sess) in
    warm_up r;
    setups := (now () -. t0) :: !setups;
    last := Some (pid, conn, r, srv, repl)
  done;
  let pid, conn, r, srv, repl = Option.get !last in
  Gc.compact ();
  let win = run_window r ~cold_dir:"" ~rss_probe:(fun () -> vm_hwm_mb pid) in
  let retain = Fastver_replica.Primary.default_config.retain_epochs in
  if !sealed_epoch >= retain then
    raise
      (Unsupported
         (Printf.sprintf
            "the primary sealed epoch %d; it retains only %d epochs, so a \
             fresh follower cannot subscribe from epoch 0"
            !sealed_epoch retain));
  let cconn = connect_when_up pid srv in
  let csess = Client.open_session cconn ~client:2 ~secret in
  read_back ~what:"primary" (Client.get csess) (sample_keys ~all:false) r.shadow;
  Client.close cconn;
  (* Catch-up: a fresh follower subscribes from epoch 0 and replays the
     stream; timed from its first answer until it has verified the
     primary's last sealed epoch. *)
  let fsock = Filename.concat !o_tmp "follow.sock" in
  let fdir = Filename.concat !o_tmp "follower" in
  let fpid =
    spawn ~log:(Filename.concat !o_tmp "follow.log")
      [
        "follow"; "--primary"; "unix:" ^ repl; "--listen"; "unix:" ^ fsock;
        "--dir"; fdir; "-n"; string_of_int workload.records; "-w"; "1";
        "--shards"; "1"; "--enclave"; "zero";
      ]
  in
  let fconn = connect_when_up fpid fsock in
  let lag_max = ref 0.0 in
  let fsnap = ref (Hashtbl.create 1) in
  let timeline = ref [] in
  poll_until ~what:"follower parity" ~timeout:120.0 (fun () ->
      if !o_trace then begin
        let ps = snap_of_json (Client.metrics conn ~format:Json) in
        lag_max := Float.max !lag_max (get ps "fastver_repl_stream_lag_bytes{}")
      end;
      fsnap := snap_of_json (Client.metrics fconn ~format:Json);
      let e = int_of_float (get !fsnap "fastver_verified_epoch{}") in
      (match !timeline with
      | (e', _) :: _ when e' >= e -> ()
      | _ -> timeline := (e, now ()) :: !timeline);
      e >= !sealed_epoch);
  let cum = Array.of_list (List.rev r.wlog.bounds) in
  if Array.length cum <> !sealed_epoch + 1 then
    fail "the run certified %d epochs, the primary sealed through epoch %d"
      (Array.length cum) !sealed_epoch;
  let psnap = snap_of_json (Client.metrics conn ~format:Json) in
  let applied = get !fsnap "fastver_repl_ops_applied_total{}" in
  let streamed = get psnap "fastver_repl_ops_streamed_total{}" in
  if applied <> streamed then
    fail "follower applied %.0f of %.0f streamed ops" applied streamed;
  if int_of_float streamed <> r.wlog.n then
    fail "primary streamed %.0f ops, the run wrote %d" streamed r.wlog.n;
  let fsess = Client.open_session fconn ~client:1 ~secret in
  read_back ~what:"follower" (Client.get fsess) (sample_keys ~all:false) r.shadow;
  Client.close fconn;
  Client.close conn;
  (match stop_child fpid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "follower did not exit cleanly");
  (match stop_child pid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "server did not exit cleanly");
  if !o_trace then
    let epochs = get psnap "fastver_repl_epochs_streamed_total{}" in
    layer_metrics ~win
      ~replica:
        [
          ("replica.frames_per_epoch",
           ratio (get psnap "fastver_repl_frames_total{}") epochs, "count");
          ("replica.stream_lag_bytes_max", !lag_max, "B");
          ("replica.certs_verified",
           get !fsnap "fastver_repl_certs_verified_total{}", "count");
          ("replica.applied_frac", ratio applied streamed, "frac");
          ("replica.catchup_ops_s", catchup_rate cum (List.rev !timeline), "ops/s");
        ]
  else e2e_metrics ~win ~setups:!setups

(* ---- Output ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  if !o_tmp = "" || not (Sys.file_exists !o_tmp) then begin
    prerr_endline "fvbench: --tmp must name an existing directory";
    exit 2
  end;
  match if workload.remote then run_net () else run_inproc () with
  | exception Unsupported why ->
      prerr_endline ("fvbench: " ^ why);
      exit 3
  | exception e ->
      prerr_endline ("fvbench: run aborted: " ^ Printexc.to_string e);
      exit 3
  | metrics ->
      let json ~must (name, v, unit) =
        if Float.is_finite v then
          Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string name)
            v (json_string unit)
        else begin
          if must then fail "metric %s is not a finite number" name;
          Printf.sprintf "%s:{\"value\":null,\"unit\":%s}" (json_string name)
            (json_string unit)
        end
      in
      let m = List.map (json ~must:true) metrics in
      Printf.printf
        "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\
         \"notes\":[%s],\"context\":{\"domains\":1,\"processes\":%d,\
         \"records\":%d,\"ocaml\":%s,\"gets\":%d,\"puts\":%d,\"scans\":%d,\
         \"unbounded\":{%s}}}\n"
        (!failed = 0) !attempted !failed (String.concat "," m)
        (String.concat "," (List.rev_map json_string !notes))
        (if workload.remote then 3 else 1)
        workload.records (json_string Sys.ocaml_version) gets.n puts.n certs.n
        (String.concat "," (List.map (json ~must:false) !unbounded))
