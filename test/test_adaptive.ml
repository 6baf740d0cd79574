(* The adaptive verification hierarchy (controller in lib/core/adaptive.ml):
   decisions must be a pure function of the observation snapshot, all tier
   movement must preserve certificate bit-identity across shard widths and
   against static runs (the multisets keep balancing whatever the controller
   moves), a stable workload must not thrash, and a checkpoint taken with
   adaptive state mid-flight (carried hot keys, retuned frontier) must
   recover into a store whose next scans still verify. *)

module C = Fastver_kvstore.Ckpt_io
module A = Fastver.Adaptive

let vo = Alcotest.(option string)

let config ?(shards = 1) ?(adaptive = true) () =
  {
    Fastver.Config.default with
    n_workers = 1;
    n_shards = shards;
    batch_size = 0;
    frontier_levels = 2;
    cache_capacity = 256;
    cost_model = Cost_model.zero;
    adaptive;
  }

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  C.remove_tree dir;
  dir

(* A deterministic skewed epoch: hammer a small hot set, scatter one touch
   across a rotating cold range. *)
let skewed_epoch t ~n ~phase =
  for rep = 1 to 20 do
    for h = 0 to 7 do
      Fastver.put t
        (Int64.of_int ((phase + h) mod n))
        (Printf.sprintf "hot%d-%d" h rep)
    done
  done;
  for c = 0 to 99 do
    Fastver.put t
      (Int64.of_int ((phase + 16 + (c * 3)) mod n))
      (Printf.sprintf "cold%d" c)
  done

let run_adaptive ?(shards = 1) ?(adaptive = true) ~epochs ~rotate_at n =
  let t = Fastver.create ~config:(config ~shards ~adaptive ()) () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  let certs = ref [] in
  for e = 0 to epochs - 1 do
    let phase = if e < rotate_at then 0 else n / 2 in
    skewed_epoch t ~n ~phase;
    certs := (Fastver.current_epoch t, Fastver.verify t) :: !certs
  done;
  (t, List.rev !certs)

(* ------------------------------------------------------------------ *)
(* Determinism: decide is a pure function of the snapshot              *)
(* ------------------------------------------------------------------ *)

let params =
  {
    A.cache_budget = 1024;
    depth_min = 2;
    depth_max = 8;
    hot_fraction = 0.5;
    min_cache = 32;
  }

let mk_obs ?(blum = 1000) ?(merkle = 50) ?(cached = 50) ?(frontier = 4)
    ?(cap = 256) ?(depth = 2) ?(heat = fun i -> i mod 7) () =
  {
    A.blum_ops = blum;
    merkle_ops = merkle;
    cached_ops = cached;
    frontier_size = frontier;
    cache_len = cap / 2;
    cache_cap = cap;
    depth;
    heat = Array.init A.buckets heat;
  }

let test_decide_deterministic () =
  let obs =
    [|
      mk_obs ();
      mk_obs ~blum:10 ~merkle:900 ~cached:200 ~frontier:64 ~depth:4 ();
      mk_obs ~heat:(fun i -> (i * 31) mod 13) ();
    |]
  in
  let p1 = A.decide params obs and p2 = A.decide params obs in
  Alcotest.(check int) "one plan per shard" (Array.length obs)
    (Array.length p1);
  Array.iteri
    (fun i a ->
      let b = p2.(i) in
      Alcotest.(check string)
        (Printf.sprintf "shard %d plan identical" i)
        (Format.asprintf "%a" A.pp_plan a)
        (Format.asprintf "%a" A.pp_plan b))
    p1

let test_decide_respects_bounds () =
  (* Depth stays within [depth_min, depth_max] and moves one level at a
     time; capacities never exceed the budget (up to floors). *)
  let hot_merkle =
    mk_obs ~blum:0 ~merkle:5000 ~cached:1000 ~frontier:4 ~depth:8 ()
  in
  let idle = mk_obs ~blum:5000 ~merkle:0 ~cached:0 ~frontier:400 ~depth:2 () in
  let plans = A.decide params [| hot_merkle; idle |] in
  Alcotest.(check int) "depth capped at max" 8 plans.(0).A.p_depth;
  Alcotest.(check int) "depth floored at min" 2 plans.(1).A.p_depth;
  let total = plans.(0).A.p_cache_cap + plans.(1).A.p_cache_cap in
  Alcotest.(check bool) "budget respected" true (total <= params.cache_budget);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "per-shard floor" true
        (p.A.p_cache_cap >= params.min_cache))
    plans

(* ------------------------------------------------------------------ *)
(* Hysteresis: a stable snapshot is a fixed point                      *)
(* ------------------------------------------------------------------ *)

let test_decide_fixed_point () =
  (* Apply the plan to a snapshot inside the depth dead band (frontier
     between pressure/16 and pressure/8) and decide again: nothing
     moves. *)
  let obs0 =
    [| mk_obs ~blum:800 ~merkle:500 ~cached:500 ~frontier:100 ~depth:4 () |]
  in
  let p0 = (A.decide params obs0).(0) in
  let obs1 =
    [|
      {
        obs0.(0) with
        A.cache_cap = p0.A.p_cache_cap;
        depth = p0.A.p_depth;
      };
    |]
  in
  let p1 = (A.decide params obs1).(0) in
  Alcotest.(check int) "capacity stable" p0.A.p_cache_cap p1.A.p_cache_cap;
  Alcotest.(check int) "depth stable" p0.A.p_depth p1.A.p_depth

let test_stable_workload_no_thrash () =
  (* Behavioural hysteresis: under an unchanging skew the controller's
     visible state (depth, capacity, hot-set size) converges and stays
     put over the last epochs. *)
  let t, _ = run_adaptive ~epochs:10 ~rotate_at:max_int 512 in
  let snap () =
    Array.map
      (fun (s : Fastver.adaptive_shard) ->
        (s.a_depth, s.a_cache_cap, s.a_hot_keys))
      (Fastver.adaptive_state t)
  in
  let s1 = snap () in
  skewed_epoch t ~n:512 ~phase:0;
  ignore (Fastver.verify t);
  let s2 = snap () in
  skewed_epoch t ~n:512 ~phase:0;
  ignore (Fastver.verify t);
  let s3 = snap () in
  Alcotest.(check bool) "state settled across settled epochs" true
    (s1 = s2 && s2 = s3);
  Alcotest.(check bool) "hot set non-empty under skew" true
    (Array.exists (fun (_, _, h) -> h > 0) s1)

(* ------------------------------------------------------------------ *)
(* Certificate bit-identity: 1-vs-N shards, adaptive vs static         *)
(* ------------------------------------------------------------------ *)

let test_cert_identity_across_widths () =
  let _, base = run_adaptive ~shards:1 ~epochs:6 ~rotate_at:3 512 in
  List.iter
    (fun shards ->
      let _, certs = run_adaptive ~shards ~epochs:6 ~rotate_at:3 512 in
      List.iter2
        (fun (e1, c1) (en, cn) ->
          Alcotest.(check int)
            (Printf.sprintf "epoch @ %d shards" shards)
            e1 en;
          Alcotest.(check string)
            (Printf.sprintf "epoch %d cert @ %d shards" e1 shards)
            c1 cn)
        base certs)
    [ 2; 4 ]

let test_cert_identity_vs_static () =
  (* The controller moves records between tiers mid-run; a static store
     replaying the same operations must seal byte-identical certificates —
     the tier assignment is invisible to the certificate chain. *)
  let _, adaptive = run_adaptive ~adaptive:true ~epochs:6 ~rotate_at:3 512 in
  let _, static = run_adaptive ~adaptive:false ~epochs:6 ~rotate_at:3 512 in
  List.iter2
    (fun (e1, c1) (e2, c2) ->
      Alcotest.(check int) "epoch aligned" e1 e2;
      Alcotest.(check string)
        (Printf.sprintf "epoch %d cert adaptive == static" e1)
        c1 c2)
    adaptive static

let test_values_survive_rotation () =
  let t, _ = run_adaptive ~epochs:8 ~rotate_at:4 512 in
  (* The last writes of the final epoch (phase n/2) must all read back. *)
  for h = 0 to 7 do
    Alcotest.(check vo)
      (Printf.sprintf "hot key %d" h)
      (Some (Printf.sprintf "hot%d-20" h))
      (Fastver.get t (Int64.of_int ((256 + h) mod 512)))
  done;
  ignore (Fastver.verify t)

(* Scans leave verifier caches resident, so the controller can shrink a
   shard's capacity below what it holds. Fill shard 0's cache, move all
   traffic to shard 1 so the next seal shrinks shard 0 to its floor, then
   read a shard-0 key whose whole chain is still resident: that read adds
   its data record without loading any chain record, and must still find
   room. *)
let test_shrink_below_resident () =
  let t = Fastver.create ~config:(config ~shards:2 ()) () in
  let n = 512 in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  let keys_of sid =
    List.filter
      (fun k -> Fastver.owner_of_key t k = sid)
      (List.init n Int64.of_int)
  in
  let shard0 = keys_of 0 and shard1 = keys_of 1 in
  List.iter (fun k -> ignore (Fastver.get t k)) shard0;
  ignore (Fastver.verify t);
  for _ = 1 to 3 do
    List.iter (fun k -> ignore (Fastver.get t k)) shard1
  done;
  ignore (Fastver.verify t);
  let cap0 = (Fastver.adaptive_state t).(0).a_cache_cap in
  Alcotest.(check bool)
    (Printf.sprintf "shard 0 shrank (capacity %d)" cap0)
    true (cap0 < 64);
  List.iter
    (fun k ->
      Alcotest.(check vo) "shard-0 read after the shrink"
        (Some (Printf.sprintf "v%06d" (Int64.to_int k)))
        (Fastver.get t k))
    shard0;
  ignore (Fastver.verify t);
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None)

(* ------------------------------------------------------------------ *)
(* Recovery with adaptive state mid-flight                             *)
(* ------------------------------------------------------------------ *)

let test_recover_mid_flight () =
  let dir = fresh_dir "fv-adaptive-recover" in
  let t, _ = run_adaptive ~shards:2 ~epochs:6 ~rotate_at:3 512 in
  let before =
    Array.map (fun (s : Fastver.adaptive_shard) -> s.a_depth)
      (Fastver.adaptive_state t)
  in
  (* Hot keys are still blum-protected here — that is the mid-flight
     state the checkpoint must carry. *)
  Alcotest.(check bool) "hot keys outstanding at checkpoint" true
    (Array.exists
       (fun (s : Fastver.adaptive_shard) -> s.a_hot_keys > 0)
       (Fastver.adaptive_state t));
  (match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  match Fastver.recover ~config:(config ~shards:2 ()) ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t2 ->
      let after =
        Array.map (fun (s : Fastver.adaptive_shard) -> s.a_depth)
          (Fastver.adaptive_state t2)
      in
      Alcotest.(check (array int)) "frontier depth recovered" before after;
      (* Keep running adaptively: the reseeded dirty sets must balance the
         recovered evict-set entries, and fresh controller rounds must keep
         sealing. *)
      skewed_epoch t2 ~n:512 ~phase:256;
      ignore (Fastver.verify t2);
      skewed_epoch t2 ~n:512 ~phase:256;
      ignore (Fastver.verify t2);
      Alcotest.(check vo) "reads verified after recovery"
        (Some "hot0-20")
        (Fastver.get t2 256L);
      C.remove_tree dir

let suite =
  ( "adaptive",
    [
      Alcotest.test_case "decide is deterministic" `Quick
        test_decide_deterministic;
      Alcotest.test_case "decide respects bounds and budget" `Quick
        test_decide_respects_bounds;
      Alcotest.test_case "stable snapshot is a fixed point" `Quick
        test_decide_fixed_point;
      Alcotest.test_case "no thrash on a stable workload" `Quick
        test_stable_workload_no_thrash;
      Alcotest.test_case "certificates equal across widths" `Quick
        test_cert_identity_across_widths;
      Alcotest.test_case "certificates equal adaptive vs static" `Quick
        test_cert_identity_vs_static;
      Alcotest.test_case "cache shrink below resident count" `Quick
        test_shrink_below_resident;
      Alcotest.test_case "values survive hot-set rotation" `Quick
        test_values_survive_rotation;
      Alcotest.test_case "recovery with adaptive state mid-flight" `Quick
        test_recover_mid_flight;
    ] )
