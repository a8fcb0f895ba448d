(* Incremental re-analysis through the engine for the min/max analyzers:
   Ssta.update and Sta.update must match a full re-analysis on the dirty
   cone and share everything outside it. *)

module Circuit = Spsta_netlist.Circuit
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Sta = Spsta_ssta.Sta

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

(* ---------- SSTA ---------- *)

let default_arrival = { Ssta.rise = Normal.make ~mu:0.0 ~sigma:1.0; fall = Normal.make ~mu:0.0 ~sigma:1.0 }
let late_arrival = { Ssta.rise = Normal.make ~mu:2.0 ~sigma:0.5; fall = Normal.make ~mu:2.5 ~sigma:0.25 }

let ssta_equal c name full incremental =
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Ssta.arrival full i and b = Ssta.arrival incremental i in
    let label = Printf.sprintf "%s/%s" name (Circuit.net_name c i) in
    close (label ^ " rise mean") (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise) ~tol:1e-12;
    close (label ^ " rise sigma") (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise)
      ~tol:1e-12;
    close (label ^ " fall mean") (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall) ~tol:1e-12;
    close (label ^ " fall sigma") (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall)
      ~tol:1e-12
  done

let test_ssta_update_matches_full () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let base = Ssta.analyze c in
  let changed = List.hd (Circuit.primary_inputs c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let full = Ssta.analyze ~input_arrival_of:arrival_of c in
  let incremental = Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ] in
  ssta_equal c "source change" full incremental

let test_ssta_update_multi_change () =
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let base = Ssta.analyze c in
  let sources = Circuit.sources c in
  let changed = List.filteri (fun i _ -> i mod 3 = 0) sources in
  let arrival_of s = if List.mem s changed then late_arrival else default_arrival in
  let full = Ssta.analyze ~input_arrival_of:arrival_of c in
  let incremental = Ssta.update base ~input_arrival_of:arrival_of ~changed in
  ssta_equal c "multi change" full incremental

let test_ssta_update_is_pure () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let base = Ssta.analyze c in
  let g17 = Circuit.find_exn c "G17" in
  let before = Normal.mean (Ssta.arrival base g17).Ssta.rise in
  let changed = List.hd (Circuit.sources c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let _ = Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ] in
  let after = Normal.mean (Ssta.arrival base g17).Ssta.rise in
  close "original untouched" before after ~tol:0.0

let clean_gates c changed =
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter mark (Circuit.fanout c id)
    end
  in
  mark changed;
  Array.to_list (Circuit.topo_gates c) |> List.filter (fun g -> not (Hashtbl.mem dirty g))

(* Outside the dirty cone an update must carry the base values over
   bit-for-bit (the flat engine copies slots; bitwise equality is the
   portable contract), and the record engine moreover shares the state
   records physically. *)
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_ssta_clean_cone_shared () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let changed = List.hd (Circuit.sources c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let clean = clean_gates c changed in
  Alcotest.(check bool) "some clean gates exist" true (clean <> []);
  let base = Ssta.analyze c in
  let incremental = Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ] in
  List.iter
    (fun g ->
      let a = Ssta.arrival base g and b = Ssta.arrival incremental g in
      Alcotest.(check bool) "clean arrival bitwise unchanged" true
        (bits_equal (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise)
        && bits_equal (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise)
        && bits_equal (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall)
        && bits_equal (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall)))
    clean;
  let base = Ssta.analyze ~engine:`Record c in
  let incremental = Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ] in
  List.iter
    (fun g ->
      Alcotest.(check bool) "clean arrival physically shared (record engine)" true
        (Ssta.arrival base g == Ssta.arrival incremental g))
    clean

let test_ssta_noop_update () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let base = Ssta.analyze c in
  let incremental = Ssta.update base ~changed:[] in
  ssta_equal c "noop" base incremental

(* Idempotence under mutation: resize a gate, update, resize it back,
   update again — the second update recomputes the same cone from the
   same inputs with the same delays, so the result must be bit-identical
   to the untouched analysis (exact float equality, not tolerance). *)
let test_ssta_resize_roundtrip_bit_identical () =
  let module Sized = Spsta_netlist.Sized_library in
  let module Transform = Spsta_netlist.Transform in
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let sized = Sized.default in
  let asg = Sized.initial c in
  let delay_rf id = Sized.delay_rf sized c asg id in
  let base = Ssta.analyze_rf ~delay_rf c in
  let gates = Circuit.topo_gates c in
  (* a mid-level gate: non-trivial cone both above and below *)
  let g = gates.(Array.length gates / 2) in
  let up = Ssta.update_rf ~delay_rf base ~changed:(Transform.resize_gate sized c asg g ~size:3) in
  let back =
    Ssta.update_rf ~delay_rf up ~changed:(Transform.resize_gate sized c asg g ~size:0)
  in
  Alcotest.(check int) "assignment restored" 0 (Sized.size_of asg g);
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Ssta.arrival base i and b = Ssta.arrival back i in
    let label = Printf.sprintf "roundtrip/%s" (Circuit.net_name c i) in
    close (label ^ " rise mean") (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise) ~tol:0.0;
    close (label ^ " rise sigma") (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise) ~tol:0.0;
    close (label ^ " fall mean") (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall) ~tol:0.0;
    close (label ^ " fall sigma") (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall) ~tol:0.0
  done

(* ---------- STA ---------- *)

let default_window = { Sta.earliest = 0.0; latest = 0.0 }
let wide_window = { Sta.earliest = -1.0; latest = 4.0 }

let sta_equal c name full incremental =
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Sta.bounds full i and b = Sta.bounds incremental i in
    let label = Printf.sprintf "%s/%s" name (Circuit.net_name c i) in
    close (label ^ " earliest") a.Sta.earliest b.Sta.earliest ~tol:1e-12;
    close (label ^ " latest") a.Sta.latest b.Sta.latest ~tol:1e-12
  done

let test_sta_update_matches_full () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let base = Sta.analyze c in
  let changed = List.hd (Circuit.primary_inputs c) in
  let bounds_of s = if s = changed then wide_window else default_window in
  let full = Sta.analyze ~input_bounds_of:bounds_of c in
  let incremental = Sta.update base ~input_bounds_of:bounds_of ~changed:[ changed ] in
  sta_equal c "source change" full incremental

let test_sta_clean_cone_shared () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let changed = List.hd (Circuit.sources c) in
  let bounds_of s = if s = changed then wide_window else default_window in
  let clean = clean_gates c changed in
  Alcotest.(check bool) "some clean gates exist" true (clean <> []);
  let base = Sta.analyze c in
  let incremental = Sta.update base ~input_bounds_of:bounds_of ~changed:[ changed ] in
  List.iter
    (fun g ->
      let a = Sta.bounds base g and b = Sta.bounds incremental g in
      Alcotest.(check bool) "clean bounds bitwise unchanged" true
        (bits_equal a.Sta.earliest b.Sta.earliest && bits_equal a.Sta.latest b.Sta.latest);
      Alcotest.(check bool) "clean bounds physically shared" true (a == b))
    clean

let test_sta_noop_update () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let base = Sta.analyze c in
  let incremental = Sta.update base ~changed:[] in
  sta_equal c "noop" base incremental

let suite =
  [
    Alcotest.test_case "SSTA source change" `Quick test_ssta_update_matches_full;
    Alcotest.test_case "SSTA multiple changes" `Quick test_ssta_update_multi_change;
    Alcotest.test_case "SSTA update is pure" `Quick test_ssta_update_is_pure;
    Alcotest.test_case "SSTA clean cone shared" `Quick test_ssta_clean_cone_shared;
    Alcotest.test_case "SSTA no-op update" `Quick test_ssta_noop_update;
    Alcotest.test_case "SSTA resize round-trip bit-identical" `Quick
      test_ssta_resize_roundtrip_bit_identical;
    Alcotest.test_case "STA source change" `Quick test_sta_update_matches_full;
    Alcotest.test_case "STA clean cone shared" `Quick test_sta_clean_cone_shared;
    Alcotest.test_case "STA no-op update" `Quick test_sta_noop_update;
  ]
