(* The flat struct-of-arrays SSTA kernel (Spsta_engine.Flat) against the
   boxed record engine: Int64-exact bit-identity across engines and
   domain counts on randomly generated circuits, dirty-cone update
   equivalence, and sanitizer parity against the float slots.  Corner
   STA, which runs on the record engine only, is held Int64-exact
   across domain counts on the same random circuits. *)

module Circuit = Spsta_netlist.Circuit
module Generator = Spsta_netlist.Generator
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Sta = Spsta_ssta.Sta
module Sanitize = Spsta_engine.Propagate.Sanitize
module Rng = Spsta_util.Rng

let bits = Int64.bits_of_float

let arrival_bits (a : Ssta.arrival) =
  ( bits (Normal.mean a.Ssta.rise),
    bits (Normal.stddev a.Ssta.rise),
    bits (Normal.mean a.Ssta.fall),
    bits (Normal.stddev a.Ssta.fall) )

let assert_ssta_identical what c a b =
  for i = 0 to Circuit.num_nets c - 1 do
    let xa = Ssta.arrival a i and xb = Ssta.arrival b i in
    if arrival_bits xa <> arrival_bits xb then
      Alcotest.failf "%s: net %s differs: rise %.17g/%.17g vs %.17g/%.17g, fall %.17g/%.17g vs %.17g/%.17g"
        what (Circuit.net_name c i) (Normal.mean xa.Ssta.rise) (Normal.stddev xa.Ssta.rise)
        (Normal.mean xb.Ssta.rise) (Normal.stddev xb.Ssta.rise) (Normal.mean xa.Ssta.fall)
        (Normal.stddev xa.Ssta.fall) (Normal.mean xb.Ssta.fall) (Normal.stddev xb.Ssta.fall)
  done

let assert_sta_identical what c a b =
  for i = 0 to Circuit.num_nets c - 1 do
    let xa = Sta.bounds a i and xb = Sta.bounds b i in
    if bits xa.Sta.earliest <> bits xb.Sta.earliest || bits xa.Sta.latest <> bits xb.Sta.latest
    then
      Alcotest.failf "%s: net %s differs: [%.17g, %.17g] vs [%.17g, %.17g]" what
        (Circuit.net_name c i) xa.Sta.earliest xa.Sta.latest xb.Sta.earliest xb.Sta.latest
  done

(* ---------- random workloads, reproducible from one seed ---------- *)

let random_circuit seed =
  let rng = Rng.create ~seed in
  Generator.generate
    { Generator.name = Printf.sprintf "flatq%d" seed;
      n_inputs = 3 + Rng.int rng 8;
      n_outputs = 2 + Rng.int rng 5;
      n_dffs = Rng.int rng 6;
      n_gates = 30 + Rng.int rng 170;
      target_depth = 3 + Rng.int rng 8;
      seed }

(* Per-net functions must be pure (the engines may consult them in any
   order), so each net gets its own O(1) substream. *)
let arrival_of seed id =
  let rng = Rng.stream ~seed id in
  let normal () =
    let mu = Rng.gaussian rng ~mu:0.5 ~sigma:1.0 in
    Normal.make ~mu ~sigma:(Float.abs (Rng.gaussian rng ~mu:0.8 ~sigma:0.5))
  in
  let rise = normal () in
  let fall = normal () in
  { Ssta.rise; fall }

let delay_rf_of seed id =
  let rng = Rng.stream ~seed (1_000_000 + id) in
  ( Float.abs (Rng.gaussian rng ~mu:1.0 ~sigma:0.3),
    Float.abs (Rng.gaussian rng ~mu:1.2 ~sigma:0.3) )

(* ---------- bit-identity: record vs flat, sequential vs parallel ---------- *)

let prop_engines_bit_identical =
  QCheck.Test.make ~name:"flat = record, sequential = parallel (SSTA, Int64-exact)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let input_arrival_of = arrival_of (seed + 17) in
      let delay_rf = delay_rf_of (seed + 23) in
      let record = Ssta.analyze_rf ~delay_rf ~input_arrival_of ~engine:`Record c in
      let flat = Ssta.analyze_rf ~delay_rf ~input_arrival_of c in
      assert_ssta_identical "record vs flat" c record flat;
      List.iter
        (fun domains ->
          let par = Ssta.analyze_rf ~delay_rf ~input_arrival_of ~domains c in
          assert_ssta_identical (Printf.sprintf "flat seq vs domains=%d" domains) c flat par)
        [ 2; 3; 4 ];
      true)

(* the acceptance matrix on real netlists: uniform delays, domains 1/2/4 *)
let test_engines_identical_suite () =
  List.iter
    (fun name ->
      let c = Spsta_experiments.Benchmarks.load name in
      let record = Ssta.analyze ~engine:`Record c in
      List.iter
        (fun domains ->
          let flat = Ssta.analyze ~domains c in
          assert_ssta_identical (Printf.sprintf "%s domains=%d" name domains) c record flat)
        [ 1; 2; 4 ])
    [ "s344"; "s1238" ]

let prop_sta_bit_identical =
  QCheck.Test.make ~name:"STA sequential = parallel (corner bounds, Int64-exact)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let gate_delay_of id = fst (delay_rf_of (seed + 5) id) in
      let input_bounds_of id =
        let rng = Rng.stream ~seed:(seed + 11) id in
        let lo = Rng.gaussian rng ~mu:(-1.0) ~sigma:1.0 in
        { Sta.earliest = lo; latest = lo +. Float.abs (Rng.gaussian rng ~mu:2.0 ~sigma:1.0) }
      in
      let seq = Sta.analyze ~gate_delay_of ~input_bounds_of c in
      List.iter
        (fun domains ->
          let par = Sta.analyze ~gate_delay_of ~input_bounds_of ~domains c in
          assert_sta_identical (Printf.sprintf "seq vs domains=%d" domains) c seq par)
        [ 2; 4 ];
      true)

(* ---------- incremental update: dirty cone equivalence ---------- *)

let prop_update_rf_equivalent =
  QCheck.Test.make ~name:"update_rf = full re-analysis (flat and record, Int64-exact)" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let old_arrival_of = arrival_of (seed + 17) in
      let delay_rf = delay_rf_of (seed + 23) in
      let sources = Circuit.sources c in
      let changed = List.nth sources (seed mod List.length sources) in
      let new_arrival_of id =
        if id = changed then arrival_of (seed + 99) id else old_arrival_of id
      in
      let check engine =
        let base = Ssta.analyze_rf ~delay_rf ~input_arrival_of:old_arrival_of ~engine c in
        let full = Ssta.analyze_rf ~delay_rf ~input_arrival_of:new_arrival_of ~engine c in
        let incr =
          Ssta.update_rf ~delay_rf ~input_arrival_of:new_arrival_of base ~changed:[ changed ]
        in
        assert_ssta_identical
          (Printf.sprintf "update_rf vs full (%s)"
             (match engine with `Flat -> "flat" | `Record -> "record"))
          c full incr
      in
      check `Flat;
      check `Record;
      true)

(* ---------- sanitizer parity on the float slots ---------- *)

let build_chain () =
  let b = Circuit.Builder.create ~name:"flatchain" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Or [ "n1"; "a" ];
  Circuit.Builder.add_gate b ~output:"n3" Gate_kind.Not [ "n2" ];
  Circuit.Builder.add_output b "n3";
  Circuit.Builder.finalize b

(* a NaN rise delay on one gate corrupts exactly one rise slot; the
   flat path's checker must name that net (and its driver and level)
   without ever materializing an arrival record *)
let test_flat_sanitizer_locates_fault () =
  let c = build_chain () in
  let poisoned = Circuit.find_exn c "n2" in
  let delay_rf id = if id = poisoned then (Float.nan, 1.0) else (1.0, 1.0) in
  (match Ssta.analyze_rf ~delay_rf ~check:true c with
  | (_ : Ssta.result) -> Alcotest.fail "NaN delay was not caught on the flat path"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "circuit" "flatchain" v.circuit;
    Alcotest.(check string) "net" "n2" v.net;
    Alcotest.(check string) "driver" "OR" v.driver;
    Alcotest.(check int) "level" 2 v.level;
    Alcotest.(check string) "rule" "non-finite" v.rule);
  (* with the checker off the same NaN flows through silently *)
  let r = Ssta.analyze_rf ~delay_rf ~check:false c in
  Alcotest.(check bool) "NaN propagates unchecked" true
    (Float.is_nan (Normal.mean (Ssta.arrival r poisoned).Ssta.rise))

(* corner STA has no flat kernel: its checker is the record engine's
   Sanitize.wrap, which must name the poisoned net the same way *)
let test_sta_sanitizer_locates_fault () =
  let c = build_chain () in
  let poisoned = Circuit.find_exn c "n1" in
  let gate_delay_of id = if id = poisoned then Float.nan else 1.0 in
  match Sta.analyze ~gate_delay_of ~check:true c with
  | (_ : Sta.result) -> Alcotest.fail "NaN delay was not caught on the STA path"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "net" "n1" v.net;
    Alcotest.(check string) "driver" "AND" v.driver;
    Alcotest.(check string) "rule" "non-finite" v.rule

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_bit_identical;
    QCheck_alcotest.to_alcotest prop_sta_bit_identical;
    QCheck_alcotest.to_alcotest prop_update_rf_equivalent;
    Alcotest.test_case "flat = record on s344/s1238 at domains 1,2,4" `Quick
      test_engines_identical_suite;
    Alcotest.test_case "flat sanitizer locates a poisoned slot" `Quick
      test_flat_sanitizer_locates_fault;
    Alcotest.test_case "flat STA sanitizer locates a poisoned slot" `Quick
      test_sta_sanitizer_locates_fault;
  ]
