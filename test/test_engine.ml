(* The shared propagation engine, tested directly through a toy domain:
   state = unit-delay level, so the engine's answer is checkable against
   Circuit.level at every net.  Also covers the scheduler's
   once-per-gate contract and the dirty-cone work bound of update, for
   both the record engine and the flat kernels. *)

module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Flat = Spsta_engine.Flat

(* levels as a propagation domain: source -> 0, gate -> 1 + max inputs *)
module Levels = Propagate.Make (struct
  type state = int

  let source _ = 0

  let eval _circuit _id _driver operands =
    1 + Array.fold_left max 0 operands
end)

let test_levels_domain () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  List.iter
    (fun domains ->
      let r = Levels.run ~domains c in
      for i = 0 to Circuit.num_nets c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "level of %s at domains=%d" (Circuit.net_name c i) domains)
          (Circuit.level c i) r.Propagate.per_net.(i)
      done)
    [ 1; 2; 4 ]

let test_domains_validated () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  Alcotest.check_raises "domains = 0" (Invalid_argument "Parallel: domains must be positive")
    (fun () -> ignore (Levels.run ~domains:0 c))

(* Per-net evaluation tallies.  Each gate writes only its own slot, so
   the tally is race-free under the parallel schedule as long as the
   contract holds (and a double evaluation shows up as a count of 2). *)
let counting_levels c =
  let counts = Array.make (Circuit.num_nets c) 0 in
  let module Counting = Propagate.Make (struct
    type state = int

    let source _ = 0

    let eval _circuit id _driver operands =
      counts.(id) <- counts.(id) + 1;
      1 + Array.fold_left max 0 operands
  end) in
  (counts, Counting.run, Counting.update)

let counting_flat_delay c =
  let counts = Array.make (Circuit.num_nets c) 0 in
  let delay id (b : Flat.rf_buf) =
    counts.(id) <- counts.(id) + 1;
    b.rise_mu <- 1.0;
    b.rise_sig <- 0.1;
    b.fall_mu <- 1.2;
    b.fall_sig <- 0.1
  in
  (counts, delay)

let flat_source _ (b : Flat.rf_buf) =
  b.rise_mu <- 0.0;
  b.rise_sig <- 1.0;
  b.fall_mu <- 0.0;
  b.fall_sig <- 1.0

let check_once_per_gate what c counts =
  for i = 0 to Circuit.num_nets c - 1 do
    let expected = match Circuit.driver c i with Circuit.Gate _ -> 1 | _ -> 0 in
    Alcotest.(check int) (Printf.sprintf "%s: evaluations of %s" what (Circuit.net_name c i))
      expected counts.(i)
  done

(* Session cone accounting counts [delay] calls, so a full sweep must
   evaluate every gate exactly once at every domain count — through the
   fused narrow runs and the chunked wide levels alike. *)
let test_sweep_evaluates_each_gate_once () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let widths = Array.map Array.length (Circuit.gates_by_level c) in
  Alcotest.(check bool) "s344 has levels on both sides of the wide cutoff" true
    (Array.exists (fun w -> w < 16) widths && Array.exists (fun w -> w >= 16) widths);
  List.iter
    (fun domains ->
      let counts, run, _ = counting_levels c in
      ignore (run ~domains c);
      check_once_per_gate (Printf.sprintf "record, domains=%d" domains) c counts;
      let counts, delay = counting_flat_delay c in
      ignore (Flat.Ssta.run ~source:flat_source ~delay ~domains c);
      check_once_per_gate (Printf.sprintf "flat, domains=%d" domains) c counts)
    [ 1; 2; 4 ]

(* Expected dirty nets from independent fanout marking; like the
   engine, marking stops at register boundaries — a flip-flop Q net
   re-seeds from [source], not from the D arrival.  Returns the dirty
   set and its gate count. *)
let independent_cone c roots =
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter
        (fun out ->
          match Circuit.driver c out with
          | Circuit.Dff_output _ -> ()
          | Circuit.Gate _ | Circuit.Input -> mark out)
        (Circuit.fanout c id)
    end
  in
  List.iter mark roots;
  let gates =
    Array.to_list (Circuit.topo_gates c) |> List.filter (Hashtbl.mem dirty) |> List.length
  in
  (dirty, gates)

let test_update_touches_only_the_cone () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let counts, run, update = counting_levels c in
  let base = run c in
  let evals () = Array.fold_left ( + ) 0 counts in
  Alcotest.(check int) "full run evaluates every gate" (Circuit.gate_count c) (evals ());
  let changed = List.hd (Circuit.primary_inputs c) in
  let dirty, dirty_gates = independent_cone c [ changed ] in
  Alcotest.(check bool) "cone is a strict subset" true (dirty_gates < Circuit.gate_count c);
  Array.fill counts 0 (Array.length counts) 0;
  let updated = update base ~changed:[ changed ] in
  Alcotest.(check int) "update evaluates only the cone" dirty_gates (evals ());
  Alcotest.(check (array int)) "update preserves values" base.Propagate.per_net
    updated.Propagate.per_net;
  (* the flat kernel's update is held to the same bound: one [delay]
     call per dirty gate, and only inside the cone *)
  let counts, delay = counting_flat_delay c in
  let flat = Flat.Ssta.run ~source:flat_source ~delay c in
  Array.fill counts 0 (Array.length counts) 0;
  let flat' = Flat.Ssta.update ~source:flat_source ~delay flat ~changed:[ changed ] in
  Alcotest.(check int) "flat update evaluates only the cone" dirty_gates
    (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun i n ->
      if n > 0 then
        Alcotest.(check bool) "flat evaluation inside the cone" true (Hashtbl.mem dirty i))
    counts;
  for i = 0 to Circuit.num_nets c - 1 do
    Alcotest.(check (float 0.0)) "flat update preserves values" (Flat.Ssta.rise_mean flat i)
      (Flat.Ssta.rise_mean flat' i)
  done

(* A circuit shaped to exercise both scheduler paths at once: one wide
   level (well above the pool cutoff) followed by a deep chain of
   single-gate levels (fused into one sequential batch). *)
let wide_then_narrow () =
  let b = Circuit.Builder.create ~name:"wide-narrow" () in
  let n_in = 8 and wide = 300 and chain = 40 in
  for i = 0 to n_in - 1 do
    Circuit.Builder.add_input b (Printf.sprintf "i%d" i)
  done;
  for g = 0 to wide - 1 do
    Circuit.Builder.add_gate b
      ~output:(Printf.sprintf "w%d" g)
      Spsta_logic.Gate_kind.And
      [ Printf.sprintf "i%d" (g mod n_in); Printf.sprintf "i%d" ((g + 1) mod n_in) ]
  done;
  let prev = ref "w0" in
  for k = 0 to chain - 1 do
    let out = Printf.sprintf "c%d" k in
    Circuit.Builder.add_gate b ~output:out Spsta_logic.Gate_kind.Buf [ !prev ];
    prev := out
  done;
  Circuit.Builder.add_output b !prev;
  Circuit.Builder.finalize b

let test_pooled_wide_and_fused_narrow () =
  let c = wide_then_narrow () in
  let seq = Levels.run c in
  List.iter
    (fun domains ->
      let par = Levels.run ~domains c in
      Alcotest.(check (array int))
        (Printf.sprintf "pooled sweep identical at domains=%d" domains)
        seq.Propagate.per_net par.Propagate.per_net;
      for i = 0 to Circuit.num_nets c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "level of %s at domains=%d" (Circuit.net_name c i) domains)
          (Circuit.level c i)
          par.Propagate.per_net.(i)
      done)
    [ 2; 3; 4 ]

let test_update_union_of_two_cones () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let counts, run, update = counting_levels c in
  let base = run c in
  let roots =
    match Circuit.primary_inputs c with a :: b :: _ -> [ a; b ] | _ -> assert false
  in
  let _, dirty_gates = independent_cone c roots in
  Array.fill counts 0 (Array.length counts) 0;
  let updated = update base ~changed:roots in
  Alcotest.(check int) "update evaluates the union cone once" dirty_gates
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check (array int)) "update preserves values" base.Propagate.per_net
    updated.Propagate.per_net

let test_empty_circuit () =
  (* a source-only circuit propagates to just the seeds *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_output b "a";
  let c = Circuit.Builder.finalize b in
  let r = Levels.run c in
  Alcotest.(check (array int)) "single seeded source" [| 0 |] r.Propagate.per_net

let suite =
  [
    Alcotest.test_case "levels domain at 1/2/4 domains" `Quick test_levels_domain;
    Alcotest.test_case "domain count validated" `Quick test_domains_validated;
    Alcotest.test_case "sweep evaluates each gate once at 1/2/4 domains" `Quick
      test_sweep_evaluates_each_gate_once;
    Alcotest.test_case "update touches only the cone" `Quick test_update_touches_only_the_cone;
    Alcotest.test_case "pooled wide level + fused narrow chain" `Quick
      test_pooled_wide_and_fused_narrow;
    Alcotest.test_case "update on the union of two cones" `Quick
      test_update_union_of_two_cones;
    Alcotest.test_case "source-only circuit" `Quick test_empty_circuit;
  ]
