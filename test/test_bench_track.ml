(* The bench-history regression detector (bench/track/bench_track.ml)
   behind bench/main.exe --history/--compare, driven on synthetic bench
   documents: metric extraction, the regression gate's relative
   threshold and absolute floors, and append-only history records. *)

module Json = Spsta_server.Json

let bench_doc ?(incr = 2e-5) ?(grid_baseline = 0.04) ~ssta ~grid ~c100k_ssta () =
  Json.Obj
    [ ("schema", Json.string "spsta-bench/5");
      ("host_cores", Json.int 4);
      ("domains", Json.int 4);
      ( "circuits",
        Json.List
          [ Json.Obj
              [ ("name", Json.string "s344");
                ( "timings_s",
                  Json.Obj
                    [ ("ssta", Json.float ssta);
                      ("spsta_grid", Json.float grid);
                      ("spsta_grid_baseline", Json.float grid_baseline) ] );
                ( "sizing",
                  Json.Obj
                    [ ("full_analysis_s", Json.float 0.04);
                      ("incremental_update_s", Json.float incr) ] ) ] ] );
      ( "scale",
        Json.List
          [ Json.Obj
              [ ("name", Json.string "c100k");
                ("gates", Json.int 100_000);
                ("ssta_s", Json.float c100k_ssta);
                ("ssta_domains", Json.float 2.0) ] ] ) ]

let test_bench_track_metrics () =
  let doc = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let m = Bench_track.metrics doc in
  let assoc k = List.assoc k m in
  Alcotest.(check (float 0.0)) "circuit timing" 0.5 (assoc "s344/ssta");
  Alcotest.(check (float 0.0)) "sizing timing" 0.04 (assoc "s344/sizing/full_analysis_s");
  Alcotest.(check (float 0.0)) "scale timing" 0.08 (assoc "c100k/ssta_s");
  Alcotest.(check bool) "ratios are not tracked" true
    (not (List.mem_assoc "c100k/ssta_domains" m));
  Alcotest.(check bool) "counts are not tracked" true (not (List.mem_assoc "c100k/gates" m))

let test_bench_track_compare () =
  let base = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  (* 50% regression on one metric, the others within threshold *)
  let regressed = bench_doc ~ssta:0.75 ~grid:0.021 ~c100k_ssta:0.081 () in
  let compared, regressions = Bench_track.compare_docs ~base ~current:regressed () in
  Alcotest.(check bool) "several metrics compared" true (compared >= 4);
  (match regressions with
  | [ r ] ->
    Alcotest.(check string) "regressed metric" "s344/ssta" r.Bench_track.metric;
    Alcotest.(check (float 1e-9)) "ratio" 1.5 r.Bench_track.ratio
  | other -> Alcotest.failf "expected exactly one regression, got %d" (List.length other));
  (* identical documents never regress *)
  let _, clean = Bench_track.compare_docs ~base ~current:base () in
  Alcotest.(check int) "self-compare is clean" 0 (List.length clean);
  (* the sizing incremental update (2e-5 s) sits below the baseline
     floor: even doubled it is timer jitter, not a regression *)
  let doubled_tiny = bench_doc ~incr:4e-5 ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let _, small = Bench_track.compare_docs ~base ~current:doubled_tiny () in
  Alcotest.(check int) "sub-floor metrics ignored" 0 (List.length small);
  (* a few-millisecond metric blowing past the relative threshold but
     growing by less than the absolute floor is scheduler noise, not a
     regression the gate can act on *)
  let small_base = bench_doc ~ssta:0.5 ~grid:0.004 ~c100k_ssta:0.08 () in
  let small_drift = bench_doc ~ssta:0.5 ~grid:0.006 ~c100k_ssta:0.08 () in
  let _, drift = Bench_track.compare_docs ~base:small_base ~current:small_drift () in
  Alcotest.(check int) "sub-delta drift ignored" 0 (List.length drift);
  (* ... but the same relative jump with real absolute growth is caught *)
  let big_jump = bench_doc ~ssta:0.5 ~grid:0.012 ~c100k_ssta:0.08 () in
  let _, caught = Bench_track.compare_docs ~base:small_base ~current:big_jump () in
  Alcotest.(check int) "above-delta jump caught" 1 (List.length caught);
  (* reference entries (the deliberately-unoptimised speedup anchors)
     are recorded but never gated, however far they move *)
  let ref_jump = bench_doc ~grid_baseline:0.4 ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let _, refs = Bench_track.compare_docs ~base ~current:ref_jump () in
  Alcotest.(check int) "baseline reference entries never gate" 0 (List.length refs);
  Alcotest.(check bool) "baseline reference entries still tracked" true
    (List.mem_assoc "s344/spsta_grid_baseline" (Bench_track.metrics ref_jump))

let test_bench_track_history () =
  let doc = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let record = Bench_track.history_record ~commit:"abc123" ~utc:"2026-08-07T00:00:00Z" doc in
  (match Json.member "schema" record with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" Bench_track.history_schema s
  | _ -> Alcotest.fail "history record has no schema");
  (match Json.member "metrics" record with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "metrics flattened" true (List.mem_assoc "s344/ssta" fields)
  | _ -> Alcotest.fail "history record has no metrics");
  let path = Filename.temp_file "spsta_bench_history" ".jsonl" in
  Bench_track.append_history ~path record;
  Bench_track.append_history ~path record;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "append-only: one line per record" 2 (List.length !lines);
  List.iter
    (fun line ->
      match Json.of_string_opt line with
      | Some (Json.Obj _) -> ()
      | Some _ | None -> Alcotest.fail "history line is not a JSON object")
    !lines

let suite =
  [
    Alcotest.test_case "bench_track metric extraction" `Quick test_bench_track_metrics;
    Alcotest.test_case "bench_track regression gate" `Quick test_bench_track_compare;
    Alcotest.test_case "bench_track history records" `Quick test_bench_track_history;
  ]
