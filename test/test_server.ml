(* Server subsystem: LRU cache semantics, worker-pool behaviour (results,
   deadlines, drain), and end-to-end batches — duplicate requests hit the
   memo table with identical responses, and responses are deterministic and
   independent of the worker-pool size. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol
module Cache = Spsta_server.Cache
module Pool = Spsta_server.Pool
module Server = Spsta_server.Server

(* ---------- LRU ---------- *)

let test_lru_eviction () =
  let lru = Cache.Lru.create ~capacity:2 in
  Cache.Lru.add lru "a" 1;
  Cache.Lru.add lru "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Cache.Lru.find lru "a");
  (* b is now least recently used; adding c evicts it *)
  Cache.Lru.add lru "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.Lru.find lru "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.Lru.find lru "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Cache.Lru.find lru "c");
  Alcotest.(check int) "evictions" 1 (Cache.Lru.evictions lru);
  Alcotest.(check int) "hits" 3 (Cache.Lru.hits lru);
  Alcotest.(check int) "misses" 1 (Cache.Lru.misses lru);
  Alcotest.(check int) "size" 2 (Cache.Lru.length lru)

let test_lru_replace () =
  let lru = Cache.Lru.create ~capacity:2 in
  Cache.Lru.add lru "a" 1;
  Cache.Lru.add lru "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Cache.Lru.find lru "a");
  Alcotest.(check int) "no eviction on replace" 0 (Cache.Lru.evictions lru)

let test_cache_load_errors () =
  let cache = Cache.create () in
  ( match Cache.load_circuit cache "no_such_circuit_xyz" with
  | exception Cache.Load_error { code; _ } ->
    Alcotest.(check string) "not found code" "circuit_not_found"
      (Protocol.error_code_name code)
  | _ -> Alcotest.fail "expected Load_error" );
  let path = Filename.temp_file "spsta_bad" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(G1)\nG2 = FROB(G1)\n";
  close_out oc;
  ( match Cache.load_circuit cache path with
  | exception Cache.Load_error { code; _ } ->
    Alcotest.(check string) "parse error code" "parse_error" (Protocol.error_code_name code)
  | _ -> Alcotest.fail "expected Load_error" );
  Sys.remove path

let test_cache_digest_stable () =
  let cache = Cache.create () in
  let a = Cache.load_circuit cache "s27" in
  let b = Cache.load_circuit cache "s27" in
  Alcotest.(check string) "same digest" a.Cache.digest b.Cache.digest;
  Alcotest.(check bool) "second load is a hit" true (Cache.circuit_hits cache > 0)

(* ---------- pool ---------- *)

let test_pool_results () =
  let pool = Pool.create ~workers:4 ~queue_capacity:8 () in
  let tickets = List.init 32 (fun i -> Pool.submit pool (fun () -> i * i)) in
  List.iteri
    (fun i ticket ->
      match Pool.await ticket with
      | Pool.Done v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) v
      | _ -> Alcotest.fail "job did not complete")
    tickets;
  Pool.shutdown pool;
  Alcotest.(check int) "all executed" 32 (Pool.executed pool)

let test_pool_exception () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  let ticket = Pool.submit pool (fun () -> failwith "boom") in
  ( match Pool.await ticket with
  | Pool.Failed (Failure m) -> Alcotest.(check string) "exn carried" "boom" m
  | _ -> Alcotest.fail "expected Failed" );
  Pool.shutdown pool

let test_pool_deadline () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  (* occupy the single worker so the deadlined job expires while queued *)
  let blocker = Pool.submit pool (fun () -> Unix.sleepf 0.05; 0) in
  let doomed = Pool.submit ~deadline_ms:1.0 pool (fun () -> 1) in
  ( match Pool.await doomed with
  | Pool.Timed_out { budget_ms; elapsed_ms } ->
    Alcotest.(check (float 1e-2)) "budget" 1.0 budget_ms;
    Alcotest.(check bool) "elapsed past budget" true (elapsed_ms >= 1.0)
  | _ -> Alcotest.fail "expected Timed_out" );
  ( match Pool.await blocker with
  | Pool.Done 0 -> ()
  | _ -> Alcotest.fail "blocker should finish normally" );
  Alcotest.(check int) "timeout counted" 1 (Pool.timed_out pool);
  Pool.shutdown pool

let test_pool_drain () =
  let pool = Pool.create ~workers:2 ~queue_capacity:16 () in
  let counter = Atomic.make 0 in
  let tickets =
    List.init 10 (fun _ -> Pool.submit pool (fun () -> Atomic.incr counter; ()))
  in
  (* shutdown must finish every accepted job before returning *)
  Pool.shutdown pool;
  Alcotest.(check int) "drained" 10 (Atomic.get counter);
  List.iter
    (fun t -> match Pool.await t with Pool.Done () -> () | _ -> Alcotest.fail "lost job")
    tickets

(* regression: on_complete exceptions were all silently swallowed.
   Non-fatal ones are now counted; the waiter still gets its outcome. *)
let test_pool_callback_errors () =
  let pool = Pool.create ~workers:2 ~queue_capacity:8 () in
  let tickets =
    List.init 6 (fun i ->
        Pool.submit ~on_complete:(fun _ -> if i mod 2 = 0 then failwith "callback boom") pool
          (fun () -> i))
  in
  List.iteri
    (fun i t ->
      match Pool.await t with
      | Pool.Done v -> Alcotest.(check int) "result delivered despite callback" i v
      | _ -> Alcotest.fail "job did not complete")
    tickets;
  Pool.shutdown pool;
  Alcotest.(check int) "raising callbacks counted" 3 (Pool.callback_errors pool)

(* regression: executed/timed_out were plain mutable ints read without
   synchronisation from other domains.  Hammer the counters from reader
   domains while the pool is under load; with Atomic counters the final
   tallies are exact and every interim read is a valid monotone value. *)
let test_pool_stats_hammer () =
  let pool = Pool.create ~workers:4 ~queue_capacity:16 () in
  let stop = Atomic.make false in
  let monotone = Atomic.make true in
  let readers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let last = ref 0 in
            while not (Atomic.get stop) do
              let e = Pool.executed pool in
              if e < !last then Atomic.set monotone false;
              last := e;
              ignore (Pool.timed_out pool);
              ignore (Pool.callback_errors pool)
            done))
  in
  let tickets = List.init 200 (fun i -> Pool.submit pool (fun () -> i)) in
  List.iter (fun t -> ignore (Pool.await t)) tickets;
  Pool.shutdown pool;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check bool) "executed counter monotone under races" true (Atomic.get monotone);
  Alcotest.(check int) "no increment lost" 200 (Pool.executed pool)

(* same race on the LRU hit/miss/eviction counters: read them from a
   second domain while the table is being exercised *)
let test_lru_stats_hammer () =
  let lru = Cache.Lru.create ~capacity:8 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Cache.Lru.hits lru);
          ignore (Cache.Lru.misses lru);
          ignore (Cache.Lru.evictions lru)
        done)
  in
  let writers =
    Array.init 2 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to 499 do
              (* working set fits the capacity, so after the first round
                 every find hits — misses and hits are both exercised
                 whatever the domain interleaving *)
              let key = Printf.sprintf "k%d" (i mod 4) in
              ( match Cache.Lru.find lru key with
              | Some _ -> ()
              | None -> Cache.Lru.add lru key (w + i) )
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join reader;
  let hits = Cache.Lru.hits lru and misses = Cache.Lru.misses lru in
  Alcotest.(check int) "every find tallied exactly once" 1000 (hits + misses);
  Alcotest.(check bool) "both outcomes exercised" true (hits > 0 && misses > 0)

(* ---------- end-to-end batches ---------- *)

let config ~workers =
  { Server.default_config with Server.workers; queue_capacity = 8 }

let line ?(extra = "") ~id ~kind ~circuit () =
  Printf.sprintf "{\"id\":%S,\"kind\":%S,\"circuit\":%S%s}" id kind circuit extra

let fingerprint response =
  (* everything except elapsed_ms, which legitimately varies run to run *)
  match Protocol.response_of_line (Protocol.response_to_line response) with
  | Ok (Protocol.Ok { id; kind; result; _ }) ->
    Printf.sprintf "%s|%s|ok|%s" id kind (Json.to_string result)
  | Ok (Protocol.Error { id; code; message }) ->
    Printf.sprintf "%s|%s|%s"
      (Option.value id ~default:"-")
      (Protocol.error_code_name code) message
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

(* a fingerprint without its leading request id, for comparing duplicates *)
let payload_of fp =
  match String.index_opt fp '|' with
  | Some i -> String.sub fp (i + 1) (String.length fp - i - 1)
  | None -> fp

let test_batch_memo_hits () =
  let lines =
    [ line ~id:"a1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a2" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a3" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"m1" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":300,\"seed\":5" ();
      line ~id:"m2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":300,\"seed\":5" () ]
  in
  (* one worker serialises the duplicates, so later ones must hit the memo *)
  let t, responses = Server.run_batch ~config:(config ~workers:1) lines in
  Alcotest.(check int) "five responses" 5 (List.length responses);
  List.iter
    (fun r -> Alcotest.(check bool) "all ok" true (Protocol.is_ok r))
    responses;
  Alcotest.(check bool) "memo hits recorded" true (Cache.result_hits (Server.cache t) > 0);
  let fp = List.map (fun r -> payload_of (fingerprint r)) responses in
  Alcotest.(check string) "duplicate analyze identical" (List.nth fp 0) (List.nth fp 1);
  Alcotest.(check string) "duplicate analyze identical" (List.nth fp 0) (List.nth fp 2);
  Alcotest.(check string) "duplicate mc identical" (List.nth fp 3) (List.nth fp 4)

let test_batch_deterministic_across_pool_sizes () =
  let lines =
    [ line ~id:"r1" ~kind:"analyze" ~circuit:"s27" ~extra:",\"case\":\"II\"" ();
      line ~id:"r2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":500,\"seed\":11" ();
      line ~id:"r3" ~kind:"ssta" ~circuit:"c17" ();
      line ~id:"r4" ~kind:"paths" ~circuit:"c17" ~extra:",\"k\":4" ();
      line ~id:"r5" ~kind:"mc" ~circuit:"c17" ~extra:",\"runs\":500,\"seed\":11" () ]
  in
  let run workers =
    let _, responses = Server.run_batch ~config:(config ~workers) lines in
    List.map fingerprint responses
  in
  let serial = run 1 in
  let parallel = run 4 in
  List.iter2
    (fun a b -> Alcotest.(check string) "same response regardless of pool size" a b)
    serial parallel

let test_batch_identical_across_domains () =
  (* memo keys deliberately carry no domains component: the engine's
     parallel traversal is bit-identical, so the same request must yield
     byte-identical payloads at every analysis_domains setting *)
  let lines =
    [ line ~id:"d1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"d2" ~kind:"analyze" ~circuit:"s386" ~extra:",\"case\":\"II\",\"top\":4" ();
      line ~id:"d3" ~kind:"ssta" ~circuit:"s344" ();
      line ~id:"d4" ~kind:"ssta" ~circuit:"c17" ~extra:",\"top\":2" () ]
  in
  let run domains =
    let config = { (config ~workers:2) with Server.analysis_domains = domains } in
    let _, responses = Server.run_batch ~config lines in
    List.map fingerprint responses
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      List.iter2
        (fun a b -> Alcotest.(check string) "same payload at every domain count" a b)
        serial (run domains))
    [ 2; 4 ]

let test_batch_error_isolation () =
  let lines =
    [ line ~id:"ok1" ~kind:"analyze" ~circuit:"s27" ();
      "{\"id\":\"bad1\",\"kind\":\"frobnicate\"}";
      "no json here";
      line ~id:"bad2" ~kind:"analyze" ~circuit:"no_such_circuit_xyz" ();
      line ~id:"slow" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":5000,\"deadline_ms\":0.001"
        ();
      line ~id:"ok2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":200" ();
      "{\"id\":\"st\",\"kind\":\"stats\"}" ]
  in
  let _, responses = Server.run_batch ~config:(config ~workers:2) lines in
  let codes =
    List.map
      (fun r ->
        match r with
        | Protocol.Ok { kind; _ } -> "ok:" ^ kind
        | Protocol.Error { code; _ } -> Protocol.error_code_name code)
      responses
  in
  Alcotest.(check (list string)) "per-request outcomes"
    [ "ok:analyze"; "unknown_kind"; "bad_json"; "circuit_not_found"; "timeout"; "ok:mc";
      "ok:stats" ]
    codes

(* ---------- single-flight memo ---------- *)

(* A counting stand-in for an analysis: the leader holds the key in
   flight until every other worker has joined it as a waiter, so each
   burst really is concurrent (bounded, in case coalescing is broken). *)
let counting_compute cache ~waiters ~computes result () =
  Atomic.incr computes;
  let give_up = Unix.gettimeofday () +. 5.0 in
  while Cache.result_coalesced cache < waiters && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  result ()

(* Fails instead of hanging if a request never returns (a wedged
   waiter); the stuck pool is then left behind. *)
let memo_burst ~workers ~burst cache compute =
  let pool = Pool.create ~workers ~queue_capacity:(2 * burst) () in
  let finished = Atomic.make 0 in
  let tickets =
    List.init burst (fun _ ->
        Pool.submit pool (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.incr finished)
              (fun () -> Cache.memo cache "k" compute)))
  in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Atomic.get finished < burst && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  if Atomic.get finished < burst then Alcotest.fail "a memo request never returned";
  let outcomes = List.map Pool.await tickets in
  Pool.shutdown pool;
  outcomes

let test_memo_single_flight () =
  List.iter
    (fun workers ->
      let what fmt = Printf.sprintf ("workers=%d: " ^^ fmt) workers in
      let cache = Cache.create () in
      let computes = Atomic.make 0 in
      let payload = Json.Obj [ ("answer", Json.int 42) ] in
      let compute =
        counting_compute cache ~waiters:(workers - 1) ~computes (fun () -> payload)
      in
      let burst = 4 * workers in
      List.iter
        (function
          | Pool.Done p ->
            Alcotest.(check string) (what "payload") (Json.to_string payload) (Json.to_string p)
          | _ -> Alcotest.fail (what "memo request failed"))
        (memo_burst ~workers ~burst cache compute);
      Alcotest.(check int) (what "computed once") 1 (Atomic.get computes);
      Alcotest.(check int) (what "one miss") 1 (Cache.result_misses cache);
      Alcotest.(check int) (what "every repeat is a hit") (burst - 1) (Cache.result_hits cache);
      Alcotest.(check bool) (what "every other worker coalesced") true
        (Cache.result_coalesced cache >= workers - 1))
    [ 1; 2; 3; 4 ]

let test_memo_error_reaches_waiters () =
  let workers = 3 in
  let cache = Cache.create () in
  let computes = Atomic.make 0 in
  let failing =
    counting_compute cache ~waiters:(workers - 1) ~computes (fun () -> failwith "boom")
  in
  List.iter
    (function
      | Pool.Failed (Failure m) -> Alcotest.(check string) "every waiter sees the error" "boom" m
      | _ -> Alcotest.fail "expected the leader's error")
    (memo_burst ~workers ~burst:workers cache failing);
  Alcotest.(check int) "failing compute ran once" 1 (Atomic.get computes);
  Alcotest.(check int) "coalesced waiters" (workers - 1) (Cache.result_coalesced cache);
  Alcotest.(check int) "errors are not hits" 0 (Cache.result_hits cache);
  (* nothing was memoised: the next request computes afresh *)
  let payload = Json.int 7 in
  Alcotest.(check string) "recomputed after the error" "7"
    (Json.to_string (Cache.memo cache "k" (fun () -> Atomic.incr computes; payload)));
  Alcotest.(check int) "second compute" 2 (Atomic.get computes)

(* the leader's store write fails after its compute succeeded (the
   store's file is closed under it): every waiter still gets the error,
   nothing stays in flight, and a later request completes *)
let test_memo_store_failure_reaches_waiters () =
  let workers = 3 in
  let path = Filename.temp_file "spsta_store" ".jsonl" in
  Sys.remove path;
  let store = Spsta_server.Store.open_ ~fsync:false path in
  Spsta_server.Store.close store;
  let cache = Cache.create ~store () in
  let computes = Atomic.make 0 in
  let payload = Json.int 7 in
  let compute = counting_compute cache ~waiters:(workers - 1) ~computes (fun () -> payload) in
  List.iter
    (function
      | Pool.Failed (Unix.Unix_error _) -> ()
      | _ -> Alcotest.fail "expected the leader's store error")
    (memo_burst ~workers ~burst:workers cache compute);
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  Alcotest.(check string) "later request completes" "7"
    (Json.to_string (Cache.memo cache "k" (fun () -> Atomic.incr computes; payload)));
  if Sys.file_exists path then Sys.remove path

(* a key held only by the store is served by the leader without computing *)
let test_memo_reads_store () =
  let path = Filename.temp_file "spsta_store" ".jsonl" in
  Sys.remove path;
  let store = Spsta_server.Store.open_ ~fsync:false path in
  Spsta_server.Store.add store "k" (Json.int 7);
  let cache = Cache.create ~store () in
  Alcotest.(check string) "store payload" "7"
    (Json.to_string (Cache.memo cache "k" (fun () -> Alcotest.fail "computed a stored key")));
  Alcotest.(check int) "store hit" 1 (Spsta_server.Store.hits store);
  Spsta_server.Store.close store;
  Sys.remove path

(* end to end: a same-key burst through the server computes once at any
   pool size, and [stats] reports the repeats as hits *)
let test_batch_burst_computes_once () =
  List.iter
    (fun workers ->
      let burst = 8 in
      let lines =
        List.init burst (fun i ->
            line ~id:(Printf.sprintf "a%d" i) ~kind:"analyze" ~circuit:"s27" ())
        @ [ "{\"id\":\"st\",\"kind\":\"stats\"}" ]
      in
      let _, responses = Server.run_batch ~config:(config ~workers) lines in
      match List.rev responses with
      | Protocol.Ok { kind = "stats"; result; _ } :: _ ->
        let results = Option.bind (Json.member "cache" result) (Json.member "results") in
        let counter name =
          Option.bind results (Json.member name) |> Fun.flip Option.bind Json.to_int_opt
        in
        let what = Printf.sprintf "workers=%d: %s" workers in
        Alcotest.(check (option int)) (what "one miss") (Some 1) (counter "misses");
        Alcotest.(check (option int)) (what "repeats hit") (Some (burst - 1)) (counter "hits");
        Alcotest.(check bool) (what "coalesced reported") true
          (Option.is_some (counter "coalesced"))
      | _ -> Alcotest.fail "last response is not stats")
    [ 1; 2; 3; 4 ]

let test_batch_stats_sees_traffic () =
  let lines =
    [ line ~id:"a1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a2" ~kind:"analyze" ~circuit:"s27" ();
      "{\"id\":\"st\",\"kind\":\"stats\"}" ]
  in
  let _, responses = Server.run_batch ~config:(config ~workers:2) lines in
  match List.rev responses with
  | Protocol.Ok { kind = "stats"; result; _ } :: _ ->
    let hits =
      Option.bind (Json.member "cache" result) (Json.member "results")
      |> Fun.flip Option.bind (Json.member "hits")
      |> Fun.flip Option.bind Json.to_int_opt
    in
    Alcotest.(check bool) "stats reports memo hits" true (Option.get hits > 0);
    let analyze_ok =
      Option.bind (Json.member "metrics" result) (Json.member "requests")
      |> Fun.flip Option.bind (Json.member "analyze")
      |> Fun.flip Option.bind (Json.member "ok")
      |> Fun.flip Option.bind Json.to_int_opt
    in
    Alcotest.(check (option int)) "metrics counted analyzes" (Some 2) analyze_ok
  | _ -> Alcotest.fail "last response is not stats"

let suite =
  [
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "memo single-flight at workers 1-4" `Quick test_memo_single_flight;
    Alcotest.test_case "memo error reaches every waiter" `Quick test_memo_error_reaches_waiters;
    Alcotest.test_case "memo store failure reaches every waiter" `Quick
      test_memo_store_failure_reaches_waiters;
    Alcotest.test_case "memo reads the store" `Quick test_memo_reads_store;
    Alcotest.test_case "batch burst computes once" `Quick test_batch_burst_computes_once;
    Alcotest.test_case "cache load errors" `Quick test_cache_load_errors;
    Alcotest.test_case "cache digest stable" `Quick test_cache_digest_stable;
    Alcotest.test_case "pool results" `Quick test_pool_results;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool deadline" `Quick test_pool_deadline;
    Alcotest.test_case "pool drain" `Quick test_pool_drain;
    Alcotest.test_case "pool callback errors" `Quick test_pool_callback_errors;
    Alcotest.test_case "pool stats hammer" `Quick test_pool_stats_hammer;
    Alcotest.test_case "lru stats hammer" `Quick test_lru_stats_hammer;
    Alcotest.test_case "batch memo hits" `Quick test_batch_memo_hits;
    Alcotest.test_case "batch deterministic across pool sizes" `Quick
      test_batch_deterministic_across_pool_sizes;
    Alcotest.test_case "batch identical across domains" `Quick
      test_batch_identical_across_domains;
    Alcotest.test_case "batch error isolation" `Quick test_batch_error_isolation;
    Alcotest.test_case "batch stats sees traffic" `Quick test_batch_stats_sees_traffic;
  ]
