(* Stateful session subsystem: registry lifecycle and error codes,
   streamed-mutation bit-identity against an independent from-scratch
   analysis, pool affinity ordering and non-blocking admission, the
   persistent result store (recovery, dedup, compaction, torn lines),
   the socket transport end to end — framing errors, per-connection
   pipelining and graceful shutdown over a real Unix-domain socket — and
   the stdio transport on a pipe pair, as the in-process client runs it. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol
module Server = Spsta_server.Server
module Session = Spsta_server.Session
module Store = Spsta_server.Store
module Cache = Spsta_server.Cache
module Pool = Spsta_server.Pool
module Transport = Spsta_server.Transport
module Metrics = Spsta_server.Metrics
module Circuit = Spsta_netlist.Circuit
module Sized = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Rng = Spsta_util.Rng

let json_num json key =
  match Json.member key json with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "no numeric field %s in %s" key (Json.to_string json)

let json_bool json key =
  match Json.member key json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "no bool field %s in %s" key (Json.to_string json)

let json_str json key =
  match Json.member key json with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "no string field %s in %s" key (Json.to_string json)

let json_list json key =
  match Json.member key json with
  | Some (Json.List xs) -> xs
  | _ -> Alcotest.failf "no list field %s in %s" key (Json.to_string json)

let expect_error expected f =
  match f () with
  | exception Session.Error { code; _ } ->
    Alcotest.(check string) "error code" (Protocol.error_code_name expected)
      (Protocol.error_code_name code)
  | _ -> Alcotest.failf "expected %s error" (Protocol.error_code_name expected)

let open_params ?(sizes = 4) ?(ratio = 1.5) session circuit =
  { Protocol.session; circuit; sizes; ratio }

(* ---------- registry lifecycle ---------- *)

let test_registry_lifecycle () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry ~max_sessions:2 metrics in
  let cache = Cache.create () in
  let circuit = (Cache.load_circuit cache "s27").Cache.circuit in
  let gate = Circuit.net_name circuit (Circuit.topo_gates circuit).(0) in
  let source = Circuit.net_name circuit (List.hd (Circuit.sources circuit)) in
  let opened = Session.open_session reg cache (open_params "a" "s27") in
  Alcotest.(check bool) "gates reported" true (json_num opened "gates" > 0.0);
  Alcotest.(check bool) "full sweep timed" true (json_num opened "full_ms" >= 0.0);
  expect_error Protocol.Session_exists (fun () ->
      Session.open_session reg cache (open_params "a" "s27"));
  ignore (Session.open_session reg cache (open_params "b" "s27"));
  expect_error Protocol.Session_limit (fun () ->
      Session.open_session reg cache (open_params "c" "s27"));
  Alcotest.(check int) "gauge counts opens" 2 (Session.open_count reg);
  expect_error Protocol.Unknown_session (fun () ->
      Session.mutate reg "zzz" (Protocol.Resize { net = gate; size = 1 }));
  let m = Session.mutate reg "a" (Protocol.Resize { net = gate; size = 1 }) in
  Alcotest.(check bool) "resize applied" true (json_bool m "applied");
  Alcotest.(check bool) "dirty cone non-empty" true (json_num m "dirty_gates" > 0.0);
  let m2 = Session.mutate reg "a" (Protocol.Resize { net = gate; size = 1 }) in
  Alcotest.(check bool) "same size is a no-op" false (json_bool m2 "applied");
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Resize { net = gate; size = 99 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Resize { net = "no_such_net"; size = 1 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a"
        (Protocol.Set_input
           { net = gate; mu_rise = 0.0; sigma_rise = 1.0; mu_fall = 0.0; sigma_fall = 1.0 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Retype { net = source; gate = Gate_kind.Nand }));
  let v = Session.verify reg "a" in
  Alcotest.(check bool) "incremental state verifies" true (json_bool v "identical");
  let closed = Session.close reg "a" in
  Alcotest.(check string) "close names the session" "a" (json_str closed "session");
  expect_error Protocol.Unknown_session (fun () -> ignore (Session.close reg "a"));
  ignore (Session.open_session reg cache (open_params "c" "s27"));
  Alcotest.(check int) "slot freed by close" 2 (Session.open_count reg)

(* ---------- idle eviction ---------- *)

let test_idle_eviction () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry ~max_sessions:4 metrics in
  let cache = Cache.create () in
  ignore (Session.open_session reg cache (open_params "idle" "s27"));
  ignore (Session.open_session reg cache (open_params "busy" "s27"));
  (* a held inflight count pins the session regardless of its clock *)
  Session.retain reg "busy";
  let victims = Session.evict_idle reg ~idle_timeout_s:(-1.0) in
  Alcotest.(check (list string)) "only the idle session went" [ "idle" ] victims;
  Session.release reg "busy";
  let victims = Session.evict_idle reg ~idle_timeout_s:(-1.0) in
  Alcotest.(check (list string)) "released session is evictable" [ "busy" ] victims;
  Alcotest.(check int) "registry empty" 0 (Session.open_count reg)

(* ---------- streamed mutations vs from-scratch analysis ---------- *)

(* Mirror of one mutation in terms of net names, applied both to the
   live session and to an independent reference copy. *)
type op =
  | Op_resize of string * int
  | Op_retype of string * Gate_kind.t
  | Op_input of string * float * float

let flip_kind = function
  | Gate_kind.And -> Gate_kind.Nand
  | Gate_kind.Nand -> Gate_kind.And
  | Gate_kind.Or -> Gate_kind.Nor
  | Gate_kind.Nor -> Gate_kind.Or
  | Gate_kind.Xor -> Gate_kind.Xnor
  | Gate_kind.Xnor -> Gate_kind.Xor
  | Gate_kind.Not -> Gate_kind.Buf
  | Gate_kind.Buf -> Gate_kind.Not

let test_stream_bit_identity () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry metrics in
  let cache = Cache.create () in
  let name = "s344" in
  let circuit = (Cache.load_circuit cache name).Cache.circuit in
  let gates = Circuit.topo_gates circuit in
  let sources = Array.of_list (Circuit.sources circuit) in
  ignore (Session.open_session reg cache (open_params "eco" name));
  (* generate a deterministic 100-op stream over net names *)
  let rng = Rng.create ~seed:42 in
  let cur_size = Hashtbl.create 64 in
  let cur_kind = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; _ } -> Hashtbl.replace cur_kind (Circuit.net_name circuit g) kind
      | Circuit.Input | Circuit.Dff_output _ -> ())
    gates;
  let ops =
    List.init 100 (fun i ->
        if i mod 13 = 5 then begin
          let s = Circuit.net_name circuit sources.(Rng.int rng (Array.length sources)) in
          Op_input (s, Rng.gaussian rng ~mu:0.0 ~sigma:0.5, 0.5 +. Rng.float rng)
        end
        else if i mod 7 = 3 then begin
          let g = Circuit.net_name circuit gates.(Rng.int rng (Array.length gates)) in
          let kind = flip_kind (Hashtbl.find cur_kind g) in
          Hashtbl.replace cur_kind g kind;
          Op_retype (g, kind)
        end
        else begin
          let g = Circuit.net_name circuit gates.(Rng.int rng (Array.length gates)) in
          let before = Option.value ~default:0 (Hashtbl.find_opt cur_size g) in
          let size = (before + 1 + Rng.int rng 3) mod 4 in
          Hashtbl.replace cur_size g size;
          Op_resize (g, size)
        end)
  in
  (* independent reference: a private copy mutated directly *)
  let ref_circuit = Session.copy_circuit circuit in
  let sized = Sized.family ~sizes:4 ~ratio:1.5 Spsta_netlist.Cell_library.default in
  let asg = Sized.initial ref_circuit in
  let overrides = Hashtbl.create 8 in
  let applied = ref 0 in
  List.iter
    (fun op ->
      let mutation, reference =
        match op with
        | Op_resize (net, size) ->
          ( Protocol.Resize { net; size },
            fun () ->
              ignore (Transform.resize_gate sized ref_circuit asg
                        (Circuit.find_exn ref_circuit net) ~size) )
        | Op_retype (net, kind) ->
          ( Protocol.Retype { net; gate = kind },
            fun () ->
              ignore (Transform.retype_gate ref_circuit (Circuit.find_exn ref_circuit net) ~kind)
          )
        | Op_input (net, mu, sigma) ->
          ( Protocol.Set_input
              { net; mu_rise = mu; sigma_rise = sigma; mu_fall = -.mu; sigma_fall = sigma },
            fun () ->
              Hashtbl.replace overrides
                (Circuit.find_exn ref_circuit net)
                { Ssta.rise = Normal.make ~mu ~sigma;
                  fall = Normal.make ~mu:(-.mu) ~sigma } )
      in
      let payload = Session.mutate reg "eco" mutation in
      if json_bool payload "applied" then incr applied;
      reference ())
    ops;
  Alcotest.(check bool) "mutations drove incremental analyses" true
    (Metrics.sessions_incremental metrics > 50);
  Alcotest.(check int) "all 100 mutations counted" 100 (Metrics.sessions_mutations metrics);
  (* the session's claim about itself *)
  let v = Session.verify reg "eco" in
  Alcotest.(check bool) "session state = from-scratch sweep" true (json_bool v "identical");
  Alcotest.(check int) "every net compared"
    (Circuit.num_nets circuit)
    (int_of_float (json_num v "nets_compared"));
  (* and the independent reference agrees endpoint by endpoint, bit for
     bit *)
  let input_arrival_of id =
    match Hashtbl.find_opt overrides id with
    | Some a -> a
    | None -> { Ssta.rise = Normal.standard; fall = Normal.standard }
  in
  let expected =
    Ssta.analyze_rf ~delay_rf:(Sized.delay_rf sized ref_circuit asg) ~input_arrival_of
      ref_circuit
  in
  let bits = Int64.bits_of_float in
  let q = Session.query reg "eco" ~top:0 in
  let endpoints = json_list q "endpoints" in
  Alcotest.(check int) "all endpoints reported"
    (List.length (Circuit.endpoints ref_circuit))
    (List.length endpoints);
  List.iter
    (fun e ->
      let net = json_str e "net" in
      let a = Ssta.arrival expected (Circuit.find_exn ref_circuit net) in
      List.iter
        (fun (key, value) ->
          Alcotest.(check int64) (net ^ " " ^ key) (bits value) (bits (json_num e key)))
        [ ("mu_rise", Normal.mean a.Ssta.rise); ("sigma_rise", Normal.stddev a.Ssta.rise);
          ("mu_fall", Normal.mean a.Ssta.fall); ("sigma_fall", Normal.stddev a.Ssta.fall) ])
    endpoints;
  ignore (Session.close reg "eco")

(* ---------- pool: affinity ordering and non-blocking admission ---------- *)

let test_pool_affinity_order () =
  let pool = Pool.create ~queue_capacity:64 ~workers:4 () in
  let log = ref [] in
  let log_mutex = Mutex.create () in
  let record i =
    Mutex.lock log_mutex;
    log := i :: !log;
    Mutex.unlock log_mutex
  in
  let tickets =
    List.init 40 (fun i ->
        let affinity = if i mod 2 = 0 then Some "a" else Some "b" in
        Pool.submit ?affinity pool (fun () ->
            record i;
            i))
  in
  List.iter (fun t -> ignore (Pool.await t)) tickets;
  Pool.shutdown pool;
  let seen = List.rev !log in
  let stream key = List.filter (fun i -> i mod 2 = key) seen in
  Alcotest.(check (list int)) "key a executes in submission order"
    (List.init 20 (fun i -> 2 * i))
    (stream 0);
  Alcotest.(check (list int)) "key b executes in submission order"
    (List.init 20 (fun i -> (2 * i) + 1))
    (stream 1)

let test_pool_try_submit_rejects () =
  let pool = Pool.create ~queue_capacity:2 ~workers:1 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let blocker () =
    Atomic.set started true;
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    0
  in
  let t1 = Pool.submit pool blocker in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* worker is busy; fill the runnable queue *)
  let t2 = Pool.submit pool (fun () -> 1) in
  let t3 = Pool.submit pool (fun () -> 2) in
  ( match Pool.try_submit pool (fun () -> 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "try_submit must refuse a full queue" );
  Atomic.set gate true;
  List.iter (fun t -> ignore (Pool.await t)) [ t1; t2; t3 ];
  Pool.shutdown pool

let test_pool_affinity_chain_bound () =
  let pool = Pool.create ~queue_capacity:2 ~workers:1 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let t1 =
    Pool.submit ~affinity:"s" pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        0)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* park two successors behind the running keyed job: chain at capacity *)
  let t2 = Option.get (Pool.try_submit ~affinity:"s" pool (fun () -> 1)) in
  let t3 = Option.get (Pool.try_submit ~affinity:"s" pool (fun () -> 2)) in
  ( match Pool.try_submit ~affinity:"s" pool (fun () -> 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "try_submit must refuse a full affinity chain" );
  (* the runnable queue itself is empty, so unkeyed work is admitted *)
  let t4 =
    match Pool.try_submit pool (fun () -> 4) with
    | Some t -> t
    | None -> Alcotest.fail "unkeyed admission must not be blocked by a parked chain"
  in
  Atomic.set gate true;
  List.iter (fun t -> ignore (Pool.await t)) [ t1; t2; t3; t4 ];
  Pool.shutdown pool

(* ---------- persistent store ---------- *)

let temp_store_path () =
  let path = Filename.temp_file "spsta_store" ".jsonl" in
  Sys.remove path;
  path

let test_store_persistence () =
  let path = temp_store_path () in
  let s = Store.open_ ~fsync:false path in
  Store.add s "k1" (Json.Obj [ ("a", Json.int 1) ]);
  Store.add s "k2" (Json.Str "v2");
  Store.add s "k1" (Json.Str "superseded");
  Alcotest.(check int) "re-store of a known key is not appended" 2 (Store.appends s);
  Store.close s;
  let s2 = Store.open_ ~fsync:false path in
  Alcotest.(check int) "records recovered" 2 (Store.loaded s2);
  ( match Store.find s2 "k1" with
  | Some (Json.Obj [ ("a", Json.Num 1.0) ]) -> ()
  | other ->
    Alcotest.failf "wrong recovered value: %s"
      (match other with Some j -> Json.to_string j | None -> "None") );
  Alcotest.(check bool) "miss counted" true (Store.find s2 "nope" = None);
  Alcotest.(check int) "hits" 1 (Store.hits s2);
  Alcotest.(check int) "misses" 1 (Store.misses s2);
  Store.close s2;
  Sys.remove path

let test_store_compaction_and_torn_lines () =
  let path = temp_store_path () in
  let oc = open_out path in
  (* five keys, five versions each: 20 superseded records force a
     compaction at open; plus one garbage line and one torn append *)
  for version = 1 to 5 do
    for k = 1 to 5 do
      Printf.fprintf oc "{\"k\":\"key%d\",\"v\":%d}\n" k (10 * version)
    done
  done;
  output_string oc "not json at all\n";
  output_string oc "{\"k\":\"torn";
  close_out oc;
  let s = Store.open_ ~fsync:false path in
  Alcotest.(check int) "live records" 5 (Store.length s);
  ( match Store.find s "key3" with
  | Some (Json.Num 50.0) -> ()
  | _ -> Alcotest.fail "latest version must win" );
  Store.close s;
  let lines = ref 0 in
  let ic = open_in path in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "compaction rewrote only live records" 5 !lines;
  Sys.remove path

let test_cache_store_roundtrip () =
  let path = temp_store_path () in
  let key = "ssta|deadbeef|top=0" in
  let payload = Json.Obj [ ("endpoints", Json.List [ Json.int 1 ]) ] in
  let store1 = Store.open_ ~fsync:false path in
  let cache1 = Cache.create ~store:store1 () in
  Cache.store_result cache1 key payload;
  Store.close store1;
  (* a second instance on the same path sees the memoised payload *)
  let store2 = Store.open_ ~fsync:false path in
  let cache2 = Cache.create ~store:store2 () in
  ( match Cache.find_result cache2 key with
  | Some p -> Alcotest.(check string) "payload bytes" (Json.to_string payload) (Json.to_string p)
  | None -> Alcotest.fail "store-backed memo missed after restart" );
  Alcotest.(check int) "store hit counted" 1 (Store.hits store2);
  (* promoted into the LRU: the next lookup never reaches the store *)
  ignore (Cache.find_result cache2 key);
  Alcotest.(check int) "second lookup served by LRU" 1 (Store.hits store2);
  Store.close store2;
  Sys.remove path

(* ---------- socket transport ---------- *)

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spsta_test_%d.sock" (Unix.getpid ()))

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 100

let rpc ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let ok_result line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Ok { result; _ }) -> result
  | Ok (Protocol.Error { code; message; _ }) ->
    Alcotest.failf "unexpected error %s: %s" (Protocol.error_code_name code) message
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

let error_code line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Error { code; _ }) -> Protocol.error_code_name code
  | Ok (Protocol.Ok _) -> Alcotest.failf "expected an error, got ok: %s" line
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

let test_socket_transport () =
  let path = socket_path () in
  if Sys.file_exists path then Sys.remove path;
  let config =
    { Server.default_config with
      Server.workers = 2; max_frame_bytes = 4096; max_inflight = 8 }
  in
  let server =
    Domain.spawn (fun () ->
        ignore (Transport.run ~config ~signals:false (Transport.Unix_socket path)))
  in
  wait_for_socket path;
  let ic, oc = Unix.open_connection (Unix.ADDR_UNIX path) in
  (* full session lifecycle over the wire *)
  let opened =
    ok_result
      (rpc ic oc "{\"id\":\"o\",\"kind\":\"open\",\"session\":\"w\",\"circuit\":\"s27\"}")
  in
  Alcotest.(check string) "session echoed" "w" (json_str opened "session");
  let q =
    ok_result (rpc ic oc "{\"id\":\"q0\",\"kind\":\"query\",\"session\":\"w\",\"top\":1}")
  in
  Alcotest.(check int) "top=1 returns one endpoint" 1 (List.length (json_list q "endpoints"));
  let source =
    (* a real input net of s27, looked up out of band *)
    let c = (Cache.load_circuit (Cache.create ()) "s27").Cache.circuit in
    Circuit.net_name c (List.hd (Circuit.sources c))
  in
  let m =
    ok_result
      (rpc ic oc
         (Printf.sprintf
            "{\"id\":\"m\",\"kind\":\"mutate\",\"session\":\"w\",\"op\":\"set_input\",\"net\":%s,\"mu_rise\":0.5}"
            (Json.to_string (Json.string source))))
  in
  Alcotest.(check bool) "mutation applied over the wire" true (json_bool m "applied");
  let v = ok_result (rpc ic oc "{\"id\":\"v\",\"kind\":\"verify\",\"session\":\"w\"}") in
  Alcotest.(check bool) "verify over the wire" true (json_bool v "identical");
  (* invalid UTF-8 answers a structured error and keeps the connection *)
  Alcotest.(check string) "invalid utf8 code" "invalid_utf8" (error_code (rpc ic oc "\xff\xfe{"));
  let stats = ok_result (rpc ic oc "{\"id\":\"s\",\"kind\":\"stats\"}") in
  ( match Json.member "sessions" stats with
  | Some sessions ->
    Alcotest.(check (float 0.0)) "one open session" 1.0 (json_num sessions "open")
  | None -> Alcotest.fail "stats must report session gauges" );
  (* an oversized frame answers a structured error, then closes *)
  let ic2, oc2 = Unix.open_connection (Unix.ADDR_UNIX path) in
  let big = String.concat "" [ "{\"id\":\""; String.make 5000 'x'; "\"}" ] in
  Alcotest.(check string) "frame too large code" "frame_too_large" (error_code (rpc ic2 oc2 big));
  ( match input_line ic2 with
  | exception End_of_file -> ()
  | line -> Alcotest.failf "connection must close after frame_too_large, got %s" line );
  (try Unix.shutdown_connection ic2 with _ -> ());
  (* graceful shutdown: request is acknowledged after the drain *)
  let ack = ok_result (rpc ic oc "{\"id\":\"bye\",\"kind\":\"shutdown\"}") in
  ( match Json.member "drained" ack with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "shutdown ack must confirm the drain" );
  Domain.join server;
  (try Unix.shutdown_connection ic with _ -> ());
  Alcotest.(check bool) "socket file removed on shutdown" false (Sys.file_exists path)

(* The stdio transport on a borrowed pipe pair, wired the way the
   in-process client of [spsta session] wires it: no signal handlers,
   and closing the request pipe is the EOF that drains the server.
   [f] talks over the channels; afterwards the request side is closed,
   every trailing response line is collected, and the drained server
   is returned with them. *)
let with_pipe_transport ?(config = Server.default_config) f =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close req_r; Unix.close resp_w)
          (fun () -> Transport.run ~config ~signals:false (Transport.Stdio (req_r, resp_w))))
  in
  let ic = Unix.in_channel_of_descr resp_r and oc = Unix.out_channel_of_descr req_w in
  f ic oc;
  close_out oc;
  let rec trailing acc =
    match input_line ic with line -> trailing (line :: acc) | exception End_of_file -> acc
  in
  let lines = List.rev (trailing []) in
  let t = Domain.join server in
  close_in ic;
  (t, lines)

let test_pipe_transport () =
  let t, trailing =
    with_pipe_transport (fun ic oc ->
        ignore
          (ok_result
             (rpc ic oc "{\"id\":\"o\",\"kind\":\"open\",\"session\":\"p\",\"circuit\":\"s27\"}"));
        let source =
          let c = (Cache.load_circuit (Cache.create ()) "s27").Cache.circuit in
          Circuit.net_name c (List.hd (Circuit.sources c))
        in
        let m =
          ok_result
            (rpc ic oc
               (Printf.sprintf
                  "{\"id\":\"m\",\"kind\":\"mutate\",\"session\":\"p\",\"op\":\"set_input\",\"net\":%s,\"mu_rise\":0.5}"
                  (Json.to_string (Json.string source))))
        in
        Alcotest.(check bool) "mutation applied over the pipe" true (json_bool m "applied");
        let v = ok_result (rpc ic oc "{\"id\":\"v\",\"kind\":\"verify\",\"session\":\"p\"}") in
        Alcotest.(check bool) "verify over the pipe" true (json_bool v "identical"))
  in
  (* EOF drained the server: no stray output, the response pipe closed,
     and the session's work is on the books *)
  Alcotest.(check (list string)) "nothing after EOF" [] trailing;
  Alcotest.(check int) "one session opened" 1
    (Metrics.sessions_opened_total (Server.metrics t));
  Alcotest.(check int) "one mutation applied" 1 (Metrics.sessions_mutations (Server.metrics t))

(* Many frames in one read: every frame is answered exactly once, LF and
   CRLF framing alike *)
let test_many_frames_one_write () =
  let n = 1200 in
  let frames = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    Buffer.add_string frames
      (Printf.sprintf "{\"id\":\"f%d\",\"kind\":\"stats\"}%s" i
         (if i mod 2 = 0 then "\r\n" else "\n"))
  done;
  let _, responses =
    with_pipe_transport (fun _ oc ->
        let bytes = Buffer.contents frames in
        (* one write(2): the pipe holds the whole batch unread *)
        let fd = Unix.descr_of_out_channel oc in
        Alcotest.(check int) "one write" (String.length bytes)
          (Unix.single_write_substring fd bytes 0 (String.length bytes)))
  in
  Alcotest.(check int) "one response per frame" n (List.length responses);
  let seen = Hashtbl.create n in
  List.iter
    (fun line ->
      match Protocol.response_of_line line with
      | Ok (Protocol.Ok { id; _ }) ->
        if Hashtbl.mem seen id then Alcotest.failf "id %s answered twice" id;
        Hashtbl.add seen id ()
      | Ok (Protocol.Error { message; _ }) -> Alcotest.failf "unexpected error: %s" message
      | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message)
    responses;
  for i = 0 to n - 1 do
    if not (Hashtbl.mem seen (Printf.sprintf "f%d" i)) then Alcotest.failf "id f%d unanswered" i
  done

let suite =
  [
    Alcotest.test_case "registry lifecycle" `Quick test_registry_lifecycle;
    Alcotest.test_case "idle eviction" `Quick test_idle_eviction;
    Alcotest.test_case "streamed mutations = from-scratch analysis" `Quick
      test_stream_bit_identity;
    Alcotest.test_case "pool affinity ordering" `Quick test_pool_affinity_order;
    Alcotest.test_case "pool try_submit rejects when full" `Quick test_pool_try_submit_rejects;
    Alcotest.test_case "pool bounds affinity chains" `Quick test_pool_affinity_chain_bound;
    Alcotest.test_case "store persists across restart" `Quick test_store_persistence;
    Alcotest.test_case "store compacts and skips torn lines" `Quick
      test_store_compaction_and_torn_lines;
    Alcotest.test_case "cache serves warm hits from the store" `Quick test_cache_store_roundtrip;
    Alcotest.test_case "socket transport end to end" `Quick test_socket_transport;
    Alcotest.test_case "stdio transport over a pipe pair" `Quick test_pipe_transport;
    Alcotest.test_case "1000+ frames from one write" `Quick test_many_frames_one_write;
  ]
