(* Benchmark helper: generates the benchmark's inputs, computes the
   in-process references its correctness verdict compares against, and
   runs the traced per-layer split.  [run.py] drives it; the program
   under test (the [spsta] binary) only ever sees the files written
   here.

     pb gen WORKLOAD SEED DIR         write inputs, print their properties
     pb reference < requests.jsonl    Engine.execute, one fresh Cache
     pb trace WORKLOAD SEED DIR OUT   per-layer spans + counts as JSON

   Every layer is timed from outside, around calls into its public
   functions; nothing here reaches into lib/ internals. *)

module Circuit = Spsta_netlist.Circuit
module Bench_io = Spsta_netlist.Bench_io
module Generator = Spsta_netlist.Generator
module Sized = Spsta_netlist.Sized_library
module Cell_library = Spsta_netlist.Cell_library
module Transform = Spsta_netlist.Transform
module Gate_kind = Spsta_logic.Gate_kind
module Ssta = Spsta_ssta.Ssta
module Analyzer = Spsta_core.Analyzer
module Four_value = Spsta_core.Four_value
module Static = Spsta_analysis.Static
module Lint = Spsta_lint.Lint
module Monte_carlo = Spsta_sim.Monte_carlo
module Sizer = Spsta_opt.Sizer
module Workloads = Spsta_experiments.Workloads
module Benchmarks = Spsta_experiments.Benchmarks
module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol
module Cache = Spsta_server.Cache
module Engine = Spsta_server.Engine
module Rng = Spsta_util.Rng

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt
let spec = Workloads.spec_fn Workloads.Case_i

(* ---------- workload inputs ---------- *)

(* The 100k-gate circuit of eco_session: the c100k scale profile,
   re-seeded from the workload seed. *)
let c100k seed =
  match Generator.find_profile "c100k" with
  | Some p -> Generator.generate { p with Generator.seed }
  | None -> fail "no c100k profile"

let circuits_of workload seed =
  match workload with
  | "eco_session" -> [ ("eco", fun () -> c100k seed) ]
  | "serve_mix" -> List.map (fun n -> (n, fun () -> Benchmarks.load n)) Benchmarks.evaluated_names
  | w -> fail "unknown workload %s" w

let bench_path dir name = Filename.concat dir (name ^ ".bench")

(* ECO plan over [c]: mostly resizes and in-place retypes of random
   gates (small cones), a few re-seeded timing sources (large cones),
   with a [query] read after every fourth mutation.  Gates are drawn
   without replacement, so until the plan has used every gate (40,000
   items on 100,000 gates for eco_session) each mutation touches a gate
   no earlier item touched, and takes effect on any fresh copy of the
   circuit — each eco_session session opens one.  Past that point (the
   traced run's 500-item replay on one stand-in copy) the deck is
   reshuffled, and the plan mirrors sizes and kinds so every resize
   still changes the size and every retype flips the current kind. *)
let sizes = 4

let flip = function
  | Gate_kind.And -> Gate_kind.Nand
  | Gate_kind.Nand -> Gate_kind.And
  | Gate_kind.Or -> Gate_kind.Nor
  | Gate_kind.Nor -> Gate_kind.Or
  | Gate_kind.Xor -> Gate_kind.Xnor
  | Gate_kind.Xnor -> Gate_kind.Xor
  | Gate_kind.Not -> Gate_kind.Buf
  | Gate_kind.Buf -> Gate_kind.Not

let eco_plan c ~seed ~length =
  let rng = Rng.create ~seed in
  let deck = Array.copy (Circuit.topo_gates c) in
  let dealt = ref 0 in
  let draw_gate () =
    let n = Array.length deck in
    if !dealt = n then dealt := 0;
    let j = !dealt + Rng.int rng (n - !dealt) in
    let g = deck.(j) in
    deck.(j) <- deck.(!dealt);
    deck.(!dealt) <- g;
    incr dealt;
    g
  in
  let sources = Array.of_list (Circuit.sources c) in
  let size_of = Array.make (Circuit.num_nets c) 0 in
  let kind_of =
    Array.init (Circuit.num_nets c) (fun g ->
        match Circuit.driver c g with
        | Circuit.Gate { kind; _ } -> kind
        | Circuit.Input | Circuit.Dff_output _ -> Gate_kind.Buf)
  in
  List.init length (fun i ->
      if i mod 5 = 4 then `Query
      else
        let r = Rng.float rng in
        if r < 0.04 then begin
          let s = sources.(Rng.int rng (Array.length sources)) in
          let mu () = Float.round (Rng.float rng *. 2000.0) /. 1000.0 in
          let sigma () = 0.5 +. (Float.round (Rng.float rng *. 1000.0) /. 1000.0) in
          let mu_rise = mu () in
          let sigma_rise = sigma () in
          let mu_fall = mu () in
          let sigma_fall = sigma () in
          `Mutate
            (Protocol.Set_input
               { net = Circuit.net_name c s; mu_rise; sigma_rise; mu_fall; sigma_fall })
        end
        else
          let g = draw_gate () in
          let net = Circuit.net_name c g in
          if r < 0.20 then begin
            let gate = flip kind_of.(g) in
            kind_of.(g) <- gate;
            `Mutate (Protocol.Retype { net; gate })
          end
          else begin
            let size = (size_of.(g) + 1 + Rng.int rng (sizes - 1)) mod sizes in
            size_of.(g) <- size;
            `Mutate (Protocol.Resize { net; size })
          end)

let plan_line = function
  | `Query -> {|{"kind":"query","top":5}|}
  | `Mutate m ->
    (* the protocol's own encoder, minus the id and session the client adds *)
    Protocol.request_to_line
      { Protocol.id = ""; deadline_ms = None;
        kind = Protocol.Session_mutate { session = ""; mutation = m } }

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let circuit_props c ~path =
  Json.Obj
    [ ("name", Json.string (Circuit.name c)); ("path", Json.string path);
      ("gates", Json.int (Circuit.gate_count c)); ("nets", Json.int (Circuit.num_nets c));
      ("depth", Json.int (Circuit.depth c));
      ("endpoints", Json.int (List.length (Circuit.endpoints c)));
      ("bytes", Json.int (Unix.stat path).Unix.st_size) ]

(* Writes every circuit as .bench, plus an ECO plan over the last one:
   eco_session streams it; the other workloads' traced runs replay a
   prefix of it. *)
let gen workload seed dir =
  let circuits = circuits_of workload seed in
  let last = List.length circuits - 1 in
  let props =
    List.mapi
      (fun i (name, make) ->
        let c = make () in
        let path = bench_path dir name in
        Bench_io.write_file c path;
        if i = last then
          write_lines (Filename.concat dir "eco_plan.jsonl")
            (List.map plan_line
               (eco_plan c ~seed ~length:(if workload = "eco_session" then 40_000 else 500)));
        circuit_props c ~path)
      circuits
  in
  print_endline (Json.to_string (Json.Obj [ ("circuits", Json.List props) ]))

(* ---------- serve_mix reference ---------- *)

(* One line in, one line out: the id, a tab, and the encoded [result] of
   [Engine.execute] — the bytes the server's response must carry after
   ["result":].  The cache is fresh (nothing the server computed is in
   it) and the caller sends each memo key once, so every answer is
   computed here; only parsed circuits are shared between requests. *)
let reference () =
  let cache = Cache.create () in
  try
    while true do
      let line = input_line stdin in
      match Protocol.request_of_line line with
      | Error e -> fail "bad request line: %s" e.Protocol.message
      | Ok req -> (
        match Engine.execute cache req with
        | Protocol.Ok { result; _ } ->
          Printf.printf "%s\t%s\n" req.Protocol.id (Json.to_string result)
        | Protocol.Error { code; message; _ } ->
          Printf.printf "%s\terror:%s:%s\n" req.Protocol.id (Protocol.error_code_name code)
            message )
    done
  with End_of_file -> ()

(* ---------- traced per-layer run ---------- *)

(* Spans are kept in memory and written once, as Chrome trace events.
   Each records its parent span and the request it belongs to, plus
   the GC words allocated inside it — deterministic for these
   single-domain calls, so they repeat exactly across runs. *)
type span = {
  sid : int;
  parent : int;
  name : string;
  req : string;
  ts_us : float;
  dur_us : float;
  minor_words : float;
  major_words : float;
  counters : (string * Json.t) list;
}

let spans = ref []
let next_sid = ref 0
let stack = ref [ 0 ]
let t_origin = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. t_origin) *. 1e6

let span ?(req = "") ?(counters = fun _ -> []) name f =
  incr next_sid;
  let sid = !next_sid in
  let parent = List.hd !stack in
  stack := sid :: !stack;
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = now_us () in
  let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
  let t1 = now_us () in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let s =
    { sid; parent; name; req; ts_us = t0; dur_us = t1 -. t0; minor_words; major_words;
      counters = counters r }
  in
  spans := s :: !spans;
  (r, s)

(* Per-layer accumulators: a time metric sums over the workload's
   circuits; [samples] keeps per-call values for the median metrics. *)
let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let add k v = Hashtbl.replace metrics k (v +. Option.value ~default:0.0 (Hashtbl.find_opt metrics k))
let sample k v = Hashtbl.replace samples k (v :: Option.value ~default:[] (Hashtbl.find_opt samples k))

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed key f =
  let r, s = span key f in
  add (key ^ "_s") (s.dur_us /. 1e6);
  (r, s)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

(* Each circuit's [Static.run] fact counts, printed as input
   properties rather than metrics. *)
let inputs = ref []

let trace_circuit ~seed ~name ~path make =
  let gen_c, _ = timed "netlist.generate" make in
  let c, ps = timed "netlist.parse" (fun () -> Bench_io.parse_file path) in
  add "netlist.parse_minor_words" ps.minor_words;
  ignore (timed "netlist.csr" (fun () -> Circuit.csr c));
  ignore (timed "netlist.to_string" (fun () -> Bench_io.to_string c));
  ignore (timed "ssta.analyze" (fun () -> Ssta.analyze c));
  let _, ms = timed "spsta.moments" (fun () -> Analyzer.Moments.analyze c ~spec) in
  add "spsta.moments_minor_words" ms.minor_words;
  let module A = Spsta_analysis in
  ignore (timed "analysis.constprop" (fun () -> A.Constprop.run c));
  ignore (timed "analysis.reconvergence" (fun () -> A.Reconvergence.run c));
  ignore (timed "analysis.observability" (fun () -> A.Observability.run c));
  ignore (timed "analysis.crit_bounds" (fun () -> A.Crit_bounds.run c));
  let library = Cell_library.unit_delay in
  let facts, _ =
    timed "analysis.static" (fun () ->
        Static.run ~delay_bounds:(fun id -> A.Crit_bounds.bounds_of_library library c id) c)
  in
  inputs :=
    (name, Json.Obj (("gates", Json.int (Circuit.gate_count c))
                     :: List.map (fun (k, v) -> (k, Json.int v)) (Static.fact_counts facts)))
    :: !inputs;
  let findings, _ =
    timed "lint.check_circuit" (fun () ->
        Lint.check_circuit ~library ~spec ~grid:(0.1, 1e-9) c)
  in
  add "lint.findings" (float_of_int (List.length findings));
  ignore (timed "lint.check_dataflow" (fun () -> Lint.check_dataflow c));
  let sized = Sized.family ~sizes ~ratio:1.5 Cell_library.default in
  let _, ls = span "server.load_circuit" (fun () -> Cache.load_circuit (Cache.create ()) path) in
  sample "server.load_circuit_ms" (ls.dur_us /. 1000.0);
  (* ECO replay on the parsed copy: full record sweep under the
     session's sized delays, then one dirty-cone update per planned
     mutation — what an eco_session server does per [mutate] *)
  let assignment = Sized.initial c in
  let arrivals = Hashtbl.create 8 in
  let arrival_of id =
    match Hashtbl.find_opt arrivals id with
    | Some a -> a
    | None -> { Ssta.rise = Spsta_dist.Normal.standard; fall = Spsta_dist.Normal.standard }
  in
  let delay_rf id = Sized.delay_rf sized c assignment id in
  let result, _ =
    timed "ssta.analyze_rf" (fun () ->
        Ssta.analyze_rf ~engine:`Record ~delay_rf ~input_arrival_of:arrival_of c)
  in
  let result = ref result in
  let plan = eco_plan gen_c ~seed ~length:500 in
  List.iter
    (function
      | `Query -> ()
      | `Mutate m ->
        let id net = Circuit.find_exn c net in
        let changed =
          match m with
          | Protocol.Resize { net; size } -> Transform.resize_gate sized c assignment (id net) ~size
          | Protocol.Retype { net; gate } -> Transform.retype_gate c (id net) ~kind:gate
          | Protocol.Set_input { net; mu_rise; sigma_rise; mu_fall; sigma_fall } ->
            Hashtbl.replace arrivals (id net)
              { Ssta.rise = Spsta_dist.Normal.make ~mu:mu_rise ~sigma:sigma_rise;
                fall = Spsta_dist.Normal.make ~mu:mu_fall ~sigma:sigma_fall };
            [ id net ]
        in
        let cone = ref 0 in
        let counting id = incr cone; delay_rf id in
        let r, s =
          span "ssta.update_rf"
            ~counters:(fun _ -> [ ("dirty_gates", Json.int !cone) ])
            (fun () ->
              Ssta.update_rf ~delay_rf:counting ~input_arrival_of:arrival_of !result ~changed)
        in
        result := r;
        sample "ssta.update_rf_ms" (s.dur_us /. 1000.0);
        add "ssta.dirty_gates" (float_of_int !cone))
    plan

(* Monte Carlo and the sizer with the protocol's defaults (10,000 runs;
   400 moves, 8 candidates, 4 sizes at ratio 1.5), as serve_mix sends
   them, on the nine stand-ins: the only circuits those requests go to.
   At the defaults, Monte Carlo alone takes ~30 s on 100k gates. *)
let trace_mc_size () =
  let sized = Sized.family ~sizes ~ratio:1.5 Cell_library.default in
  List.iter
    (fun name ->
      let c = Benchmarks.load name in
      ignore
        (span ~req:name ("workload.standin." ^ name) (fun () ->
             ignore (timed "sim.mc" (fun () -> Monte_carlo.simulate ~seed:42 c ~spec));
             ignore (timed "opt.sizer" (fun () -> Sizer.run sized c)))))
    Benchmarks.evaluated_names

(* Sequential replay of the workload's request stream through the
   server's own codec and engine on one shared cache: decode, execute
   (memo lookup, compute on a miss), encode — one request id per
   span tree. *)
let replay_requests lines =
  let cache = Cache.create () in
  List.iter
    (fun line ->
      let req, ds =
        span "server.decode" (fun () ->
            match Protocol.request_of_line line with
            | Ok r -> r
            | Error e -> fail "bad request line: %s" e.Protocol.message)
      in
      let rid = req.Protocol.id in
      (* the id is known only once decoded: tag the decode span now *)
      spans := { ds with req = rid } :: List.tl !spans;
      sample "server.decode_us" ds.dur_us;
      let hits0 = Cache.result_hits cache in
      let resp, es = span ~req:rid "server.execute" (fun () -> Engine.execute cache req) in
      if Cache.result_hits cache = hits0 then
        sample ("server.execute_ms." ^ Protocol.kind_name req.Protocol.kind) (es.dur_us /. 1000.0);
      let _, cs = span ~req:rid "server.encode" (fun () -> Protocol.response_to_line resp) in
      sample "server.encode_us" cs.dur_us)
    lines;
  add "server.replay_memo_hits" (float_of_int (Cache.result_hits cache));
  add "server.replay_memo_misses" (float_of_int (Cache.result_misses cache))

let write_trace out =
  let ev s =
    Json.Obj
      [ ("name", Json.string s.name); ("cat", Json.string (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.string "X"); ("ts", Json.float s.ts_us); ("dur", Json.float s.dur_us);
        ("pid", Json.int 1); ("tid", Json.int 1);
        ( "args",
          Json.Obj
            ([ ("span_id", Json.int s.sid); ("parent_id", Json.int s.parent);
               ("request_id", Json.string s.req);
               ("minor_words", Json.float s.minor_words);
               ("major_words", Json.float s.major_words) ]
            @ s.counters) ) ]
  in
  let oc = open_out_bin out in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.rev_map ev !spans)) ]));
  close_out oc

(* The cost of one span, measured on empty spans, times the spans
   recorded: the time tracing added to this run. *)
let tracing_overhead_s () =
  let kept = !spans in
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (span "trace.empty" ignore)
  done;
  let per_span = (Unix.gettimeofday () -. t0) /. float_of_int n in
  spans := kept;
  per_span *. float_of_int (List.length kept)

(* [requests.jsonl] in [dir] is the request stream the workload sent
   to the server. *)
let trace workload seed dir out =
  List.iter
    (fun (name, make) ->
      let path = bench_path dir name in
      ignore
        (span ~req:name ("workload." ^ name) (fun () ->
             trace_circuit ~seed ~name ~path make)))
    (circuits_of workload seed);
  trace_mc_size ();
  ignore
    (span "server.replay" (fun () ->
         replay_requests (read_lines (Filename.concat dir "requests.jsonl"))));
  Hashtbl.iter (fun k xs -> Hashtbl.replace metrics k (median xs)) samples;
  add "trace.overhead_s" (tracing_overhead_s ());
  write_trace out;
  let kv = Hashtbl.fold (fun k v acc -> (k, Json.float v) :: acc) metrics [] |> List.sort compare in
  print_endline
    (Json.to_string (Json.Obj [ ("metrics", Json.Obj kv); ("inputs", Json.Obj (List.rev !inputs)) ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ "reference" ] -> reference ()
  | [ "trace"; w; seed; dir; out ] -> trace w (int_of_string seed) dir out
  | _ -> fail "usage: pb gen|reference|trace ..."
