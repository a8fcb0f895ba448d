module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Flat = Spsta_engine.Flat
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Clark = Spsta_dist.Clark

type arrival = { rise : Normal.t; fall : Normal.t }

(* Two interchangeable engines compute the analysis: the flat
   struct-of-arrays kernel (default — per-net moments in float arrays,
   allocation-free sweeps) and the original record engine over
   [Propagate.Make].  They are bit-identical by construction (the flat
   folds replay the record operation order exactly; the test suite
   asserts Int64-level equality across engines and domain counts), so
   the representation is free to follow whichever engine produced it and
   [arrival] records materialize only at this API boundary. *)
type result = Flat_r of Flat.Ssta.state | Boxed of arrival Propagate.result

let default_input = { rise = Normal.standard; fall = Normal.standard }

(* Base (non-inverted) gate timing: which inputs feed the output rise and
   under which operation.  AND: output rise = MAX of input rises, output
   fall = MIN of input falls; OR is the dual; XOR is direction-agnostic
   and conservatively takes the MAX over both directions of all inputs. *)
let rise_of a = a.rise
let fall_of a = a.fall

let base_arrivals kind (inputs : arrival array) =
  match kind with
  | Gate_kind.Not | Gate_kind.Buf ->
    if Array.length inputs = 1 then (inputs.(0).rise, inputs.(0).fall)
    else invalid_arg "Ssta: NOT/BUF expects one input"
  | Gate_kind.And | Gate_kind.Nand ->
    (Clark.max_normal_map rise_of inputs, Clark.min_normal_map fall_of inputs)
  | Gate_kind.Or | Gate_kind.Nor ->
    (Clark.min_normal_map rise_of inputs, Clark.max_normal_map fall_of inputs)
  | Gate_kind.Xor | Gate_kind.Xnor ->
    let settle = Clark.max_normal_map2 rise_of fall_of inputs in
    (settle, settle)

(* The engine's per-gate transfer function: a pure function of the
   gate's operand arrivals, which is what makes the levelized parallel
   schedule bit-identical to the sequential sweep. *)
let gate_eval ~delay_rf_of _circuit g driver operands =
  match driver with
  | Circuit.Gate { kind; _ } ->
    let base_rise, base_fall = base_arrivals kind operands in
    let rise0, fall0 =
      if Gate_kind.inverting kind then (base_fall, base_rise) else (base_rise, base_fall)
    in
    let d_rise, d_fall = delay_rf_of g in
    { rise = Normal.sum rise0 d_rise; fall = Normal.sum fall0 d_fall }
  | Circuit.Input | Circuit.Dff_output _ -> assert false

let source_of ~input_arrival ~input_arrival_of =
  match input_arrival_of with Some f -> f | None -> fun _ -> input_arrival

(* Sanitizer checker: both direction arrivals must stay finite with
   non-negative sigmas through every SUM / Clark MAX step. *)
let arrival_check : arrival Propagate.Sanitize.check =
 fun _circuit _id a ->
  let open Spsta_lint.Invariant in
  first
    (check_normal ~what:"rise arrival" a.rise @ check_normal ~what:"fall arrival" a.fall)

(* Under a constant mask, a masked gate's output never transitions —
   its arrival is the source statistics of its own net rather than the
   Clark fold of its fan-in, so a folded cone costs one lookup per gate
   and contributes nothing downstream but its launch arrival. *)
let domain ?mask ~source ~delay_rf_of () :
    (module Propagate.DOMAIN with type state = arrival) =
  (module struct
    type state = arrival

    let source = source

    let eval =
      match mask with
      | None -> gate_eval ~delay_rf_of
      | Some m ->
        fun circuit g driver operands ->
          if Bytes.get m g <> '\000' then source g
          else gate_eval ~delay_rf_of circuit g driver operands
  end)

let validate_mask circuit = function
  | None -> ()
  | Some m ->
    if Bytes.length m <> Circuit.num_nets circuit then
      invalid_arg "Ssta: constant_mask length differs from the circuit's net count"

let checked_domain ?check circuit dom =
  if Propagate.Sanitize.resolve check then
    Propagate.Sanitize.wrap ~circuit ~check:arrival_check dom
  else dom

(* --- record engine ------------------------------------------------- *)

let run_record ?mask ~delay_rf_of ~source ?check ?domains circuit =
  let module D = (val checked_domain ?check circuit (domain ?mask ~source ~delay_rf_of ())) in
  let module E = Propagate.Make (D) in
  Boxed (E.run ?domains circuit)

let update_record ~delay_rf_of ~source ?check r ~changed =
  let module D =
    (val checked_domain ?check r.Propagate.circuit (domain ~source ~delay_rf_of ()))
  in
  let module E = Propagate.Make (D) in
  Boxed (E.update r ~changed)

(* --- flat engine --------------------------------------------------- *)

(* The same per-net invariants ([arrival_check]), applied to the flat
   kernel's float slots without materializing records; the kernel
   locates violations itself. *)
let flat_check check =
  if Propagate.Sanitize.resolve check then
    Some
      (fun rise_mu rise_sig fall_mu fall_sig ->
        let open Spsta_lint.Invariant in
        first
          (check_normal_parts ~what:"rise arrival" ~mean:rise_mu ~sigma:rise_sig
          @ check_normal_parts ~what:"fall arrival" ~mean:fall_mu ~sigma:fall_sig))
  else None

let flat_source source id (b : Flat.rf_buf) =
  let a = source id in
  b.Flat.rise_mu <- Normal.mean a.rise;
  b.rise_sig <- Normal.stddev a.rise;
  b.fall_mu <- Normal.mean a.fall;
  b.fall_sig <- Normal.stddev a.fall

(* Per-gate delay writers, one per entry-point delay shape — the uniform
   [analyze] path writes four constants per gate, no intermediate
   records or tuples at all. *)
let flat_delay_uniform mu (_g : Circuit.id) (b : Flat.rf_buf) =
  b.Flat.rise_mu <- mu;
  b.rise_sig <- 0.0;
  b.fall_mu <- mu;
  b.fall_sig <- 0.0

let flat_delay_variational gate_delay g (b : Flat.rf_buf) =
  let d = gate_delay g in
  b.Flat.rise_mu <- Normal.mean d;
  b.rise_sig <- Normal.stddev d;
  b.fall_mu <- Normal.mean d;
  b.fall_sig <- Normal.stddev d

let flat_delay_rf delay_rf g (b : Flat.rf_buf) =
  let rise, fall = delay_rf g in
  b.Flat.rise_mu <- rise;
  b.rise_sig <- 0.0;
  b.fall_mu <- fall;
  b.fall_sig <- 0.0

let run_flat ~delay ~source ?check ?domains circuit =
  Flat_r
    (Flat.Ssta.run ~source:(flat_source source) ~delay ?check:(flat_check check) ?domains circuit)

(* --- entry points -------------------------------------------------- *)

let analyze ?(gate_delay = 1.0) ?input_arrival ?input_arrival_of ?constant_mask ?check
    ?domains ?(engine = `Flat) circuit =
  validate_mask circuit constant_mask;
  let input_arrival = Option.value input_arrival ~default:default_input in
  let source = source_of ~input_arrival ~input_arrival_of in
  match (engine, constant_mask) with
  | `Flat, None ->
    run_flat ~delay:(flat_delay_uniform gate_delay) ~source ?check ?domains circuit
  | (`Record, _ | `Flat, Some _) ->
    (* a mask changes the per-gate transfer, which only the record
       engine's first-class domain can express — force it *)
    let delay = Normal.make ~mu:gate_delay ~sigma:0.0 in
    run_record ?mask:constant_mask
      ~delay_rf_of:(fun _ -> (delay, delay))
      ~source ?check ?domains circuit

let analyze_variational ~gate_delay ?input_arrival ?input_arrival_of ?check ?domains
    ?(engine = `Flat) circuit =
  let input_arrival = Option.value input_arrival ~default:default_input in
  let source = source_of ~input_arrival ~input_arrival_of in
  match engine with
  | `Flat ->
    run_flat ~delay:(flat_delay_variational gate_delay) ~source ?check ?domains circuit
  | `Record ->
    run_record
      ~delay_rf_of:(fun g ->
        let d = gate_delay g in
        (d, d))
      ~source ?check ?domains circuit

let analyze_rf ~delay_rf ?input_arrival ?input_arrival_of ?constant_mask ?check ?domains
    ?(engine = `Flat) circuit =
  validate_mask circuit constant_mask;
  let input_arrival = Option.value input_arrival ~default:default_input in
  let source = source_of ~input_arrival ~input_arrival_of in
  match (engine, constant_mask) with
  | `Flat, None ->
    run_flat ~delay:(flat_delay_rf delay_rf) ~source ?check ?domains circuit
  | (`Record, _ | `Flat, Some _) ->
    let to_normal d = Normal.make ~mu:d ~sigma:0.0 in
    run_record ?mask:constant_mask
      ~delay_rf_of:(fun g ->
        let rise, fall = delay_rf g in
        (to_normal rise, to_normal fall))
      ~source ?check ?domains circuit

(* Updates follow the representation of the result they refine, so a
   record-engine oracle stays on the record engine through a whole
   incremental session and a flat result never pays boxing. *)
let update ?(gate_delay = 1.0) ?(input_arrival = default_input) ?input_arrival_of ?check r
    ~changed =
  let source = source_of ~input_arrival ~input_arrival_of in
  match r with
  | Flat_r st ->
    Flat_r
      (Flat.Ssta.update ~source:(flat_source source) ~delay:(flat_delay_uniform gate_delay)
         ?check:(flat_check check) st ~changed)
  | Boxed br ->
    let delay = Normal.make ~mu:gate_delay ~sigma:0.0 in
    update_record ~delay_rf_of:(fun _ -> (delay, delay)) ~source ?check br ~changed

let update_rf ~delay_rf ?(input_arrival = default_input) ?input_arrival_of ?check r ~changed =
  let source = source_of ~input_arrival ~input_arrival_of in
  match r with
  | Flat_r st ->
    Flat_r
      (Flat.Ssta.update ~source:(flat_source source) ~delay:(flat_delay_rf delay_rf)
         ?check:(flat_check check) st ~changed)
  | Boxed br ->
    let to_normal d = Normal.make ~mu:d ~sigma:0.0 in
    update_record
      ~delay_rf_of:(fun g ->
        let rise, fall = delay_rf g in
        (to_normal rise, to_normal fall))
      ~source ?check br ~changed

(* --- accessors ----------------------------------------------------- *)

let circuit_of = function
  | Flat_r st -> Flat.Ssta.circuit st
  | Boxed r -> r.Propagate.circuit

let arrival r id =
  match r with
  | Boxed r -> r.Propagate.per_net.(id)
  | Flat_r st ->
    {
      rise = Normal.make ~mu:(Flat.Ssta.rise_mean st id) ~sigma:(Flat.Ssta.rise_sigma st id);
      fall = Normal.make ~mu:(Flat.Ssta.fall_mean st id) ~sigma:(Flat.Ssta.fall_sigma st id);
    }

let mean_at r direction id =
  match (r, direction) with
  | Boxed b, `Rise -> Normal.mean b.Propagate.per_net.(id).rise
  | Boxed b, `Fall -> Normal.mean b.Propagate.per_net.(id).fall
  | Flat_r st, `Rise -> Flat.Ssta.rise_mean st id
  | Flat_r st, `Fall -> Flat.Ssta.fall_mean st id

let critical_endpoint r direction =
  match Circuit.endpoints (circuit_of r) with
  | [] -> invalid_arg "Ssta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    List.fold_left
      (fun best e -> if mean_at r direction e > mean_at r direction best then e else best)
      first rest

let max_arrival r direction =
  let a = arrival r (critical_endpoint r direction) in
  match direction with `Rise -> a.rise | `Fall -> a.fall
