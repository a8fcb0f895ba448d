module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Flat = Spsta_engine.Flat

type bounds = { earliest : float; latest : float }

(* Same two-engine split as [Ssta]: the flat struct-of-arrays kernel by
   default, the boxed-record engine as differential oracle — bit
   identical, records materialized at this boundary only. *)
type result = Flat_r of Flat.Sta.state | Boxed of bounds Propagate.result

let default_input = { earliest = 0.0; latest = 0.0 }

let gate_eval ~gate_delay_of _circuit g driver operands =
  match driver with
  | Circuit.Gate _ ->
    let earliest =
      Array.fold_left (fun acc (b : bounds) -> Float.min acc b.earliest) infinity operands
    in
    let latest =
      Array.fold_left (fun acc (b : bounds) -> Float.max acc b.latest) neg_infinity operands
    in
    let gate_delay = gate_delay_of g in
    { earliest = earliest +. gate_delay; latest = latest +. gate_delay }
  | Circuit.Input | Circuit.Dff_output _ -> assert false

let source_of ~input_bounds ~input_bounds_of =
  match input_bounds_of with Some f -> f | None -> fun _ -> input_bounds

(* Sanitizer checker: the [earliest, latest] window must stay a finite,
   ordered interval through every min/max/shift step. *)
let bounds_check : bounds Propagate.Sanitize.check =
 fun _circuit _id b ->
  Spsta_lint.Invariant.(
    first (check_interval ~what:"arrival window" (b.earliest, b.latest)))

let domain ~source ~gate_delay_of : (module Propagate.DOMAIN with type state = bounds) =
  (module struct
    type state = bounds

    let source = source
    let eval = gate_eval ~gate_delay_of
  end)

let checked_domain ?check circuit dom =
  if Propagate.Sanitize.resolve check then
    Propagate.Sanitize.wrap ~circuit ~check:bounds_check dom
  else dom

let resolve_delay ~gate_delay ~gate_delay_of =
  match gate_delay_of with Some f -> f | None -> fun _ -> gate_delay

(* The same window invariant, against the flat kernel's float slots. *)
let flat_check check =
  if Propagate.Sanitize.resolve check then
    Some
      (fun earliest latest ->
        Spsta_lint.Invariant.(first (check_interval ~what:"arrival window" (earliest, latest))))
  else None

let flat_source source id (b : Flat.Sta.buf) =
  let s = source id in
  b.Flat.Sta.b_early <- s.earliest;
  b.b_late <- s.latest

let analyze ?(gate_delay = 1.0) ?gate_delay_of ?(input_bounds = default_input)
    ?input_bounds_of ?check ?domains ?(engine = `Flat) circuit =
  let source = source_of ~input_bounds ~input_bounds_of in
  let gate_delay_of = resolve_delay ~gate_delay ~gate_delay_of in
  match engine with
  | `Flat ->
    Flat_r
      (Flat.Sta.run ~source:(flat_source source) ~delay:gate_delay_of
         ?check:(flat_check check) ?domains circuit)
  | `Record ->
    let module D = (val checked_domain ?check circuit (domain ~source ~gate_delay_of)) in
    let module E = Propagate.Make (D) in
    Boxed (E.run ?domains circuit)

let update ?(gate_delay = 1.0) ?gate_delay_of ?(input_bounds = default_input)
    ?input_bounds_of ?check r ~changed =
  let source = source_of ~input_bounds ~input_bounds_of in
  let gate_delay_of = resolve_delay ~gate_delay ~gate_delay_of in
  match r with
  | Flat_r st ->
    Flat_r
      (Flat.Sta.update ~source:(flat_source source) ~delay:gate_delay_of
         ?check:(flat_check check) st ~changed)
  | Boxed br ->
    let module D =
      (val checked_domain ?check br.Propagate.circuit (domain ~source ~gate_delay_of))
    in
    let module E = Propagate.Make (D) in
    Boxed (E.update br ~changed)

let circuit_of = function
  | Flat_r st -> Flat.Sta.circuit st
  | Boxed r -> r.Propagate.circuit

let bounds r id =
  match r with
  | Boxed r -> r.Propagate.per_net.(id)
  | Flat_r st -> { earliest = Flat.Sta.earliest st id; latest = Flat.Sta.latest st id }

let latest_at r id =
  match r with
  | Boxed r -> r.Propagate.per_net.(id).latest
  | Flat_r st -> Flat.Sta.latest st id

let critical_endpoint r =
  match Circuit.endpoints (circuit_of r) with
  | [] -> invalid_arg "Sta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    List.fold_left (fun best e -> if latest_at r e > latest_at r best then e else best) first rest

let max_latest r = (bounds r (critical_endpoint r)).latest
