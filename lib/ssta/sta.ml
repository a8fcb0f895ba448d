module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate

type bounds = { earliest : float; latest : float }

type result = bounds Propagate.result

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

let analyze ?(gate_delay = 1.0) ?gate_delay_of ?(input_bounds = default_input)
    ?input_bounds_of ?check ?domains circuit =
  let source = source_of ~input_bounds ~input_bounds_of in
  let gate_delay_of = resolve_delay ~gate_delay ~gate_delay_of in
  let module D = (val checked_domain ?check circuit (domain ~source ~gate_delay_of)) in
  let module E = Propagate.Make (D) in
  E.run ?domains circuit

let update ?(gate_delay = 1.0) ?gate_delay_of ?(input_bounds = default_input)
    ?input_bounds_of ?check (r : result) ~changed =
  let source = source_of ~input_bounds ~input_bounds_of in
  let gate_delay_of = resolve_delay ~gate_delay ~gate_delay_of in
  let module D = (val checked_domain ?check r.Propagate.circuit (domain ~source ~gate_delay_of)) in
  let module E = Propagate.Make (D) in
  E.update r ~changed

let bounds (r : result) id = r.Propagate.per_net.(id)

let critical_endpoint (r : result) =
  match Circuit.endpoints r.Propagate.circuit with
  | [] -> invalid_arg "Sta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    let latest_at e = (bounds r e).latest in
    List.fold_left (fun best e -> if latest_at e > latest_at best then e else best) first rest

let max_latest r = (bounds r (critical_endpoint r)).latest
