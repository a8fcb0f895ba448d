(** Classical corner static timing analysis: per-net [min, max] arrival
    bounds under unit gate delays, input-vector oblivious.  This is the
    "two dotted lines" of the paper's Fig. 1.

    Traversal (sequential, levelized-parallel and incremental) comes
    from the record engine, {!Spsta_engine.Propagate.Make}, with the
    sanitizer ({!Spsta_engine.Propagate.Sanitize.wrap}) around the
    domain under [check]. *)

type bounds = { earliest : float; latest : float }

type result

val analyze :
  ?gate_delay:float ->
  ?gate_delay_of:(Spsta_netlist.Circuit.id -> float) ->
  ?input_bounds:bounds ->
  ?input_bounds_of:(Spsta_netlist.Circuit.id -> bounds) ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** [gate_delay_of] overrides [gate_delay] (default 1.0) per gate-output
    net — e.g. sized-cell mean delays from
    {!Spsta_netlist.Sized_library}.

    [input_bounds] defaults to {earliest = 0.; latest = 0.}; the paper's
    N(0,1) inputs are commonly bounded at +-3 sigma, i.e.
    [{earliest = -3.; latest = 3.}].  [input_bounds_of] overrides the
    window per source net.

    [domains] (default 1) evaluates each logic level's gates across that
    many OCaml domains; results are bit-identical to the sequential
    traversal at every domain count.  Raises [Invalid_argument] if
    [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies every propagated window stays a finite, ordered interval,
    raising {!Spsta_engine.Propagate.Sanitize.Violation} otherwise;
    when off no wrapper is installed. *)

val update :
  ?gate_delay:float ->
  ?gate_delay_of:(Spsta_netlist.Circuit.id -> float) ->
  ?input_bounds:bounds ->
  ?input_bounds_of:(Spsta_netlist.Circuit.id -> bounds) ->
  ?check:bool ->
  result ->
  changed:Spsta_netlist.Circuit.id list ->
  result
(** Incremental re-analysis: recompute only the fanout cones of the
    [changed] nets under the new source windows; matches a full
    {!analyze} provided nothing outside the cones changed.  Bounds
    outside the cones are carried over bit-for-bit (physically shared
    with the input); the input [result] is not mutated. *)

val bounds : result -> Spsta_netlist.Circuit.id -> bounds

val critical_endpoint : result -> Spsta_netlist.Circuit.id
(** Endpoint with the largest [latest] arrival.  Raises
    [Invalid_argument] if the circuit has no endpoints. *)

val max_latest : result -> float
(** Largest [latest] over all endpoints — the STA clock-period bound.
    Raises [Invalid_argument] if the circuit has no endpoints (it used
    to silently return [neg_infinity]; consistent with
    {!critical_endpoint} since the engine rebase). *)
