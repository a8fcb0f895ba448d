(** Block-based, min/max-separated statistical static timing analysis —
    the paper's baseline (§2.1 and §4).

    Every net carries one normal arrival distribution per transition
    direction.  SUM adds the gate delay (eq. 2); multi-input gates apply
    Clark's moment-matched MAX or MIN (eq. 4) according to the gate logic
    and transition direction; inverting gates swap rise and fall.  Like
    static timing analysis, SSTA assumes a transition always occurs, so
    it is oblivious to input statistics — the property the paper
    criticises.

    Traversal (sequential, levelized-parallel and incremental) comes
    from {!Spsta_engine.Propagate}. *)

type arrival = { rise : Spsta_dist.Normal.t; fall : Spsta_dist.Normal.t }

type result

val analyze :
  ?gate_delay:float ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?constant_mask:Bytes.t ->
  ?check:bool ->
  ?domains:int ->
  ?engine:[ `Flat | `Record ] ->
  Spsta_netlist.Circuit.t ->
  result
(** [input_arrival] defaults to standard normal for both directions (the
    paper's source statistics); [input_arrival_of] overrides it per
    source net.  [gate_delay] is deterministic and defaults to 1.0.

    [constant_mask] (one byte per net, non-['\000'] = statically
    constant — the shape {!Spsta_analysis.Constprop.mask} produces)
    skips the Clark fold on masked gates: a constant net never
    transitions, so its gate launches with its net's source arrival
    statistics instead of folding its fan-in.  A mask forces the
    [`Record] engine regardless of [engine] (the flat kernel's transfer
    is fixed), and changes results only on masked cones.
    {!update}/{!update_rf} do not take a mask; refine a masked result
    only through mask-free nets.  Raises [Invalid_argument] when the
    mask length differs from the circuit's net count.

    [engine] selects the implementation: [`Flat] (default) runs the
    allocation-free struct-of-arrays kernel ({!Spsta_engine.Flat.Ssta} —
    per-net moments in flat float arrays, records materialized only at
    this module's API), [`Record] the original boxed-record engine over
    {!Spsta_engine.Propagate.Make}.  The two are bit-identical
    (IEEE-exact, asserted in the test suite at every domain count); the
    knob exists as a differential-testing oracle and a fallback.
    {!update}/{!update_rf} stay on the engine that produced their input
    result.

    [domains] (default 1) evaluates each logic level's gates across that
    many OCaml domains; results are bit-identical to the sequential
    traversal at every domain count.  Raises [Invalid_argument] if
    [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies every propagated arrival pair stays finite with
    non-negative sigmas, raising
    {!Spsta_engine.Propagate.Sanitize.Violation} naming the circuit,
    net, gate kind and level otherwise; when off no wrapper is
    installed. *)

val analyze_variational :
  gate_delay:(Spsta_netlist.Circuit.id -> Spsta_dist.Normal.t) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  ?domains:int ->
  ?engine:[ `Flat | `Record ] ->
  Spsta_netlist.Circuit.t ->
  result
(** Same propagation with an independent normal delay per gate — used by
    the process-variation ablation. *)

val analyze_rf :
  delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?constant_mask:Bytes.t ->
  ?check:bool ->
  ?domains:int ->
  ?engine:[ `Flat | `Record ] ->
  Spsta_netlist.Circuit.t ->
  result
(** Deterministic but direction-dependent (rise, fall) delays per gate —
    for cell-library timing ({!Spsta_netlist.Cell_library}).
    [constant_mask] behaves as in {!analyze}. *)

val update :
  ?gate_delay:float ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  result ->
  changed:Spsta_netlist.Circuit.id list ->
  result
(** Incremental re-analysis: recompute only the fanout cones of the
    [changed] nets (e.g. sources whose arrival statistics changed),
    under the same [gate_delay] as the original {!analyze} and the *new*
    source arrivals.  Matches a full {!analyze} with the new arrivals
    provided nothing outside the cones changed; arrivals outside the
    cones are carried over bit-for-bit from the input result (the
    record engine shares them physically, the flat engine copies the
    slots).  The input [result] is not mutated. *)

val update_rf :
  delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  result ->
  changed:Spsta_netlist.Circuit.id list ->
  result
(** {!update} under per-gate (rise, fall) delays — the incremental
    counterpart of {!analyze_rf}.  [delay_rf] is consulted for every
    dirty gate, so passing a resized gate's output net in [changed]
    re-evaluates it with its new cell ({!Spsta_netlist.Transform.resize_gate}). *)

val circuit_of : result -> Spsta_netlist.Circuit.t

val arrival : result -> Spsta_netlist.Circuit.id -> arrival

val critical_endpoint : result -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id
(** Endpoint with the largest mean arrival for the given direction.
    Raises [Invalid_argument] if the circuit has no endpoints. *)

val max_arrival : result -> [ `Rise | `Fall ] -> Spsta_dist.Normal.t
(** Arrival distribution at the {!critical_endpoint}. *)
