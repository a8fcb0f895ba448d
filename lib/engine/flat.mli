(** Flat struct-of-arrays kernel for min/max-separated SSTA.

    The record engine ({!Propagate.Make}) allocates an operand array
    plus several state records per gate; at a million gates that churn
    dominates the sweep and serializes the parallel domains on GC.
    This kernel keeps per-net state in preallocated [floatarray]s (one
    slot per net id per moment component), walks the gates through the
    circuit's cached CSR view ({!Spsta_netlist.Circuit.csr}), and folds
    the Clark MAX/MIN arithmetic through caller-owned all-float buffers
    ({!Spsta_dist.Clark.mv}, {!rf_buf}) — the inner loop performs no
    allocation at all.

    The kernel is a {!Propagate.KERNEL} scheduled by the one levelized
    scheduler, {!Propagate.Sweep}, and every fold replays the record
    engine's operation order — results are bit-identical (IEEE-exact)
    to the record engine at every domain count.  {!Spsta_ssta.Ssta}
    routes through it by default and materializes records only at its
    API boundary.  Corner STA ({!Spsta_ssta.Sta}) runs on
    {!Propagate.Make} only. *)

type rf_buf = {
  mutable rise_mu : float;
  mutable rise_sig : float;
  mutable fall_mu : float;
  mutable fall_sig : float;
}
(** Per-direction normal moments travelling between an analyzer's
    closures (source seeds, per-gate delays) and the kernel: an
    all-float mutable record, so writes and reads never allocate. *)

val rf_buf : unit -> rf_buf
(** A zeroed buffer. *)

(** Min/max-separated SSTA: one normal arrival per transition direction
    per net, Clark MAX/MIN folds per gate (the {!Spsta_ssta.Ssta}
    domain). *)
module Ssta : sig
  type check = float -> float -> float -> float -> (string * string) option
  (** [check rise_mu rise_sigma fall_mu fall_sigma] verifies one net's
      slots, returning [Some (rule, message)] on a violation — the
      float-level twin of {!Propagate.Sanitize.check}.  Violations are
      raised as {!Propagate.Sanitize.Violation} naming the net.  Must be
      pure: it runs inside the (possibly parallel) sweep. *)

  type state
  (** Arrival moments for every net, in four flat float arrays. *)

  val run :
    source:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    ?check:check ->
    ?domains:int ->
    Spsta_netlist.Circuit.t ->
    state
  (** Full sweep.  [source] fills the buffer with a source net's arrival
      moments; [delay] fills it with a gate's (rise, fall) delay moments
      and is called exactly once per evaluated gate.  [domains] is
      {!Propagate.Sweep.run}'s. *)

  val update :
    source:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    ?check:check ->
    state ->
    changed:Spsta_netlist.Circuit.id list ->
    state
  (** Dirty-cone incremental re-propagation ({!Propagate.Sweep.update}):
      re-seeds changed sources, re-evaluates exactly the
      combinational fanout cones in sequential order ([delay] is called
      once per dirty gate), shares slots outside the cones by copying
      the arrays.  The input state is not mutated. *)

  val circuit : state -> Spsta_netlist.Circuit.t
  val rise_mean : state -> Spsta_netlist.Circuit.id -> float
  val rise_sigma : state -> Spsta_netlist.Circuit.id -> float
  val fall_mean : state -> Spsta_netlist.Circuit.id -> float
  val fall_sigma : state -> Spsta_netlist.Circuit.id -> float
end
