module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Clark = Spsta_dist.Clark
module FA = Float.Array

(* Flat struct-of-arrays fast path for min/max-separated SSTA.

   The record engine ([Propagate.Make]) pays boxed prices per gate: an
   operand array, several [Normal.t]/state records, a closure result —
   hundreds of bytes of minor-heap churn per gate, which at a million
   gates dominates the sweep and serializes the parallel domains on GC.
   Here per-net state lives in preallocated [floatarray]s (one slot per
   net id per component), gates are walked through the circuit's cached
   CSR view ({!Circuit.csr}), and the inner loop is scalar float code
   folding through {!Clark.max_mv}/{!Clark.min_mv} via caller-owned
   all-float buffers: no per-gate allocation at all.

   Every fold replays the record engine's operation order exactly —
   carry sigma, re-square it per Clark step like [Normal.variance],
   re-sqrt like [Clark.to_normal] — so results are bit-identical
   (IEEE-exact) to [Ssta] on the record engine, at every domain
   count.  The analyzers assert this in their test suites. *)

(* Per-direction (rise, fall) normal moments travelling between an
   analyzer's closures and the kernel: an all-float mutable record, so
   writes and reads never allocate or box. *)
type rf_buf = {
  mutable rise_mu : float;
  mutable rise_sig : float;
  mutable fall_mu : float;
  mutable fall_sig : float;
}

let rf_buf () = { rise_mu = 0.0; rise_sig = 0.0; fall_mu = 0.0; fall_sig = 0.0 }

(* ------------------------------------------------------------------ *)
(* Min/max-separated SSTA (the [Ssta] analyzer's domain): one normal
   arrival per transition direction per net. *)

module Ssta = struct
  type check = float -> float -> float -> float -> (string * string) option

  type state = {
    circuit : Circuit.t;
    rise_mean : floatarray;
    rise_sigma : floatarray;
    fall_mean : floatarray;
    fall_sigma : floatarray;
  }

  type cfg = {
    source : Circuit.id -> rf_buf -> unit;
    delay : Circuit.id -> rf_buf -> unit;
    check : check option;
  }

  (* Left-to-right Clark fold over one direction's slots, the float
     rendering of [Clark.max_normal_map]/[min_normal_map]: the
     accumulator starts at the first operand (and is returned untouched
     for single-input gates, like the record fold), and each step
     re-squares the carried sigma exactly like [Normal.variance] and
     re-sqrts the result exactly like [Clark.to_normal], so the chain is
     bit-identical to the record engine's. *)
  let fold_clark ~min ~into_rise (mv : Clark.mv) (base : rf_buf) (mean : floatarray)
      (sigma : floatarray) (fanin : int array) off off2 =
    let i0 = fanin.(off) in
    let m = ref (FA.get mean i0) in
    let s = ref (FA.get sigma i0) in
    mv.Clark.mv_cov <- 0.0;
    for j = off + 1 to off2 - 1 do
      let i = fanin.(j) in
      mv.Clark.mv_mean <- !m;
      mv.Clark.mv_var <- !s *. !s;
      let os = FA.get sigma i in
      mv.Clark.mv_mean2 <- FA.get mean i;
      mv.Clark.mv_var2 <- os *. os;
      if min then Clark.min_mv mv else Clark.max_mv mv;
      m := mv.Clark.mv_mean;
      s := sqrt mv.Clark.mv_var
    done;
    if into_rise then begin
      base.rise_mu <- !m;
      base.rise_sig <- !s
    end
    else begin
      base.fall_mu <- !m;
      base.fall_sig <- !s
    end

  (* XOR/XNOR settle: MAX over both directions of every input, in
     [Clark.max_normal_map2]'s interleaved order — rise(0), fall(0),
     rise(1), fall(1), … *)
  let fold_settle (mv : Clark.mv) (base : rf_buf) (rise_mean : floatarray)
      (rise_sigma : floatarray) (fall_mean : floatarray) (fall_sigma : floatarray)
      (fanin : int array) off off2 =
    mv.Clark.mv_cov <- 0.0;
    let i0 = fanin.(off) in
    let m = ref (FA.get rise_mean i0) in
    let s = ref (FA.get rise_sigma i0) in
    mv.Clark.mv_mean <- !m;
    mv.Clark.mv_var <- !s *. !s;
    let os0 = FA.get fall_sigma i0 in
    mv.Clark.mv_mean2 <- FA.get fall_mean i0;
    mv.Clark.mv_var2 <- os0 *. os0;
    Clark.max_mv mv;
    m := mv.Clark.mv_mean;
    s := sqrt mv.Clark.mv_var;
    for j = off + 1 to off2 - 1 do
      let i = fanin.(j) in
      mv.Clark.mv_mean <- !m;
      mv.Clark.mv_var <- !s *. !s;
      let osr = FA.get rise_sigma i in
      mv.Clark.mv_mean2 <- FA.get rise_mean i;
      mv.Clark.mv_var2 <- osr *. osr;
      Clark.max_mv mv;
      m := mv.Clark.mv_mean;
      s := sqrt mv.Clark.mv_var;
      mv.Clark.mv_mean <- !m;
      mv.Clark.mv_var <- !s *. !s;
      let osf = FA.get fall_sigma i in
      mv.Clark.mv_mean2 <- FA.get fall_mean i;
      mv.Clark.mv_var2 <- osf *. osf;
      Clark.max_mv mv;
      m := mv.Clark.mv_mean;
      s := sqrt mv.Clark.mv_var
    done;
    base.rise_mu <- !m;
    base.rise_sig <- !s;
    base.fall_mu <- !m;
    base.fall_sig <- !s

  module K = struct
    type t = {
      st : state;
      cfg : cfg;
      gate_net : int array;
      kind_code : int array;
      fanin_off : int array;
      fanin : int array;
    }

    type scratch = { mv : Clark.mv; base : rf_buf; db : rf_buf }

    let circuit t = t.st.circuit
    let scratch _ = { mv = Clark.mv_create (); base = rf_buf (); db = rf_buf () }

    let store_checked t net ~rise_mu ~rise_sig ~fall_mu ~fall_sig =
      let st = t.st in
      FA.set st.rise_mean net rise_mu;
      FA.set st.rise_sigma net rise_sig;
      FA.set st.fall_mean net fall_mu;
      FA.set st.fall_sigma net fall_sig;
      match t.cfg.check with
      | None -> ()
      | Some chk -> (
        match chk rise_mu rise_sig fall_mu fall_sig with
        | None -> ()
        | Some (rule, message) ->
          Propagate.Sanitize.fail ~circuit:st.circuit net ~rule ~message)

    let seed t scratch id =
      let b = scratch.db in
      t.cfg.source id b;
      store_checked t id ~rise_mu:b.rise_mu ~rise_sig:b.rise_sig ~fall_mu:b.fall_mu
        ~fall_sig:b.fall_sig

    let eval t scratch k =
      let st = t.st in
      let mv = scratch.mv and base = scratch.base in
      let off = t.fanin_off.(k) and off2 = t.fanin_off.(k + 1) in
      let fanin = t.fanin in
      let kind = Gate_kind.of_code t.kind_code.(k) in
      (* base (non-inverted) gate timing, [Ssta.base_arrivals] at float
         level: AND rise = MAX of rises / fall = MIN of falls, OR is the
         dual, XOR settles over both directions, NOT/BUF copy *)
      (match kind with
      | Gate_kind.And | Gate_kind.Nand ->
        fold_clark ~min:false ~into_rise:true mv base st.rise_mean st.rise_sigma fanin off off2;
        fold_clark ~min:true ~into_rise:false mv base st.fall_mean st.fall_sigma fanin off off2
      | Gate_kind.Or | Gate_kind.Nor ->
        fold_clark ~min:true ~into_rise:true mv base st.rise_mean st.rise_sigma fanin off off2;
        fold_clark ~min:false ~into_rise:false mv base st.fall_mean st.fall_sigma fanin off off2
      | Gate_kind.Xor | Gate_kind.Xnor ->
        fold_settle mv base st.rise_mean st.rise_sigma st.fall_mean st.fall_sigma fanin off off2
      | Gate_kind.Not | Gate_kind.Buf ->
        (* arity 1 is enforced at [Builder.finalize] *)
        let i0 = fanin.(off) in
        base.rise_mu <- FA.get st.rise_mean i0;
        base.rise_sig <- FA.get st.rise_sigma i0;
        base.fall_mu <- FA.get st.fall_mean i0;
        base.fall_sig <- FA.get st.fall_sigma i0);
      (* inverting gates swap the directions *)
      let inv = Gate_kind.inverting kind in
      let r_mu0 = if inv then base.fall_mu else base.rise_mu in
      let r_s0 = if inv then base.fall_sig else base.rise_sig in
      let f_mu0 = if inv then base.rise_mu else base.fall_mu in
      let f_s0 = if inv then base.rise_sig else base.fall_sig in
      let g = t.gate_net.(k) in
      (* one [delay] call per evaluated gate — the contract session
         accounting relies on to measure dirty cones *)
      let db = scratch.db in
      t.cfg.delay g db;
      (* SUM with the gate delay, [Normal.sum] at float level *)
      let rise_mu = r_mu0 +. db.rise_mu in
      let rise_sig = sqrt ((r_s0 *. r_s0) +. (db.rise_sig *. db.rise_sig)) in
      let fall_mu = f_mu0 +. db.fall_mu in
      let fall_sig = sqrt ((f_s0 *. f_s0) +. (db.fall_sig *. db.fall_sig)) in
      store_checked t g ~rise_mu ~rise_sig ~fall_mu ~fall_sig
  end

  module S = Propagate.Sweep (K)

  let kernel st cfg =
    let csr = Circuit.csr st.circuit in
    {
      K.st;
      cfg;
      gate_net = csr.Circuit.gate_net;
      kind_code = csr.Circuit.kind_code;
      fanin_off = csr.Circuit.fanin_off;
      fanin = csr.Circuit.fanin;
    }

  let run ~source ~delay ?check ?domains circuit =
    let n = Circuit.num_nets circuit in
    let st =
      {
        circuit;
        (* the fill value is arbitrary: every net is either a source
           (seeded) or a gate (written before it is ever read) *)
        rise_mean = FA.make n 0.0;
        rise_sigma = FA.make n 0.0;
        fall_mean = FA.make n 0.0;
        fall_sigma = FA.make n 0.0;
      }
    in
    S.run ?domains (kernel st { source; delay; check });
    st

  let update ~source ~delay ?check st ~changed =
    let st' =
      {
        st with
        rise_mean = FA.copy st.rise_mean;
        rise_sigma = FA.copy st.rise_sigma;
        fall_mean = FA.copy st.fall_mean;
        fall_sigma = FA.copy st.fall_sigma;
      }
    in
    S.update (kernel st' { source; delay; check }) ~changed;
    st'

  let circuit st = st.circuit
  let rise_mean st id = FA.get st.rise_mean id
  let rise_sigma st id = FA.get st.rise_sigma id
  let fall_mean st id = FA.get st.fall_mean id
  let fall_sigma st id = FA.get st.fall_sigma id
end
