#include "core/sym_fault_sim.h"

#include <algorithm>
#include <stdexcept>

namespace motsim {

using bdd::Bdd;

const char* to_cstring(Strategy s) noexcept {
  switch (s) {
    case Strategy::Sot:
      return "SOT";
    case Strategy::Rmot:
      return "rMOT";
    case Strategy::Mot:
      return "MOT";
  }
  return "?";
}

FaultStatus detected_status(Strategy s) noexcept {
  switch (s) {
    case Strategy::Sot:
      return FaultStatus::DetectedSot;
    case Strategy::Rmot:
      return FaultStatus::DetectedRmot;
    default:
      return FaultStatus::DetectedMot;
  }
}

// ---------------------------------------------------------------------------
// SymFrameContext
// ---------------------------------------------------------------------------

SymFrameContext::SymFrameContext(const std::vector<Bdd>& good_values,
                                 const std::vector<Bdd>& good_next_state,
                                 std::size_t output_count)
    : good_values_(&good_values),
      good_next_state_(&good_next_state),
      out_y_(output_count),
      eq_term_(output_count) {}

const Bdd& SymFrameContext::good_output_y(
    std::size_t j, const Bdd& good_out, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (out_y_[j].is_null()) out_y_[j] = mgr.rename(good_out, x2y);
  return out_y_[j];
}

const Bdd& SymFrameContext::good_eq_term(
    std::size_t j, const Bdd& good_out, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (eq_term_[j].is_null()) {
    eq_term_[j] = good_out.xnor(good_output_y(j, good_out, mgr, x2y));
  }
  return eq_term_[j];
}

const Bdd& SymFrameContext::frame_eq_product(
    const Netlist& netlist, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (eq_product_.is_null()) {
    const std::vector<Bdd>& good = *good_values_;
    const auto& outputs = netlist.outputs();
    // Never zero: every assignment with y == x satisfies each term.
    Bdd p = mgr.one();
    for (const std::uint32_t j : symbolic_outputs(netlist)) {
      p &= good_eq_term(j, good[outputs[j]], mgr, x2y);
    }
    eq_product_ = p;
  }
  return eq_product_;
}

const std::vector<std::uint32_t>& SymFrameContext::symbolic_outputs(
    const Netlist& netlist) {
  if (!symbolic_outputs_built_) {
    const auto& outputs = netlist.outputs();
    for (std::uint32_t j = 0; j < outputs.size(); ++j) {
      if (!(*good_values_)[outputs[j]].is_const()) {
        symbolic_outputs_.push_back(j);
      }
    }
    symbolic_outputs_built_ = true;
  }
  return symbolic_outputs_;
}

// ---------------------------------------------------------------------------
// SymFaultPropagator
// ---------------------------------------------------------------------------

namespace {

/// CSR inverse of a position -> net list: for every net n, the
/// positions p with nets[p] == n, ascending, are
/// pos[begin[n] .. begin[n + 1]).
void build_position_map(std::size_t node_count,
                        const std::vector<NodeIndex>& nets,
                        std::vector<std::uint32_t>& begin,
                        std::vector<std::uint32_t>& pos) {
  begin.assign(node_count + 1, 0);
  for (const NodeIndex n : nets) ++begin[n + 1];
  for (std::size_t n = 0; n < node_count; ++n) begin[n + 1] += begin[n];
  pos.resize(nets.size());
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (std::uint32_t p = 0; p < nets.size(); ++p) pos[fill[nets[p]]++] = p;
}

}  // namespace

SymFaultPropagator::SymFaultPropagator(const Netlist& netlist,
                                       bdd::BddManager& mgr,
                                       const StateVars& vars)
    : netlist_(&netlist),
      mgr_(&mgr),
      vars_(vars),
      x2y_(vars.x_to_y_mapping()),
      scratch_val_(netlist.node_count()),
      scratch_stamp_(netlist.node_count(), 0),
      queue_(netlist) {
  mgr.ensure_vars(vars.var_count());
  std::vector<NodeIndex> d_nets;
  d_nets.reserve(netlist.dff_count());
  for (const NodeIndex dff : netlist.dffs()) {
    d_nets.push_back(netlist.gate(dff).fanins[0]);
  }
  build_position_map(netlist.node_count(), d_nets, latch_begin_, latch_pos_);
  build_position_map(netlist.node_count(), netlist.outputs(), out_begin_,
                     out_pos_);
}

const Bdd& SymFaultPropagator::fval(NodeIndex node,
                                    const std::vector<Bdd>& good) const {
  return scratch_stamp_[node] == stamp_ ? scratch_val_[node] : good[node];
}

bool SymFaultPropagator::quiescent(
    const Fault& fault,
    const std::vector<std::pair<std::uint32_t, Bdd>>& state_diff,
    const std::vector<Bdd>& good) const {
  if (!trim_ || !state_diff.empty()) return false;
  // With no stored state divergence, the faulty machine can only
  // diverge this frame through the fault site itself; when the
  // activation net's fault-free value is the constant stuck value (for
  // every power-up state — the BDD is the constant node), forcing the
  // stuck value changes nothing anywhere. Because primary inputs are
  // concrete per frame, input-cone nets have constant good values and
  // this fires far beyond statically tied nets.
  const NodeIndex act = activation_node(*netlist_, fault);
  if (act == kNoNode) return false;
  const Bdd& av = good[act];
  return av.is_const() && av.is_one() == fault.stuck_value;
}

void SymFaultPropagator::propagate(
    const Fault& fault, const Bdd& sv,
    const std::vector<std::pair<std::uint32_t, Bdd>>& state_diff,
    const std::vector<Bdd>& good) {
  const Netlist& nl = *netlist_;

  ++stamp_;
  changed_.clear();

  auto set_fval = [&](NodeIndex n, const Bdd& v) {
    if (scratch_stamp_[n] != stamp_) {
      scratch_stamp_[n] = stamp_;
      changed_.push_back(n);
    }
    scratch_val_[n] = v;
  };

  auto enqueue_fanouts = [&](NodeIndex n) {
    for (const FanoutRef& fo : nl.fanouts(n)) {
      if (nl.type(fo.node) != GateType::Dff) queue_.push(fo.node);
    }
  };

  // Seed 1: diverging present-state bits (the flip-flop nodes carry
  // the *present* state as frame inputs in the good-value vector).
  for (const auto& [pos, v] : state_diff) {
    const NodeIndex dff = nl.dffs()[pos];
    set_fval(dff, v);
    enqueue_fanouts(dff);
  }

  // Seed 2: the fault site.
  const NodeIndex site_node = fault.site.node;
  if (fault.site.is_stem()) {
    const bool diverges = fval(site_node, good) != sv;
    set_fval(site_node, sv);
    if (diverges) enqueue_fanouts(site_node);
  } else if (nl.type(site_node) != GateType::Dff) {
    const NodeIndex src = nl.gate(site_node).fanins[fault.site.pin];
    if (fval(src, good) != sv) queue_.push(site_node);
  }

  // Propagate divergence in level order.
  for (NodeIndex n = queue_.pop(); n != kNoNode; n = queue_.pop()) {
    if (fault.site.is_stem() && n == site_node) continue;  // output pinned
    const Gate& g = nl.gate(n);
    const bool branch_here = !fault.site.is_stem() && n == site_node;
    const Bdd newv = eval_gate_sym(
        *mgr_, g.type, g.fanins.size(), [&](std::size_t i) -> const Bdd& {
          if (branch_here && i == fault.site.pin) return sv;
          return fval(g.fanins[i], good);
        });
    if (newv != fval(n, good)) {
      set_fval(n, newv);
      enqueue_fanouts(n);
    }
  }
}

bool SymFaultPropagator::detect_sot(const std::vector<Bdd>& good) const {
  // Both responses constant and opposite (paper IV.A case 1).
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n)) continue;
    const Bdd& gv = good[n];
    const Bdd& fv = scratch_val_[n];
    if (gv.is_const() && fv.is_const() && gv != fv) return true;
  }
  return false;
}

int SymFaultPropagator::scan_const_divergence(
    const std::vector<Bdd>& good) const {
  // Past a fault's observation horizon, every output it can reach is
  // a function of primary inputs alone in BOTH machines — a constant
  // BDD under the frame's concrete inputs (the fault only removes
  // s-graph edges, so faulty synchronization depths never exceed the
  // fault-free ones). Propagation never writes outside the fault's
  // cone, so scanning the changed outputs covers every possible
  // divergence.
  int found = 0;
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n)) continue;
    const Bdd& gv = good[n];
    const Bdd& fv = scratch_val_[n];
    if (fv == gv) continue;
    if (!gv.is_const() || !fv.is_const()) return -1;
    found = 1;
  }
  return found;
}

bool SymFaultPropagator::update_rmot(Bdd& detect,
                                     const std::vector<Bdd>& good) {
  // Accumulate over diverged outputs whose fault-free value is
  // constant (paper IV.A case 2); undiverged outputs contribute the
  // unit term.
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n) || !good[n].is_const()) continue;
    const Bdd& fv = scratch_val_[n];
    if (fv == good[n]) continue;
    const Bdd term = good[n].is_one() ? fv : !fv;
    detect &= term;
    if (detect.is_zero()) return true;
  }
  return false;
}

bool SymFaultPropagator::update_mot(Bdd& detect, SymFrameContext& ctx) {
  // All outputs contribute [o(x,t) == o^f(y,t)] (paper IV.A case 3);
  // the faulty x-based response is mapped to the independent initial
  // state y by the order-preserving rename. An undiverged output with a
  // constant fault-free value contributes [b == b] == 1, so only the
  // diverged positions and the frame's symbolic ones are visited —
  // merged in ascending position order, the order (and hence every
  // node created and every GC point) of a dense walk over all outputs.
  const Netlist& nl = *netlist_;
  const std::vector<Bdd>& good = ctx.good_values();
  const auto& outputs = nl.outputs();
  diverged_.clear();
  for (const NodeIndex n : changed_) {
    if (out_begin_[n] == out_begin_[n + 1] || scratch_val_[n] == good[n]) {
      continue;
    }
    diverged_.insert(diverged_.end(), out_pos_.begin() + out_begin_[n],
                     out_pos_.begin() + out_begin_[n + 1]);
  }
  std::sort(diverged_.begin(), diverged_.end());
  const std::vector<std::uint32_t>& symbolic = ctx.symbolic_outputs(nl);
  auto d = diverged_.begin();
  auto s = symbolic.begin();
  while (d != diverged_.end() || s != symbolic.end()) {
    const std::uint32_t j =
        s == symbolic.end() || (d != diverged_.end() && *d <= *s) ? *d : *s;
    const NodeIndex n = outputs[j];
    if (s != symbolic.end() && *s == j) ++s;
    if (d != diverged_.end() && *d == j) {
      ++d;
      // Two statements: the renamed response must be released before
      // the AND's auto-GC check (node-creation neutrality, DESIGN.md).
      const Bdd term = good[n].xnor(mgr_->rename(scratch_val_[n], x2y_));
      detect &= term;
    } else {
      detect &= ctx.good_eq_term(j, good[n], *mgr_, x2y_);
    }
    if (detect.is_zero()) return true;
  }
  return false;
}

void SymFaultPropagator::latch_diffs(
    const Fault& fault, const Bdd& sv, SymFrameContext& ctx,
    std::vector<std::pair<std::uint32_t, Bdd>>& out) {
  const Netlist& nl = *netlist_;
  const std::vector<Bdd>& good_next = ctx.good_next_state();
  // A branch fault on a flip-flop's D pin latches the stuck value
  // there, whatever its D net carries.
  const bool pin_fault =
      !fault.site.is_stem() && nl.type(fault.site.node) == GateType::Dff;
  const std::uint32_t pinned =
      pin_fault ? nl.dff_position(fault.site.node) : kNoNode;
  latch_hits_.clear();
  for (const NodeIndex n : changed_) {
    for (std::uint32_t i = latch_begin_[n]; i < latch_begin_[n + 1]; ++i) {
      const std::uint32_t pos = latch_pos_[i];
      if (pos != pinned && scratch_val_[n] != good_next[pos]) {
        latch_hits_.emplace_back(pos, n);
      }
    }
  }
  if (pin_fault && sv != good_next[pinned]) {
    latch_hits_.emplace_back(pinned, kNoNode);
  }
  std::sort(latch_hits_.begin(), latch_hits_.end());
  out.clear();
  for (const auto& [pos, n] : latch_hits_) {
    out.emplace_back(pos, n == kNoNode ? sv : scratch_val_[n]);
  }
}

void SymFaultPropagator::release_scratch() {
  // Releases the scratch handles so dead intermediate functions can be
  // collected; the stamp already invalidates them logically.
  for (NodeIndex n : changed_) scratch_val_[n] = Bdd();
}

bool SymFaultPropagator::step(const Fault& fault, Strategy strategy,
                              SymFaultState& fs, SymFrameContext& ctx,
                              bool downgraded) {
  if (quiescent(fault, fs.state_diff, ctx.good_values())) {
    // Identical machines this frame: propagation, SOT/rMOT detection
    // (both only examine diverged outputs) and latching are no-ops.
    // MOT still owes [o_j(x) == o_j(y)] for every non-constant output;
    // that is exactly the shared frame product, and `zero & t == zero`
    // plus associativity make the result bit-identical to the
    // untrimmed per-output accumulation.
    ++trim_counters_.frames_skipped;
    if (strategy != Strategy::Mot) return false;
    ++trim_counters_.shared_eq_uses;
    fs.detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
    return fs.detect.is_zero();
  }

  const Bdd sv = mgr_->constant(fault.stuck_value);
  propagate(fault, sv, fs.state_diff, ctx.good_values());

  // Downgraded rMOT/MOT: every reachable output is constant in both
  // machines, so a divergence is a constant-opposite pair — its
  // equality term is the zero function under every strategy. What
  // remains of the full MOT update is the shared product over the
  // still-symbolic (unreachable) outputs. A -1 scan means the horizon
  // precondition failed; fall back to the exact update.
  const int dv = downgraded && strategy != Strategy::Sot
                     ? scan_const_divergence(ctx.good_values())
                     : -1;
  bool detected = false;
  if (dv >= 0) {
    ++sgraph_counters_.downgraded_frames;
    if (dv == 1) {
      fs.detect = mgr_->constant(false);
      detected = true;
    } else if (strategy == Strategy::Mot) {
      fs.detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
      detected = fs.detect.is_zero();
    }
  } else {
    switch (strategy) {
      case Strategy::Sot:
        detected = detect_sot(ctx.good_values());
        break;
      case Strategy::Rmot:
        detected = update_rmot(fs.detect, ctx.good_values());
        break;
      case Strategy::Mot:
        detected = update_mot(fs.detect, ctx);
        break;
    }
  }
  if (detected) {
    queue_.clear();
    release_scratch();
    return true;
  }

  latch_diffs(fault, sv, ctx, fs.state_diff);
  release_scratch();
  return false;
}

bool SymFaultPropagator::step_multi(const Fault& fault, MultiFaultState& ms,
                                    SymFrameContext& ctx,
                                    std::uint32_t frame, bool downgraded) {
  if (quiescent(fault, ms.state_diff, ctx.good_values())) {
    // Same argument as in step(): only MOT's accumulation survives a
    // quiescent frame, and it collapses to the shared frame product.
    ++trim_counters_.frames_skipped;
    if (!ms.mot_done) {
      ++trim_counters_.shared_eq_uses;
      ms.mot_detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
      if (ms.mot_detect.is_zero()) {
        ms.mot_done = true;
        ms.mot_frame = frame;
        ms.mot_detect = Bdd();
      }
    }
    return ms.all_done();
  }

  const Bdd sv = mgr_->constant(fault.stuck_value);
  propagate(fault, sv, ms.state_diff, ctx.good_values());

  if (!ms.sot_done && detect_sot(ctx.good_values())) {
    ms.sot_done = true;
    ms.sot_frame = frame;
  }
  // Downgraded rMOT/MOT bookkeeping; see step() for the argument.
  const int dv = downgraded && (!ms.rmot_done || !ms.mot_done)
                     ? scan_const_divergence(ctx.good_values())
                     : -1;
  if (dv >= 0) {
    ++sgraph_counters_.downgraded_frames;
    if (!ms.rmot_done && dv == 1) {
      ms.rmot_done = true;
      ms.rmot_frame = frame;
      ms.rmot_detect = Bdd();
    }
    if (!ms.mot_done) {
      if (dv == 1) {
        ms.mot_done = true;
        ms.mot_frame = frame;
        ms.mot_detect = Bdd();
      } else {
        ms.mot_detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
        if (ms.mot_detect.is_zero()) {
          ms.mot_done = true;
          ms.mot_frame = frame;
          ms.mot_detect = Bdd();
        }
      }
    }
  } else {
    if (!ms.rmot_done && update_rmot(ms.rmot_detect, ctx.good_values())) {
      ms.rmot_done = true;
      ms.rmot_frame = frame;
      ms.rmot_detect = Bdd();
    }
    if (!ms.mot_done && update_mot(ms.mot_detect, ctx)) {
      ms.mot_done = true;
      ms.mot_frame = frame;
      ms.mot_detect = Bdd();
    }
  }

  if (ms.all_done()) {
    queue_.clear();
    release_scratch();
    return true;
  }
  latch_diffs(fault, sv, ctx, ms.state_diff);
  release_scratch();
  return false;
}

// ---------------------------------------------------------------------------
// SymFaultSim (pure symbolic sequence driver)
// ---------------------------------------------------------------------------

SymFaultSim::SymFaultSim(const Netlist& netlist, std::vector<Fault> faults,
                         Strategy strategy, const bdd::BddConfig& bdd_config,
                         VarLayout layout)
    : netlist_(&netlist),
      faults_(std::move(faults)),
      strategy_(strategy),
      initial_status_(faults_.size(), FaultStatus::Undetected),
      bdd_config_(bdd_config),
      layout_(layout) {
  if (!netlist.finalized()) {
    throw std::logic_error("SymFaultSim requires a finalized netlist");
  }
}

void SymFaultSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
}

SymFaultSimResult SymFaultSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const Netlist& nl = *netlist_;

  bdd::BddManager mgr(bdd_config_);
  const StateVars vars(nl.dff_count(), layout_);
  SymTrueValueSim good(nl, mgr, vars);
  SymFaultPropagator prop(nl, mgr, vars);
  prop.set_trim(trim_);

  // Static activation horizons for SOT/rMOT parking: once past
  // dead_from with no stored divergence, the fault can never be
  // excited again, so its remaining frames are pure no-ops. MOT never
  // parks (D~ keeps accumulating equality terms). BDD handles of
  // parked faults stay alive so gc pressure matches the untrimmed run.
  TrimPlan plan;
  if (trim_) plan = build_trim_plan(nl, faults_);

  // S-graph observation horizons: frames at which the per-fault
  // rMOT/MOT updates may run in downgraded (SOT-equivalent) form.
  // Vars are seeded once at frame 0 here, so the epoch is 0.
  SgraphPlan splan;
  if (sgraph_) splan = build_sgraph_plan(nl, faults_);

  SymFaultSimResult result;
  result.status = initial_status_;
  result.detect_frame.assign(faults_.size(), 0);
  if (collect_witnesses_) result.witnesses.resize(faults_.size());

  struct Live {
    std::size_t index;
    SymFaultState fs;
    bool parked = false;
    bool downgraded = false;
  };
  std::vector<Live> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(Live{i, SymFaultState{mgr.one(), {}}, false, false});
    }
  }

  const FaultStatus det = detected_status(strategy_);
  for (std::size_t t = 0; t < sequence.size() && !live.empty(); ++t) {
    good.step(sequence[t]);
    SymFrameContext ctx(good.values(), good.state(), nl.output_count());

    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      if (trim_ && strategy_ != Strategy::Mot && !lf.parked &&
          plan.dead_from[lf.index] != 0 &&
          t + 1 >= plan.dead_from[lf.index] && lf.fs.state_diff.empty()) {
        lf.parked = true;
      }
      bool detected = false;
      if (lf.parked) {
        ++result.frames_skipped;
      } else {
        if (sgraph_ && strategy_ != Strategy::Sot && !lf.downgraded &&
            splan.horizon[lf.index] != kInfDepth &&
            t >= splan.horizon[lf.index]) {
          lf.downgraded = true;
          ++result.mot_downgrades;
        }
        detected = prop.step(faults_[lf.index], strategy_, lf.fs, ctx,
                             lf.downgraded);
      }
      if (detected) {
        result.status[lf.index] = det;
        result.detect_frame[lf.index] = static_cast<std::uint32_t>(t + 1);
        ++result.detected_count;
      } else {
        if (keep != i) live[keep] = std::move(live[i]);
        ++keep;
      }
    }
    live.resize(keep);
    mgr.gc();
    result.peak_live_nodes =
        std::max(result.peak_live_nodes, mgr.live_node_count());
  }

  result.frames_skipped += prop.trim_counters().frames_skipped;
  result.faultfree_evals_shared = prop.trim_counters().shared_eq_uses;
  for (const Live& lf : live) {
    if (lf.parked) ++result.faults_terminated_early;
  }

  // Witnesses for the survivors: D~ is nonzero, so a satisfying
  // assignment names a (p, q) pair the test cannot distinguish.
  if (collect_witnesses_ && strategy_ != Strategy::Sot) {
    for (const Live& lf : live) {
      const auto assignment = mgr.pick_one(lf.fs.detect);
      if (!assignment.has_value()) continue;  // defensive; D~ != 0 here
      IndistinguishablePair pair;
      pair.fault_free_state.resize(nl.dff_count());
      pair.faulty_state.resize(nl.dff_count());
      for (std::size_t i = 0; i < nl.dff_count(); ++i) {
        const auto xv = (*assignment)[vars.x(i)];
        const auto yv = strategy_ == Strategy::Mot ? (*assignment)[vars.y(i)]
                                                   : xv;
        // Don't-care bits (-1) may take either value; pick 0.
        pair.faulty_state[i] = strategy_ == Strategy::Mot ? yv == 1 : xv == 1;
        pair.fault_free_state[i] = xv == 1;
        if (strategy_ == Strategy::Rmot) {
          // rMOT's D~ ranges over the faulty initial state only; the
          // fault-free side is reported equal to q by convention.
          pair.fault_free_state[i] = pair.faulty_state[i];
        }
      }
      result.witnesses[lf.index] = std::move(pair);
    }
  }

  return result;
}

// ---------------------------------------------------------------------------
// run_all_strategies (single-pass multi-strategy driver)
// ---------------------------------------------------------------------------

MultiStrategyResult run_all_strategies(
    const Netlist& nl, const std::vector<Fault>& faults,
    const std::vector<std::vector<Val3>>& sequence,
    const bdd::BddConfig& bdd_config, VarLayout layout, bool trim,
    bool sgraph) {
  if (!nl.finalized()) {
    throw std::logic_error("run_all_strategies requires a finalized netlist");
  }

  bdd::BddManager mgr(bdd_config);
  const StateVars vars(nl.dff_count(), layout);
  SymTrueValueSim good(nl, mgr, vars);
  SymFaultPropagator prop(nl, mgr, vars);
  prop.set_trim(trim);

  SgraphPlan splan;
  if (sgraph) splan = build_sgraph_plan(nl, faults);
  std::uint64_t mot_downgrades = 0;

  MultiStrategyResult result;
  for (SymFaultSimResult* r : {&result.sot, &result.rmot, &result.mot}) {
    r->status.assign(faults.size(), FaultStatus::Undetected);
    r->detect_frame.assign(faults.size(), 0);
  }

  struct Live {
    std::size_t index;
    SymFaultPropagator::MultiFaultState ms;
    bool downgraded = false;
  };
  std::vector<Live> live;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    Live lf;
    lf.index = i;
    lf.ms.rmot_detect = mgr.one();
    lf.ms.mot_detect = mgr.one();
    live.push_back(std::move(lf));
  }

  auto record = [&](const Live& lf) {
    const std::size_t i = lf.index;
    if (lf.ms.sot_done && result.sot.detect_frame[i] == 0) {
      result.sot.status[i] = FaultStatus::DetectedSot;
      result.sot.detect_frame[i] = lf.ms.sot_frame;
      ++result.sot.detected_count;
    }
    if (lf.ms.rmot_done && result.rmot.detect_frame[i] == 0) {
      result.rmot.status[i] = FaultStatus::DetectedRmot;
      result.rmot.detect_frame[i] = lf.ms.rmot_frame;
      ++result.rmot.detected_count;
    }
    if (lf.ms.mot_done && result.mot.detect_frame[i] == 0) {
      result.mot.status[i] = FaultStatus::DetectedMot;
      result.mot.detect_frame[i] = lf.ms.mot_frame;
      ++result.mot.detected_count;
    }
  };

  for (std::size_t t = 0; t < sequence.size() && !live.empty(); ++t) {
    good.step(sequence[t]);
    SymFrameContext ctx(good.values(), good.state(), nl.output_count());

    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      if (sgraph && !lf.downgraded &&
          splan.horizon[lf.index] != kInfDepth &&
          t >= splan.horizon[lf.index]) {
        lf.downgraded = true;
        ++mot_downgrades;
      }
      const bool done = prop.step_multi(
          faults[lf.index], lf.ms, ctx,
          static_cast<std::uint32_t>(t + 1), lf.downgraded);
      record(live[i]);
      if (!done) {
        if (keep != i) live[keep] = std::move(live[i]);
        ++keep;
      }
    }
    live.resize(keep);
    mgr.gc();
    const std::size_t peak = mgr.live_node_count();
    result.sot.peak_live_nodes = std::max(result.sot.peak_live_nodes, peak);
    result.rmot.peak_live_nodes = result.sot.peak_live_nodes;
    result.mot.peak_live_nodes = result.sot.peak_live_nodes;
  }

  // One shared pass, so the trimming telemetry is mirrored like the
  // peak above.
  for (SymFaultSimResult* r : {&result.sot, &result.rmot, &result.mot}) {
    r->frames_skipped = prop.trim_counters().frames_skipped;
    r->faultfree_evals_shared = prop.trim_counters().shared_eq_uses;
    r->mot_downgrades = mot_downgrades;
  }

  return result;
}

}  // namespace motsim
