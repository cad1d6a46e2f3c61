#include "core/hybrid_sim.h"

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/sym_true_value.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "util/stopwatch.h"

namespace motsim {

using bdd::Bdd;

namespace {

/// node_limit * hard_limit_factor, saturated at SIZE_MAX (no cap).
std::size_t hard_node_limit(const HybridConfig& c) {
  return c.node_limit > SIZE_MAX / c.hard_limit_factor
             ? SIZE_MAX
             : c.node_limit * c.hard_limit_factor;
}

}  // namespace

Expected<bool, std::string> check_hybrid_config(const Netlist& netlist,
                                                const HybridConfig& config) {
  using Err = Unexpected<std::string>;
  if (config.node_limit == 0 || config.fallback_frames == 0 ||
      config.hard_limit_factor == 0) {
    return Err{"HybridConfig: limits must be positive"};
  }
  // run() seeds one state-variable node per flip-flop before the first
  // frame, outside the frame's overflow recovery. The manager refuses a
  // node once live + 1 (the terminal) reaches the hard limit, so m
  // flip-flops need a hard limit of at least m + 1.
  const std::size_t m = netlist.dff_count();
  const std::size_t f = config.hard_limit_factor;
  if (m != 0 && hard_node_limit(config) < m + 1) {
    const std::size_t smallest = (m + 1) / f + ((m + 1) % f != 0 ? 1 : 0);
    return Err{"HybridConfig: node_limit " +
               std::to_string(config.node_limit) + " cannot hold the " +
               std::to_string(m) +
               " state variables (hard limit node_limit * " +
               std::to_string(f) + "); the smallest node_limit that works is " +
               std::to_string(smallest)};
  }
  return true;
}

HybridFaultSim::HybridFaultSim(const Netlist& netlist,
                               std::vector<Fault> faults, HybridConfig config)
    : netlist_(&netlist),
      faults_(std::move(faults)),
      config_(config),
      initial_status_(faults_.size(), FaultStatus::Undetected) {
  if (!netlist.finalized()) {
    throw std::logic_error("HybridFaultSim requires a finalized netlist");
  }
  if (const auto ok = check_hybrid_config(netlist, config_); !ok.has_value()) {
    throw std::invalid_argument(ok.error());
  }
}

void HybridFaultSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
  resume_.reset();
}

void HybridFaultSim::set_trim_plan(TrimPlan plan) {
  if (plan.dead_from.size() != faults_.size()) {
    throw std::invalid_argument("set_trim_plan: plan does not match the "
                                "fault list");
  }
  trim_plan_ = std::move(plan);
}

void HybridFaultSim::set_sgraph_plan(SgraphPlan plan) {
  if (plan.horizon.size() != faults_.size()) {
    throw std::invalid_argument("set_sgraph_plan: plan does not match the "
                                "fault list");
  }
  sgraph_plan_ = std::move(plan);
}

void HybridFaultSim::set_resume(ChunkCheckpoint checkpoint) {
  if (checkpoint.status.size() != faults_.size() ||
      checkpoint.detect_frame.size() != faults_.size() ||
      checkpoint.diff.size() != faults_.size()) {
    throw std::invalid_argument("set_resume: checkpoint does not match the "
                                "fault list");
  }
  if (checkpoint.good_state.size() != netlist_->dff_count()) {
    throw std::invalid_argument("set_resume: checkpoint state width does "
                                "not match the netlist");
  }
  initial_status_ = checkpoint.status;
  resume_ = std::move(checkpoint);
}

HybridFaultSim::Plans HybridFaultSim::resolve_plans() const {
  Plans plans;
  if (config_.trim && trim_plan_) {
    plans.trim = *trim_plan_;
  } else if (config_.trim) {
    const obs::SpanTracer::Span plan_span =
        obs::open_span(telemetry_, "plan.trim");
    plans.trim = build_trim_plan(*netlist_, faults_);
  }
  if (config_.sgraph && sgraph_plan_) {
    plans.sgraph = *sgraph_plan_;
  } else if (config_.sgraph) {
    const obs::SpanTracer::Span plan_span =
        obs::open_span(telemetry_, "plan.sgraph");
    plans.sgraph = build_sgraph_plan(*netlist_, faults_);
  }
  return plans;
}

HybridFaultSim HybridFaultSim::shard(std::span<const std::size_t> indices,
                                     const Plans& plans) const {
  const auto gather = [indices](const auto& all) {
    std::remove_cvref_t<decltype(all)> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices) out.push_back(all[i]);
    return out;
  };
  HybridFaultSim sim(*netlist_, gather(faults_), config_);
  sim.initial_status_ = gather(initial_status_);
  sim.tied_ = tied_;
  sim.telemetry_ = telemetry_;
  if (config_.trim) sim.trim_plan_ = TrimPlan{gather(plans.trim.dead_from)};
  if (config_.sgraph) {
    sim.sgraph_plan_ = SgraphPlan{gather(plans.sgraph.horizon),
                                  plans.sgraph.nontrivial_sccs};
  }
  return sim;
}

namespace {

Val3 bdd_to_val3(const Bdd& b) {
  if (b.is_zero()) return Val3::Zero;
  if (b.is_one()) return Val3::One;
  return Val3::X;
}

}  // namespace

HybridResult HybridFaultSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const Netlist& nl = *netlist_;

  bdd::BddConfig bddc = config_.bdd;
  bddc.hard_node_limit = hard_node_limit(config_);
  bdd::BddManager mgr(bddc);
  const StateVars vars(nl.dff_count(), config_.layout);
  SymTrueValueSim sym(nl, mgr, vars);
  if (!tied_.empty()) sym.set_tied_constants(tied_);
  SymFaultPropagator symprop(nl, mgr, vars);
  symprop.set_trim(config_.trim);
  // Static activation horizons for SOT/rMOT parking: once past
  // dead_from with no stored divergence the fault can never be excited
  // again, so its remaining symbolic frames are pure no-ops. MOT never
  // parks (D̃ keeps accumulating). Parked faults keep their BDD handles
  // alive so gc pressure — and hence every fallback decision — matches
  // the untrimmed run. S-graph observation horizons for the rMOT/MOT
  // downgrade are epoch-relative: every re-seed of the symbolic state
  // variables (window exit, checkpoint sync, resume) restarts the clock.
  const Plans plans = resolve_plans();
  const TrimPlan& plan = plans.trim;
  const SgraphPlan& splan = plans.sgraph;
  // Three-valued engine behind the fallback windows; the backend is a
  // pure performance knob (bit-identical results). Runs serially —
  // the parallel symbolic driver shards at the fault level already.
  const std::unique_ptr<FaultSimulator3> sim3 = make_fault_simulator3(
      config_.sim3_backend, nl, faults_,
      Sim3EngineConfig{/*threads=*/1, telemetry_});

  HybridResult result;
  result.status = initial_status_;
  result.detect_frame = resume_ ? resume_->detect_frame
                                : std::vector<std::uint32_t>(faults_.size(), 0);

  struct Live {
    std::size_t index;
    SymFaultState sym;  ///< valid in symbolic mode
    StateDiff3 diff3;   ///< valid in three-valued mode
    bool parked = false;
    bool downgraded = false;
  };
  std::vector<Live> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(Live{i, SymFaultState{mgr.one(), {}}, {}, false, false});
      if (resume_) live.back().diff3 = resume_->diff[i];
    }
  }

  enum class Mode { Symbolic, ThreeValued };
  Mode mode = Mode::Symbolic;
  std::size_t window_left = 0;
  std::size_t t = 0;  ///< index of the next frame to simulate
  /// Frames completed when the current symbolic state variables were
  /// seeded; the s-graph horizons count from here.
  std::size_t epoch = 0;
  if (resume_) {
    if (resume_->frame > sequence.size()) {
      throw std::invalid_argument("set_resume: checkpoint frame beyond the "
                                  "sequence");
    }
    t = resume_->frame;
  }
  const std::size_t start_frame = t;
  const FaultStatus det = detected_status(config_.strategy);

  // Telemetry locals (all dormant when telemetry_ == nullptr): mode
  // timers accumulate symbolic vs. three-valued wall seconds across
  // the run's interleaved stretches; mode_span is the currently open
  // "symbolic" / "fallback_window" trace span.
  AccumulatingTimer sym_timer;
  AccumulatingTimer fb_timer;
  std::uint64_t reseeded_bits = 0;
  std::optional<obs::SpanTracer::Span> mode_span;

  // Converts one fault's symbolic state divergence into a three-valued
  // divergence against the given three-valued good state. Symbolic
  // functions that are not constant become X; entries that no longer
  // differ are dropped (both unknown == "assume equal", which only
  // grows the represented state set, keeping all detection claims
  // sound).
  auto diff_to_3v = [](const SymFaultState& fs,
                       const std::vector<Val3>& good_state3) {
    StateDiff3 d3;
    for (const auto& [pos, b] : fs.state_diff) {
      const Val3 fv = bdd_to_val3(b);
      if (fv != good_state3[pos]) d3.emplace_back(pos, fv);
    }
    return d3;
  };

  // Opens an engine window session over the surviving faults. During
  // a window `live` is frozen (no compaction): window position i is
  // live[i], the engine tracks which positions were dropped, and the
  // survivors are harvested when the window closes.
  auto enter_three_valued = [&](const std::vector<Val3>& good_state3,
                                std::vector<StateDiff3> diffs3) {
    std::vector<std::size_t> indices;
    indices.reserve(live.size());
    for (Live& lf : live) {
      indices.push_back(lf.index);
      lf.diff3.clear();
      lf.sym.state_diff.clear();
      lf.sym.detect = Bdd();
    }
    const std::size_t nodes_at_entry = mgr.live_node_count();
    sim3->begin_window(good_state3, std::move(indices), std::move(diffs3));
    sym.release();
    mgr.gc();
    mode = Mode::ThreeValued;
    window_left = config_.fallback_frames;
    result.used_fallback = true;
    ++result.fallback_windows;
    obs::log_event(telemetry_, obs::LogLevel::Warn, "hybrid.fallback.enter",
                   {obs::LogField::u64("frame", t + 1),
                    obs::LogField::u64("live_nodes", nodes_at_entry),
                    obs::LogField::u64("live_faults", live.size()),
                    obs::LogField::u64("window_frames",
                                       config_.fallback_frames)});
    // Both entry paths leave `t` pointing at the first frame the
    // window will simulate, so t + 1 is its 1-based number.
    if (progress_) progress_->on_fallback_window(t + 1, config_.fallback_frames);
  };

  // Seeds the symbolic machine from a three-valued snapshot (paper
  // Section IV.A): unknown state bits become state variables, every
  // detection function restarts at constant 1, and per-fault
  // divergences are rebuilt against the seeded good state. `diffs3` is
  // aligned with `live`. Serves three entry paths identically:
  // re-entry after a fallback window, a checkpoint synchronization,
  // and resumption from a stored checkpoint.
  auto seed_symbolic = [&](const std::vector<Val3>& state3,
                           const std::vector<StateDiff3>& diffs3) {
    if (telemetry_ != nullptr) {
      for (Val3 v : state3) {
        if (v == Val3::X) ++reseeded_bits;
      }
    }
    std::vector<Bdd> state_bdds;
    state_bdds.reserve(state3.size());
    for (std::size_t i = 0; i < state3.size(); ++i) {
      state_bdds.push_back(state3[i] == Val3::X
                               ? mgr.var(vars.x(i))
                               : mgr.constant(state3[i] == Val3::One));
    }
    sym.set_state(std::move(state_bdds));
    epoch = t;  // horizons restart with the fresh state variables
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      lf.parked = false;  // re-park check runs every symbolic frame
      lf.downgraded = false;  // horizon re-passes relative to the epoch
      lf.sym.detect = mgr.one();
      lf.sym.state_diff.clear();
      for (const auto& [pos, v] : diffs3[i]) {
        const Bdd fb = v == Val3::X ? mgr.var(vars.x(pos))
                                    : mgr.constant(v == Val3::One);
        const Bdd gb = state3[pos] == Val3::X
                           ? mgr.var(vars.x(pos))
                           : mgr.constant(state3[pos] == Val3::One);
        if (fb != gb) lf.sym.state_diff.emplace_back(pos, fb);
      }
      lf.diff3.clear();
    }
    mode = Mode::Symbolic;
  };

  auto resume_symbolic = [&] {
    const std::vector<Val3> state3 = sim3->window_state();
    std::vector<Live> survivors;
    std::vector<StateDiff3> diffs3;
    survivors.reserve(sim3->window_live());
    diffs3.reserve(sim3->window_live());
    for (std::uint32_t pos = 0; pos < live.size(); ++pos) {
      if (!sim3->window_fault_alive(pos)) continue;
      diffs3.push_back(sim3->window_diff(pos));
      survivors.push_back(std::move(live[pos]));
    }
    live = std::move(survivors);
    sim3->end_window();
    seed_symbolic(state3, diffs3);
    obs::log_event(telemetry_, obs::LogLevel::Info, "hybrid.fallback.exit",
                   {obs::LogField::u64("frame", t + 1),
                    obs::LogField::u64("live_faults", live.size()),
                    obs::LogField::u64("live_nodes", mgr.live_node_count())});
  };

  // Builds the current boundary snapshot. In a three-valued window the
  // state is already in snapshot form; in symbolic mode the machine is
  // converted (the caller then decides whether to also re-seed).
  auto make_checkpoint = [&](bool complete) {
    ChunkCheckpoint ck;
    ck.frame = t;
    ck.complete = complete;
    ck.fault_index.resize(faults_.size());
    std::iota(ck.fault_index.begin(), ck.fault_index.end(), std::size_t{0});
    ck.status = result.status;
    ck.detect_frame = result.detect_frame;
    ck.diff.resize(faults_.size());
    if (mode == Mode::ThreeValued) {
      ck.in_window = true;
      ck.window_left = window_left;
      ck.good_state = sim3->window_state();
      for (std::uint32_t pos = 0; pos < live.size(); ++pos) {
        if (sim3->window_fault_alive(pos)) {
          ck.diff[live[pos].index] = sim3->window_diff(pos);
        }
      }
    } else {
      ck.good_state = sym.state_as_val3();
      for (const Live& lf : live) {
        ck.diff[lf.index] = diff_to_3v(lf.sym, ck.good_state);
      }
    }
    return ck;
  };

  // Surviving faults: during a window `live` is frozen and the engine
  // tracks drops, so the engine's count is authoritative there.
  auto live_count = [&] {
    return mode == Mode::ThreeValued ? sim3->window_live() : live.size();
  };

  const std::size_t interval = config_.checkpoint_interval;
  auto at_boundary = [&] {
    return interval != 0 && t % interval == 0 && t < sequence.size() &&
           live_count() != 0;
  };

  // ---- resume entry ----------------------------------------------------
  if (resume_ && t < sequence.size() && !live.empty()) {
    if (resume_->in_window && resume_->window_left > 0) {
      std::vector<std::size_t> indices;
      std::vector<StateDiff3> diffs3;
      indices.reserve(live.size());
      diffs3.reserve(live.size());
      for (Live& lf : live) {
        indices.push_back(lf.index);
        diffs3.push_back(std::move(lf.diff3));
        lf.diff3.clear();
      }
      sim3->begin_window(resume_->good_state, std::move(indices),
                         std::move(diffs3));
      mode = Mode::ThreeValued;
      window_left = resume_->window_left;
      result.used_fallback = true;
    } else {
      // A snapshot at a sync boundary (or at the very end of a
      // window): re-seed exactly like the uninterrupted run did.
      std::vector<StateDiff3> diffs3;
      diffs3.reserve(live.size());
      for (const Live& lf : live) diffs3.push_back(resume_->diff[lf.index]);
      seed_symbolic(resume_->good_state, diffs3);
    }
  }

  if (telemetry_ != nullptr && t < sequence.size() && live_count() != 0) {
    mode_span = telemetry_->tracer.span(
        mode == Mode::Symbolic ? "symbolic" : "fallback_window");
  }
  // Resolved once: the per-frame gauge update must not pay the
  // registry's map lookup inside the hot loop.
  obs::Gauge* const live_nodes_gauge =
      telemetry_ != nullptr ? &telemetry_->metrics.gauge("bdd.live_nodes")
                            : nullptr;

  while (t < sequence.size() && live_count() != 0) {
    const Mode frame_mode = mode;
    if (telemetry_ != nullptr) {
      (frame_mode == Mode::Symbolic ? sym_timer : fb_timer).start();
    }
    if (mode == Mode::Symbolic) {
      // Snapshot the pre-frame machine in three-valued form so an
      // aborted frame (hard-limit overflow) can be redone in the
      // three-valued mode.
      const std::vector<Val3> pre_state3 = sym.state_as_val3();
      std::vector<StateDiff3> pre_diffs3;
      pre_diffs3.reserve(live.size());
      for (const Live& lf : live) {
        pre_diffs3.push_back(diff_to_3v(lf.sym, pre_state3));
      }

      bool frame_completed = false;
      std::uint64_t parked_skips = 0;  ///< committed only if t completes
      try {
        sym.step(sequence[t]);
        SymFrameContext ctx(sym.values(), sym.state(), nl.output_count());

        // `live` is compacted only after the whole frame succeeds so
        // the exception path below sees the vector intact and aligned
        // with pre_diffs3.
        for (Live& lf : live) {
          if (config_.trim && config_.strategy != Strategy::Mot &&
              !lf.parked && plan.dead_from[lf.index] != 0 &&
              t + 1 >= plan.dead_from[lf.index] &&
              lf.sym.state_diff.empty()) {
            lf.parked = true;
          }
          if (lf.parked) {
            ++parked_skips;
            continue;
          }
          if (config_.sgraph && config_.strategy != Strategy::Sot &&
              !lf.downgraded && splan.horizon[lf.index] != kInfDepth &&
              t >= epoch + splan.horizon[lf.index]) {
            lf.downgraded = true;
            ++result.mot_downgrades;
          }
          if (symprop.step(faults_[lf.index], config_.strategy, lf.sym,
                           ctx, lf.downgraded)) {
            result.status[lf.index] = det;
            result.detect_frame[lf.index] = static_cast<std::uint32_t>(t + 1);
            ++result.detected_count;
            if (progress_) {
              progress_->on_fault_detected(lf.index,
                                           result.detect_frame[lf.index]);
            }
          }
        }
        std::size_t keep = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (result.status[live[i].index] == det) continue;
          if (keep != i) live[keep] = std::move(live[i]);
          ++keep;
        }
        live.resize(keep);

        ++result.symbolic_frames;
        result.frames_skipped += parked_skips;
        ++t;
        frame_completed = true;
        mgr.gc();
        result.peak_live_nodes =
            std::max(result.peak_live_nodes, mgr.live_node_count());
        if (live_nodes_gauge != nullptr) {
          live_nodes_gauge->set(
              static_cast<double>(mgr.live_node_count()));
        }
        obs::log_event(telemetry_, obs::LogLevel::Trace, "bdd.gc",
                       {obs::LogField::u64("frame", t),
                        obs::LogField::u64("live_nodes",
                                           mgr.live_node_count())});
        if (progress_) {
          progress_->on_frame(t, mgr.live_node_count(), live.size());
        }
        if (mgr.live_node_count() > config_.node_limit && t < sequence.size()) {
          // Soft limit: leave symbolic mode at the frame boundary.
          const std::vector<Val3> post_state3 = sym.state_as_val3();
          std::vector<StateDiff3> diffs3;
          diffs3.reserve(live.size());
          for (const Live& lf : live) {
            diffs3.push_back(diff_to_3v(lf.sym, post_state3));
          }
          enter_three_valued(post_state3, std::move(diffs3));
        }
      } catch (const bdd::BddOverflow&) {
        // Hard limit mid-frame: discard the frame's partial symbolic
        // work and redo frame t in three-valued mode. Faults already
        // marked detected this frame keep their (valid) verdicts;
        // snapshot diffs restore every surviving fault.
        obs::log_event(telemetry_, obs::LogLevel::Warn, "bdd.overflow",
                       {obs::LogField::u64("frame", t + 1),
                        obs::LogField::u64("node_limit",
                                           config_.node_limit)},
                       "hard node limit mid-frame; redoing frame "
                       "three-valued");
        std::size_t keep = 0;
        std::vector<StateDiff3> survivors;
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (result.status[live[i].index] == det) continue;  // dropped
          survivors.push_back(std::move(pre_diffs3[i]));
          if (keep != i) live[keep] = std::move(live[i]);
          ++keep;
        }
        live.resize(keep);
        enter_three_valued(pre_state3, std::move(survivors));
        // t intentionally not advanced: the frame reruns three-valued.
      }

      if (frame_completed && at_boundary()) {
        if (mode == Mode::Symbolic) {
          // Checkpoint synchronization: convert, snapshot, re-seed.
          const ChunkCheckpoint ck = make_checkpoint(false);
          if (checkpoint_) checkpoint_->on_checkpoint(ck);
          std::vector<StateDiff3> diffs3;
          diffs3.reserve(live.size());
          for (const Live& lf : live) diffs3.push_back(ck.diff[lf.index]);
          sym.release();
          seed_symbolic(ck.good_state, diffs3);
          mgr.gc();
          ++result.checkpoint_syncs;
          if (telemetry_ != nullptr) {
            telemetry_->tracer.instant("checkpoint_sync");
          }
          obs::log_event(telemetry_, obs::LogLevel::Debug,
                         "hybrid.checkpoint.sync",
                         {obs::LogField::u64("frame", t),
                          obs::LogField::u64("live_faults", live.size()),
                          obs::LogField::u64("live_nodes",
                                             mgr.live_node_count())});
        } else if (checkpoint_) {
          // The soft limit just opened a window: snapshot its entry
          // state without disturbing it.
          checkpoint_->on_checkpoint(make_checkpoint(false));
        }
      }
    } else {
      for (const std::uint32_t pos : sim3->step_window(sequence[t])) {
        // A three-valued detection is a genuine detection under
        // every strategy (constant opposite binary responses).
        const std::size_t fi = live[pos].index;
        result.status[fi] = det;
        result.detect_frame[fi] = static_cast<std::uint32_t>(t + 1);
        ++result.detected_count;
        sim3->drop_window_fault(pos);
        if (progress_) {
          progress_->on_fault_detected(fi, result.detect_frame[fi]);
        }
      }

      ++result.three_valued_frames;
      ++t;
      --window_left;
      if (progress_) progress_->on_frame(t, 0, sim3->window_live());
      if (checkpoint_ && at_boundary()) {
        checkpoint_->on_checkpoint(make_checkpoint(false));
      }
      if (window_left == 0 && t < sequence.size() &&
          sim3->window_live() != 0) {
        resume_symbolic();
      }
    }
    if (telemetry_ != nullptr) {
      (frame_mode == Mode::Symbolic ? sym_timer : fb_timer).stop();
      if (mode != frame_mode) {
        mode_span.reset();  // closes the stretch that just ended
        mode_span = telemetry_->tracer.span(
            mode == Mode::Symbolic ? "symbolic" : "fallback_window");
      }
    }
  }

  // Final snapshot: marks the chunk complete and carries the state
  // incremental re-simulation extends from. Suppressed when a resumed
  // run had nothing left to do (the store already holds this record).
  if (checkpoint_ && interval != 0 && (t > start_frame || !resume_)) {
    checkpoint_->on_checkpoint(make_checkpoint(true));
  }

  // Trimming telemetry: dynamic quiescent skips accumulated inside the
  // propagator, parked skips committed per completed frame above, and
  // the faults still parked when the run ends (counted once here so
  // window round-trips cannot double-count them).
  result.frames_skipped += symprop.trim_counters().frames_skipped;
  result.faultfree_evals_shared = symprop.trim_counters().shared_eq_uses;
  for (const Live& lf : live) {
    if (lf.parked) ++result.faults_terminated_early;
  }

  // Witnesses for the survivors: D̃ is nonzero, so a satisfying
  // assignment names a (p, q) pair the test cannot distinguish. Only a
  // D̃ seeded at power-up and never re-seeded speaks about power-up
  // states.
  if (collect_witnesses_ && config_.strategy != Strategy::Sot && !resume_ &&
      !result.used_fallback && result.checkpoint_syncs == 0) {
    const bool mot = config_.strategy == Strategy::Mot;
    result.witnesses.resize(faults_.size());
    for (const Live& lf : live) {
      const auto assignment = mgr.pick_one(lf.sym.detect);
      if (!assignment.has_value()) continue;  // defensive; D̃ != 0 here
      IndistinguishablePair& pair = result.witnesses[lf.index];
      pair.fault_free_state.resize(nl.dff_count());
      pair.faulty_state.resize(nl.dff_count());
      for (std::size_t i = 0; i < nl.dff_count(); ++i) {
        // Don't-care bits (-1) may take either value; pick 0.
        pair.faulty_state[i] =
            (*assignment)[mot ? vars.y(i) : vars.x(i)] == 1;
        pair.fault_free_state[i] =
            mot ? (*assignment)[vars.x(i)] == 1 : pair.faulty_state[i];
      }
    }
  }

  if (telemetry_ != nullptr) {
    mode_span.reset();
    obs::MetricsRegistry& m = telemetry_->metrics;
    m.counter("hybrid.symbolic_frames").add(result.symbolic_frames);
    m.counter("hybrid.three_valued_frames").add(result.three_valued_frames);
    m.counter("hybrid.fallback_windows").add(result.fallback_windows);
    m.counter("hybrid.checkpoint_syncs").add(result.checkpoint_syncs);
    m.counter("hybrid.detected_faults").add(result.detected_count);
    m.counter("engine.reseeded_state_bits").add(reseeded_bits);
    m.counter("analysis.frames_skipped").add(result.frames_skipped);
    m.counter("analysis.faults_terminated_early")
        .add(result.faults_terminated_early);
    m.counter("analysis.mot_downgrades").add(result.mot_downgrades);
    m.counter("sym.faultfree_evals_shared")
        .add(result.faultfree_evals_shared);
    m.gauge("hybrid.symbolic_seconds").add(sym_timer.total_seconds());
    m.gauge("hybrid.fallback_seconds").add(fb_timer.total_seconds());

    const bdd::BddStats& bs = mgr.stats();
    m.counter("bdd.apply_cache_lookups").add(bs.cache_lookups);
    m.counter("bdd.apply_cache_hits").add(bs.cache_hits);
    m.counter("bdd.unique_hits").add(bs.unique_hits);
    m.counter("bdd.nodes_created").add(bs.nodes_created);
    m.counter("bdd.gc_runs").add(bs.gc_runs);
    m.counter("bdd.gc_reclaimed_nodes").add(bs.gc_reclaimed_nodes);
    m.gauge("bdd.reorder_seconds").add(bs.reorder_seconds);
    m.gauge("bdd.gc_seconds").add(bs.gc_seconds);
    m.gauge("bdd.node_slots")
        .update_max(static_cast<double>(bs.peak_node_slots));
    m.gauge("bdd.peak_live_nodes")
        .update_max(static_cast<double>(bs.peak_live_nodes));
    m.gauge("bdd.unique_table_buckets")
        .update_max(static_cast<double>(mgr.unique_bucket_count()));
    if (mgr.unique_bucket_count() != 0) {
      m.gauge("bdd.unique_table_load")
          .update_max(static_cast<double>(mgr.live_node_count()) /
                      static_cast<double>(mgr.unique_bucket_count()));
    }
  }

  return result;
}

}  // namespace motsim
