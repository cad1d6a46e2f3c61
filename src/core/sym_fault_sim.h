#ifndef MOTSIM_CORE_SYM_FAULT_SIM_H
#define MOTSIM_CORE_SYM_FAULT_SIM_H

#include <cstdint>
#include <vector>

#include "analysis/sgraph.h"
#include "analysis/trim.h"
#include "bdd/bdd.h"
#include "circuit/levelize.h"
#include "circuit/netlist.h"
#include "core/sym_true_value.h"
#include "faults/fault.h"
#include "logic/val3.h"

namespace motsim {

/// Observation-time test strategy (Section IV.A of the paper).
enum class Strategy : std::uint8_t {
  /// Single observation time: a fault is marked detectable when some
  /// primary output has *constant* opposite values in the fault-free
  /// and faulty machine at one time point.
  Sot,
  /// Restricted MOT: accumulate D̃(x,x) over outputs whose fault-free
  /// value is constant; detected when D̃ becomes the zero function.
  /// Allows standard (unique-response) test evaluation.
  Rmot,
  /// Full MOT: independent initial-state variables y for the faulty
  /// machine; D̃(x,y) accumulates [o_i(x,t) == o_i^f(y,t)] over *all*
  /// outputs and times; detected when D̃ == 0 (Lemma 1).
  Mot,
};

[[nodiscard]] const char* to_cstring(Strategy s) noexcept;

/// Per-fault symbolic bookkeeping carried across frames.
struct SymFaultState {
  /// The detection function D̃ (constant 1 initially). Over x for
  /// SOT/rMOT, over (x, y) for MOT.
  bdd::Bdd detect;
  /// Sparse divergence of the faulty machine's present state from the
  /// fault-free state, as functions of x: (flip-flop position, faulty
  /// function). Entries always differ from the fault-free function.
  std::vector<std::pair<std::uint32_t, bdd::Bdd>> state_diff;
};

/// Per-frame context shared by all faults: the fault-free frame
/// computed by SymTrueValueSim plus lazily-built MOT caches. The
/// next state must be the one latched from the same frame's values
/// (`good_next_state[pos] == good_values[D of dffs()[pos]]`), which is
/// what SymTrueValueSim::step produces: the propagator latches only
/// flip-flops whose D net changed.
class SymFrameContext {
 public:
  SymFrameContext(const std::vector<bdd::Bdd>& good_values,
                  const std::vector<bdd::Bdd>& good_next_state,
                  std::size_t output_count);

  [[nodiscard]] const std::vector<bdd::Bdd>& good_values() const noexcept {
    return *good_values_;
  }
  [[nodiscard]] const std::vector<bdd::Bdd>& good_next_state()
      const noexcept {
    return *good_next_state_;
  }

  /// o_j(y,t): the fault-free output function renamed x->y, cached.
  const bdd::Bdd& good_output_y(std::size_t j, const bdd::Bdd& good_out,
                                bdd::BddManager& mgr,
                                const std::vector<bdd::VarIndex>& x2y);

  /// [o_j(x,t) == o_j(y,t)]: the MOT term of an undiverged,
  /// non-constant output, cached across faults.
  const bdd::Bdd& good_eq_term(std::size_t j, const bdd::Bdd& good_out,
                               bdd::BddManager& mgr,
                               const std::vector<bdd::VarIndex>& x2y);

  /// The product of good_eq_term over ALL non-constant outputs — the
  /// full MOT contribution of a frame in which a fault's machine is
  /// identical to the fault-free one. Built once per frame, shared by
  /// every quiescent fault in the shard: by associativity and OBDD
  /// canonicity, `detect &= frame_eq_product()` yields the exact BDD
  /// node the per-output accumulation would, for the cost of one AND
  /// instead of |outputs| ANDs per fault (the trimming pass's main
  /// wall-clock win; docs/DESIGN.md).
  const bdd::Bdd& frame_eq_product(const Netlist& netlist,
                                   bdd::BddManager& mgr,
                                   const std::vector<bdd::VarIndex>& x2y);

  /// Ascending positions j of the outputs whose fault-free value is
  /// non-constant this frame: the only undiverged outputs with a MOT
  /// term other than 1. Built on first use.
  const std::vector<std::uint32_t>& symbolic_outputs(const Netlist& netlist);

 private:
  const std::vector<bdd::Bdd>* good_values_;
  const std::vector<bdd::Bdd>* good_next_state_;
  std::vector<bdd::Bdd> out_y_;    ///< null until first use
  std::vector<bdd::Bdd> eq_term_;  ///< null until first use
  bdd::Bdd eq_product_;            ///< null until first use
  std::vector<std::uint32_t> symbolic_outputs_;
  bool symbolic_outputs_built_ = false;
};

/// Event-driven symbolic single-fault frame kernel.
///
/// Mirrors the three-valued propagator but over OBDD values: the fault
/// is injected, divergence is propagated in level order through the
/// cone of influence, and detection is decided per the configured
/// strategy. The same kernel serves the pure symbolic simulator and
/// the symbolic phases of the hybrid simulator.
class SymFaultPropagator {
 public:
  SymFaultPropagator(const Netlist& netlist, bdd::BddManager& mgr,
                     const StateVars& vars);

  /// Simulates `fault` through the current frame. Updates
  /// `fs.state_diff` (next-state divergence) and `fs.detect`; returns
  /// true if the fault is now marked detectable (caller drops it).
  /// May throw bdd::BddOverflow when the manager's hard limit trips.
  ///
  /// `downgraded` asserts the s-graph downgrade precondition: the
  /// frame index is past the fault's observation horizon, so every
  /// output the fault can reach carries constant fault-free AND
  /// faulty values. MOT's per-output equality accumulation then
  /// collapses to one SOT-style constant comparison plus a single AND
  /// with the shared frame product, and rMOT's to the comparison
  /// alone — bit-identical to the full updates by associativity and
  /// OBDD canonicity. A violated precondition (non-constant diverged
  /// output) is detected at runtime and falls back to the full
  /// update, so a wrong horizon can cost time but never correctness.
  bool step(const Fault& fault, Strategy strategy, SymFaultState& fs,
            SymFrameContext& ctx, bool downgraded = false);

  [[nodiscard]] bdd::BddManager& manager() const noexcept { return *mgr_; }

  /// Per-fault bookkeeping when all three strategies run in one pass.
  struct MultiFaultState {
    bool sot_done = false, rmot_done = false, mot_done = false;
    std::uint32_t sot_frame = 0, rmot_frame = 0, mot_frame = 0;
    bdd::Bdd rmot_detect;  ///< D~(x,x)
    bdd::Bdd mot_detect;   ///< D~(x,y)
    std::vector<std::pair<std::uint32_t, bdd::Bdd>> state_diff;

    [[nodiscard]] bool all_done() const noexcept {
      return sot_done && rmot_done && mot_done;
    }
  };

  /// Single-pass step under ALL strategies: the faulty machine's
  /// evolution is strategy-independent, so seeding/propagation/latch
  /// are shared and only the detection bookkeeping triples. `frame` is
  /// the 1-based frame number recorded on detections. Returns true
  /// when every strategy has detected the fault (caller drops it).
  /// `downgraded` as in step() (applies to the rMOT/MOT bookkeeping).
  bool step_multi(const Fault& fault, MultiFaultState& ms,
                  SymFrameContext& ctx, std::uint32_t frame,
                  bool downgraded = false);

  /// Execution-redundancy counters of the trimming pass.
  struct TrimCounters {
    /// Fault-frames skipped because the fault was provably quiescent.
    std::uint64_t frames_skipped = 0;
    /// Fault-frames whose MOT terms came from the shared per-frame
    /// fault-free equality product instead of per-output ANDs.
    std::uint64_t shared_eq_uses = 0;
  };

  /// Enables ERASER-style frame skipping (docs/ANALYSIS.md): a fault
  /// with no stored state divergence whose activation net's fault-free
  /// value is the constant stuck value cannot be excited this frame —
  /// the faulty machine IS the fault-free machine — so propagation is
  /// skipped outright; under MOT the frame's detection contribution
  /// collapses to one AND with the shared frame_eq_product. Results
  /// are bit-identical to the untrimmed step by OBDD canonicity.
  void set_trim(bool trim) noexcept { trim_ = trim; }
  [[nodiscard]] const TrimCounters& trim_counters() const noexcept {
    return trim_counters_;
  }

  /// S-graph downgrade counters, separate from the trim counters so
  /// each pass's ablation can assert the other reports zero work.
  struct SgraphCounters {
    /// Fault-frames whose rMOT/MOT update ran in downgraded
    /// (SOT-equivalent) form.
    std::uint64_t downgraded_frames = 0;
  };
  [[nodiscard]] const SgraphCounters& sgraph_counters() const noexcept {
    return sgraph_counters_;
  }

 private:
  /// True when the trimming pass may skip this fault-frame entirely.
  [[nodiscard]] bool quiescent(
      const Fault& fault,
      const std::vector<std::pair<std::uint32_t, bdd::Bdd>>& state_diff,
      const std::vector<bdd::Bdd>& good) const;
  [[nodiscard]] const bdd::Bdd& fval(NodeIndex node,
                                     const std::vector<bdd::Bdd>& good) const;

  /// Injects the fault and propagates divergence (fills the scratch
  /// values and changed_ list).
  void propagate(const Fault& fault, const bdd::Bdd& sv,
                 const std::vector<std::pair<std::uint32_t, bdd::Bdd>>&
                     state_diff,
                 const std::vector<bdd::Bdd>& good);
  [[nodiscard]] bool detect_sot(const std::vector<bdd::Bdd>& good) const;
  /// Downgraded-path scan over the changed outputs: 1 when some
  /// output diverged with both values constant (a detection under
  /// every strategy), 0 when none diverged, -1 when a diverged output
  /// carries a non-constant value — the horizon precondition is
  /// violated and the caller must fall back to the full update.
  [[nodiscard]] int scan_const_divergence(
      const std::vector<bdd::Bdd>& good) const;
  /// Returns true when `detect` reached the zero function.
  bool update_rmot(bdd::Bdd& detect, const std::vector<bdd::Bdd>& good);
  bool update_mot(bdd::Bdd& detect, SymFrameContext& ctx);
  /// Next-state divergence, in flip-flop position order. Visits only
  /// the changed nets: an unchanged D net latches the fault-free value.
  void latch_diffs(const Fault& fault, const bdd::Bdd& sv,
                   SymFrameContext& ctx,
                   std::vector<std::pair<std::uint32_t, bdd::Bdd>>& out);
  void release_scratch();

  const Netlist* netlist_;
  bdd::BddManager* mgr_;
  StateVars vars_;
  std::vector<bdd::VarIndex> x2y_;

  // Copy-on-write scratch (version stamps), as in FaultSim3.
  std::vector<bdd::Bdd> scratch_val_;
  std::vector<std::uint32_t> scratch_stamp_;
  std::uint32_t stamp_ = 0;
  EventQueue queue_;
  std::vector<NodeIndex> changed_;
  // CSR map from a net to the flip-flop positions whose D input it is:
  // latch_pos_[latch_begin_[n] .. latch_begin_[n + 1]).
  std::vector<std::uint32_t> latch_begin_;
  std::vector<std::uint32_t> latch_pos_;
  // CSR map from a net to the output positions it drives (a net may be
  // listed as several outputs): out_pos_[out_begin_[n] .. out_begin_[n+1]).
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::uint32_t> out_pos_;
  /// update_mot scratch: diverged output positions, ascending.
  std::vector<std::uint32_t> diverged_;
  /// latch_diffs scratch: (position, source net; kNoNode = stuck value).
  std::vector<std::pair<std::uint32_t, NodeIndex>> latch_hits_;
  bool trim_ = false;
  TrimCounters trim_counters_;
  SgraphCounters sgraph_counters_;
};

/// A concrete certificate of UNdetectability under MOT (Lemma 1's
/// counterexample direction): a pair of initial states — p for the
/// fault-free machine, q for the faulty machine — whose output
/// sequences under the simulated test are identical, so no tester can
/// tell them apart. Directly checkable with the concrete simulator
/// (the tests do exactly that).
struct IndistinguishablePair {
  std::vector<bool> fault_free_state;  ///< p
  std::vector<bool> faulty_state;      ///< q
};

/// Result of a pure symbolic fault simulation.
struct SymFaultSimResult {
  std::vector<FaultStatus> status;
  std::vector<std::uint32_t> detect_frame;  ///< 1-based; 0 = never
  std::size_t detected_count = 0;
  std::size_t peak_live_nodes = 0;
  /// Trimming telemetry (all zero when trimming is off): fault-frames
  /// whose propagation was skipped, faults parked once their static
  /// activation horizon passed, and MOT fault-frames served by the
  /// shared per-frame fault-free equality product.
  std::uint64_t frames_skipped = 0;
  std::uint64_t faults_terminated_early = 0;
  std::uint64_t faultfree_evals_shared = 0;
  /// S-graph telemetry (zero when the pass is off): faults downgraded
  /// from MOT/rMOT to SOT-equivalent handling once the frame index
  /// passed their observation horizon.
  std::uint64_t mot_downgrades = 0;
  /// For every fault left undetected under rMOT/MOT (when
  /// SymFaultSim::set_collect_witnesses(true) was called): a satisfying
  /// pair of D~ — the indistinguishability certificate. Indexed like
  /// `status`; detected/skipped faults carry empty vectors. Under rMOT
  /// the pair shares one state variable set, so p is the faulty
  /// machine's state and fault_free_state is meaningless there (set
  /// equal to q).
  std::vector<IndistinguishablePair> witnesses;
};

/// Pure symbolic fault simulator (no three-valued fallback): exact
/// with respect to the chosen strategy. Used directly on circuits
/// whose OBDDs stay small, and by the correctness test-suite; large
/// circuits should go through HybridFaultSim.
///
/// Throws bdd::BddOverflow if the configured hard node limit trips.
class SymFaultSim {
 public:
  SymFaultSim(const Netlist& netlist, std::vector<Fault> faults,
              Strategy strategy, const bdd::BddConfig& bdd_config = {},
              VarLayout layout = VarLayout::Interleaved);

  /// Pre-classifies faults; non-Undetected entries are not simulated.
  void set_initial_status(std::vector<FaultStatus> status);

  /// Requests indistinguishability witnesses for faults that remain
  /// undetected (rMOT/MOT only; D~ is not maintained under SOT).
  void set_collect_witnesses(bool collect) { collect_witnesses_ = collect; }

  /// Enables the execution-redundancy trimming pass (docs/ANALYSIS.md):
  /// dynamic quiescent-frame skipping plus static activation parking
  /// under SOT/rMOT. Verdicts, detect frames and witnesses are
  /// bit-identical with trimming on or off. Off by default here so the
  /// correctness suite can diff both paths; the production engines
  /// (HybridFaultSim / ParallelSymSim) default it on.
  void set_trim(bool trim) { trim_ = trim; }

  /// Enables the s-graph synchronization-depth pass (docs/ANALYSIS.md
  /// pass 6): faults whose observation cone is past its horizon run
  /// the downgraded rMOT/MOT updates. Verdicts, detect frames and
  /// witnesses are bit-identical with the pass on or off. Off by
  /// default here (like trimming) so the correctness suite can diff
  /// both paths; the production engines default it on.
  void set_sgraph(bool sgraph) { sgraph_ = sgraph; }

  [[nodiscard]] SymFaultSimResult run(
      const std::vector<std::vector<Val3>>& sequence);

 private:
  const Netlist* netlist_;
  std::vector<Fault> faults_;
  Strategy strategy_;
  std::vector<FaultStatus> initial_status_;
  bdd::BddConfig bdd_config_;
  VarLayout layout_;
  bool collect_witnesses_ = false;
  bool trim_ = false;
  bool sgraph_ = false;
};

/// Status value corresponding to a detection under `s`.
[[nodiscard]] FaultStatus detected_status(Strategy s) noexcept;

/// Results of one single-pass run under all three strategies; each
/// entry equals the corresponding dedicated SymFaultSim run.
struct MultiStrategyResult {
  SymFaultSimResult sot;
  SymFaultSimResult rmot;
  SymFaultSimResult mot;
};

/// Pure symbolic fault simulation of all three observation strategies
/// in ONE pass — ~2-3x cheaper than three dedicated runs because the
/// event-driven symbolic propagation (the dominating cost) is shared.
/// A fault stays live until every strategy has classified it or the
/// sequence ends. `trim` enables quiescent-frame skipping (never
/// parking — MOT must keep accumulating); `sgraph` enables the
/// observation-horizon downgrade; results are bit-identical either
/// way.
[[nodiscard]] MultiStrategyResult run_all_strategies(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::vector<std::vector<Val3>>& sequence,
    const bdd::BddConfig& bdd_config = {},
    VarLayout layout = VarLayout::Interleaved, bool trim = false,
    bool sgraph = false);

}  // namespace motsim

#endif  // MOTSIM_CORE_SYM_FAULT_SIM_H
