#ifndef MOTSIM_CORE_HYBRID_SIM_H
#define MOTSIM_CORE_HYBRID_SIM_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/sgraph.h"
#include "analysis/static_xred.h"
#include "analysis/trim.h"
#include "bdd/bdd.h"
#include "core/checkpoint.h"
#include "core/progress.h"
#include "core/sym_fault_sim.h"
#include "faults/fault.h"
#include "logic/val3.h"
#include "sim3/fault_simulator.h"
#include "util/expected.h"

namespace motsim {

namespace obs {
struct Telemetry;  // obs/telemetry.h
}

/// HybridConfig::node_limit of a pure symbolic run: no fallback window
/// ever opens and the hard limit (node_limit * hard_limit_factor,
/// saturated) disables the BDD manager's cap.
inline constexpr std::size_t kNoNodeLimit = SIZE_MAX;

/// Configuration of the hybrid fault simulator: the engine-level
/// representation of SimOptions' symbolic-engine fields (front ends
/// build a SimOptions and convert it with to_hybrid_config()).
struct HybridConfig {
  Strategy strategy = Strategy::Mot;
  /// Placement of the x/y state variables (see VarLayout).
  VarLayout layout = VarLayout::Interleaved;
  /// Soft space limit checked after each symbolic frame (the paper
  /// uses 30,000 OBDD nodes); exceeding it triggers a three-valued
  /// window. kNoNodeLimit runs purely symbolic.
  std::size_t node_limit = 30000;
  /// Length of a three-valued fallback window, in frames.
  std::size_t fallback_frames = 8;
  /// Mid-frame abort threshold = node_limit * hard_limit_factor,
  /// saturated at SIZE_MAX (no cap); a single frame whose intermediate
  /// OBDDs blow past this aborts the frame and redoes it three-valued.
  std::size_t hard_limit_factor = 8;
  /// Checkpoint-synchronization interval in frames (0 = off, the
  /// historical behaviour). Every `checkpoint_interval` completed
  /// frames the engine brings itself into three-valued-representable
  /// form: inside a fallback window the state already is; in symbolic
  /// mode it converts the machine state to three-valued logic and
  /// immediately re-enters symbolic mode (unknown bits re-seeded with
  /// state variables, every D̃ restarted at constant 1 — the paper's
  /// fallback re-entry with a zero-length window). The snapshot is
  /// handed to the CheckpointSink, if any. The synchronization happens
  /// whether or not a sink listens, so a run's results depend only on
  /// this configuration — which is what makes a resumed run
  /// bit-identical to an uninterrupted one. All claims stay sound
  /// (state sets only grow), but like fallback windows a sync can
  /// lose symbolic cross-frame correlations, so coverage with
  /// checkpointing enabled is a (typically equal) lower bound on the
  /// K=0 run.
  std::size_t checkpoint_interval = 0;
  /// Tuning of the underlying BDD manager (the hard limit field is
  /// overridden from node_limit/hard_limit_factor).
  bdd::BddConfig bdd{};
  /// Three-valued engine driving the fallback windows (see
  /// sim3/fault_simulator.h). Both backends are bit-identical by
  /// contract, so this is a pure performance knob; it is excluded from
  /// store fingerprints and a checkpointed run may resume under either.
  Sim3Backend sim3_backend = default_sim3_backend();
  /// Execution-redundancy trimming (docs/ANALYSIS.md): skip the
  /// symbolic propagation of provably quiescent fault-frames, park
  /// SOT/rMOT faults past their static activation horizon, and serve
  /// quiescent MOT frames from the shared fault-free equality product.
  /// Like sim3_backend this is a pure performance knob — verdicts,
  /// detection frames and D̃ functions are bit-identical either way —
  /// so it is likewise excluded from store fingerprints. On by default.
  bool trim = true;
  /// S-graph synchronization-depth pass (docs/ANALYSIS.md pass 6):
  /// once the frame index passes a fault's observation horizon —
  /// relative to the frame at which the current symbolic state
  /// variables were seeded — its rMOT/MOT updates run in downgraded,
  /// SOT-equivalent form (the per-frame equality products collapse).
  /// Another pure performance knob, bit-identical by OBDD canonicity
  /// and likewise excluded from store fingerprints; the manifest still
  /// records it (opt_sgraph) because the parallel shard partition
  /// folds horizons into the cluster order. On by default.
  bool sgraph = true;
};

/// Checks `config` against `netlist`: every limit positive, and a hard
/// limit (node_limit * hard_limit_factor) that holds the one
/// state-variable node per flip-flop symbolic mode starts from. The
/// error names the smallest node_limit that works. The HybridFaultSim
/// constructor throws std::invalid_argument with this message; front
/// ends call it first to reject a configuration before any work.
[[nodiscard]] Expected<bool, std::string> check_hybrid_config(
    const Netlist& netlist, const HybridConfig& config);

/// A concrete certificate of UNdetectability under MOT (Lemma 1's
/// counterexample direction): a pair of initial states — p for the
/// fault-free machine, q for the faulty machine — whose output
/// sequences under the simulated test are identical, so no tester can
/// tell them apart. Directly checkable with the concrete simulator
/// (the tests do exactly that). Under rMOT, D̃ ranges over the faulty
/// initial state only, so p is reported equal to q by convention.
struct IndistinguishablePair {
  std::vector<bool> fault_free_state;  ///< p
  std::vector<bool> faulty_state;      ///< q
};

/// Result of a hybrid run.
struct HybridResult {
  std::vector<FaultStatus> status;
  std::vector<std::uint32_t> detect_frame;  ///< 1-based; 0 = never
  std::size_t detected_count = 0;
  /// True when at least one three-valued window ran — the asterisk in
  /// the paper's Tables II/III (coverage may then be inexact).
  bool used_fallback = false;
  std::size_t fallback_windows = 0;
  std::size_t symbolic_frames = 0;
  std::size_t three_valued_frames = 0;
  std::size_t peak_live_nodes = 0;
  /// Checkpoint synchronizations performed (symbolic-mode re-seeds at
  /// checkpoint boundaries; window-mode checkpoints do not sync).
  std::size_t checkpoint_syncs = 0;
  /// Trimming telemetry (zero when HybridConfig::trim is off): symbolic
  /// fault-frames whose propagation was skipped (quiescent or parked),
  /// faults parked past their static activation horizon, and MOT
  /// fault-frames served by the shared fault-free equality product.
  std::uint64_t frames_skipped = 0;
  std::uint64_t faults_terminated_early = 0;
  std::uint64_t faultfree_evals_shared = 0;
  /// S-graph telemetry (zero when HybridConfig::sgraph is off): fault
  /// downgrade events — a fault counts once per symbolic epoch in
  /// which its observation horizon passed (re-seeding the state
  /// variables restarts the clock, so a fault may re-downgrade after
  /// every fallback window or checkpoint sync).
  std::uint64_t mot_downgrades = 0;
  /// Indistinguishability witnesses (see set_collect_witnesses): a
  /// satisfying pair of D̃ for every fault left undetected, indexed
  /// like `status`; detected and skipped faults carry empty vectors.
  /// Empty unless requested and available.
  std::vector<IndistinguishablePair> witnesses;
};

/// Hybrid fault simulator (paper Sections I and IV.A, following [8]):
/// symbolic simulation under the configured observation strategy, with
/// bounded OBDD space. When the live node count exceeds the limit the
/// simulator converts machine state to three-valued logic, simulates a
/// few frames with the conventional event-driven simulator (still
/// detecting and dropping faults), then re-enters symbolic mode:
/// unknown state bits are re-seeded with state variables and every
/// detection function D̃ restarts at constant 1. All claims made in
/// fallback and after resumption remain sound — the represented state
/// sets only ever grow.
///
/// The one symbolic frame loop: a pure symbolic (exact) run is this
/// engine with `node_limit = kNoNodeLimit`.
///
/// The constructor throws std::invalid_argument when check_hybrid_config
/// rejects the configuration, std::logic_error on a netlist that is not
/// finalized.
///
/// A configured engine runs serially with run(), or fault-sharded with
/// run_sharded (core/parallel_sym_sim.h), which cuts it into one engine
/// per shard.
class HybridFaultSim {
 public:
  HybridFaultSim(const Netlist& netlist, std::vector<Fault> faults,
                 HybridConfig config = {});

  /// Pre-classifies faults; non-Undetected entries are not simulated.
  void set_initial_status(std::vector<FaultStatus> status);

  /// Observer for the run (see ProgressSink). Called from the thread
  /// that executes run(); nullptr (the default) keeps the hot path
  /// free of everything but one predictable branch per event.
  void set_progress(ProgressSink* sink) noexcept { progress_ = sink; }

  /// Telemetry context for the run (see obs/telemetry.h): symbolic /
  /// fallback mode timers and spans, frame counters, re-seeded state
  /// bits and the BDD manager's operation statistics. nullptr (the
  /// default) costs one branch per frame. Called from the thread that
  /// executes run().
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  /// Receiver of checkpoint snapshots (see core/checkpoint.h); only
  /// consulted when config.checkpoint_interval != 0. Called from the
  /// thread that executes run(). Emitted chunk ids are 0 and fault
  /// indices are this fault list's (the parallel driver translates).
  void set_checkpoint_sink(CheckpointSink* sink) noexcept {
    checkpoint_ = sink;
  }

  /// Every-frame constant nets the symbolic true-value simulator may
  /// tie to constant OBDDs (ImplicationEngine::tied_constants; empty =
  /// none). By canonicity the tied functions are what evaluation would
  /// produce anyway, so results are bit-identical — tying only skips
  /// the intermediate apply() work. The vector is validated by
  /// SymTrueValueSim::set_tied_constants when run() starts.
  void set_tied_constants(std::vector<ConstVal> tied) {
    tied_ = std::move(tied);
  }

  /// Supplies a pre-built trimming plan (aligned with this fault
  /// list). Used by the pipeline to hand down the implication-enriched
  /// plan; without it the engine builds the structural plan itself
  /// when config.trim is on. Ignored when config.trim is off.
  void set_trim_plan(TrimPlan plan);

  /// Supplies a pre-built s-graph plan (aligned with this fault
  /// list); same contract as set_trim_plan but for the observation
  /// horizons. Ignored when config.sgraph is off.
  void set_sgraph_plan(SgraphPlan plan);

  /// Resumes a previous run from a snapshot this engine emitted:
  /// run() starts at frame `ck.frame` in the recorded mode, with
  /// statuses, detection frames and per-fault state divergences
  /// restored. Replaces any set_initial_status. With the same
  /// configuration (same checkpoint_interval in particular) the
  /// resumed run's result is bit-identical to the uninterrupted run.
  void set_resume(ChunkCheckpoint checkpoint);

  /// Requests indistinguishability witnesses for the faults left
  /// undetected (rMOT/MOT only; D̃ is not maintained under SOT). They
  /// are reported only when the surviving D̃ covers the whole
  /// sequence — no fallback window, no checkpoint sync and no resume —
  /// because a re-seeded D̃ names states at the re-seed, not at
  /// power-up. Otherwise HybridResult::witnesses stays empty.
  void set_collect_witnesses(bool collect) noexcept {
    collect_witnesses_ = collect;
  }

  [[nodiscard]] HybridResult run(
      const std::vector<std::vector<Val3>>& sequence);

 private:
  friend HybridResult run_sharded(
      const HybridFaultSim& engine,
      const std::vector<std::vector<Val3>>& sequence, std::size_t threads,
      std::size_t chunk_size, std::vector<ChunkCheckpoint> resume);

  /// The plans a run works from, aligned with this fault list.
  struct Plans {
    TrimPlan trim;      ///< empty when config.trim is off
    SgraphPlan sgraph;  ///< empty when config.sgraph is off
  };

  /// The supplied plans, else the structural ones built here under a
  /// "plan.trim" / "plan.sgraph" span, for the passes that are on.
  [[nodiscard]] Plans resolve_plans() const;

  /// An engine over the faults at `indices` of this fault list, with
  /// this engine's configuration, initial statuses, tied constants and
  /// telemetry, and `plans` (from resolve_plans) sliced to match.
  /// Sinks, resume snapshot and witness request stay behind: the
  /// sharded driver installs its own.
  [[nodiscard]] HybridFaultSim shard(std::span<const std::size_t> indices,
                                     const Plans& plans) const;

  const Netlist* netlist_;
  std::vector<Fault> faults_;
  HybridConfig config_;
  std::vector<FaultStatus> initial_status_;
  ProgressSink* progress_ = nullptr;
  CheckpointSink* checkpoint_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  std::optional<ChunkCheckpoint> resume_;
  std::vector<ConstVal> tied_;
  std::optional<TrimPlan> trim_plan_;
  std::optional<SgraphPlan> sgraph_plan_;
  bool collect_witnesses_ = false;
};

}  // namespace motsim

#endif  // MOTSIM_CORE_HYBRID_SIM_H
