#ifndef MOTSIM_CORE_PIPELINE_H
#define MOTSIM_CORE_PIPELINE_H

#include <cstdint>
#include <vector>

#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/progress.h"
#include "faults/fault.h"
#include "faults/report.h"
#include "logic/val3.h"
#include "tpg/sequences.h"

namespace motsim {

/// Configuration of the full fault-simulation pipeline of the paper:
/// ID_X-red -> three-valued simulation -> symbolic simulation of the
/// remainder under the chosen observation strategy. The engine-level
/// representation of SimOptions (front ends build a SimOptions and
/// convert it with to_pipeline_config()).
struct PipelineConfig {
  /// Run the sequence-independent static analysis before every other
  /// stage (see SimOptions::analysis).
  bool analysis = false;
  /// Run ID_X-red before the three-valued stage (paper Section III).
  bool run_xred = true;
  /// Three-valued fault-simulation backend (sim3/fault_simulator.h).
  /// Both backends are bit-identical by contract, so this is a pure
  /// performance knob.
  Sim3Backend sim3_backend = default_sim3_backend();
  /// Skip the symbolic stage entirely (pure X01 run).
  bool run_symbolic = true;
  /// Worker threads of the symbolic stage: 1 = HybridFaultSim::run,
  /// unsharded; 0 = one per hardware thread and N >= 2 = run_sharded
  /// with that many workers. Results are bit-identical for every
  /// N >= 2 and 0; see core/parallel_sym_sim.h for when they match the
  /// unsharded run.
  std::size_t threads = 1;
  /// Shard size of the parallel driver (0 = default); ignored when
  /// `threads == 1`.
  std::size_t chunk_size = 0;
  /// Hybrid simulator settings for the symbolic stage; its `strategy`
  /// field selects SOT / rMOT / MOT.
  HybridConfig hybrid;
  /// Telemetry context observing the run (see SimOptions::telemetry);
  /// nullptr = off, one branch per instrumentation site.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of run_pipeline. `status` holds the final per-fault
/// classification: X-redundant faults that the symbolic stage
/// subsequently detected carry the symbolic Detected* status.
struct PipelineResult {
  std::vector<FaultStatus> status;
  /// Frame (1-based) at which each fault was detected, aligned with
  /// `status`; 0 = never. Three-valued and symbolic detections both
  /// record their frame, so test-evaluation and diagnosis callers no
  /// longer re-run the simulator to recover detection times.
  std::vector<std::uint32_t> detect_frame;
  /// Faults ID_X-red flagged (before the symbolic stage re-enabled
  /// them). When the static analysis ran, only faults *not* already
  /// statically pruned are counted here — the two buckets never
  /// overlap.
  std::size_t x_redundant = 0;
  /// Faults the static analysis proved undetectable by any sequence
  /// (StaticXRed in `status`). 0 unless `config.analysis` was set.
  std::size_t static_x_redundant = 0;
  /// Faults the implication engine proved untestable by any sequence
  /// (StaticUntestable in `status`; disjoint from static_x_redundant —
  /// StaticXRed wins when both analyses flag a fault). 0 unless
  /// `config.analysis` was set.
  std::size_t static_untestable = 0;
  std::size_t detected_3v = 0;
  std::size_t detected_symbolic = 0;
  /// True if the hybrid simulator used three-valued fallback windows
  /// (the paper's asterisk: symbolic coverage then a lower bound).
  bool used_fallback = false;
  /// True if the symbolic stage was skipped because the sequence
  /// carries X (partially specified) inputs, which only the
  /// three-valued stage supports.
  bool symbolic_skipped_x_inputs = false;
  /// Execution-redundancy trimming counters of the symbolic stage
  /// (docs/ANALYSIS.md; all zero when trimming was off or the stage
  /// did not run): fault-frames whose propagation was skipped, faults
  /// parked once their static activation horizon passed, and MOT
  /// fault-frames served from the shared fault-free equality product.
  std::uint64_t frames_skipped = 0;
  std::uint64_t faults_terminated_early = 0;
  std::uint64_t faultfree_evals_shared = 0;
  /// S-graph pass results (docs/ANALYSIS.md pass 6; zero when
  /// `config.hybrid.sgraph` was off or the symbolic stage did not
  /// run): nontrivial SCCs of the flip-flop dependency graph, and
  /// rMOT/MOT faults downgraded to SOT-equivalent updates once the
  /// frame index passed their observation horizon (one event per
  /// fault per symbolic epoch).
  std::size_t sgraph_sccs = 0;
  std::uint64_t mot_downgrades = 0;
  double seconds_analysis = 0;
  double seconds_xred = 0;
  double seconds_3v = 0;
  double seconds_symbolic = 0;

  [[nodiscard]] CoverageSummary summary() const {
    return CoverageSummary::from_status(status);
  }
};

/// Runs the paper's complete flow on one fault list and test sequence.
///
/// Stage order and semantics follow Section V's experimental protocol:
/// X-redundant faults are skipped by the three-valued stage (that is
/// the whole point of ID_X-red) but handed to the symbolic stage
/// together with the three-valued leftovers — symbolic simulation can
/// detect faults that are undetectable under three-valued logic.
///
/// `progress` (optional) observes the symbolic stage; see ProgressSink
/// for the threading contract under `config.threads != 1`.
///
/// `checkpoint` (optional) receives symbolic-stage snapshots when
/// `config.hybrid.checkpoint_interval != 0` (see core/checkpoint.h);
/// checkpointed *campaigns* — persistence, resume, incremental
/// extension — live in store/campaign.h, which bypasses the
/// three-valued stage for exact resumability.
///
/// With `config.run_symbolic`, a `config.hybrid` that
/// check_hybrid_config rejects throws std::invalid_argument before any
/// stage runs.
[[nodiscard]] PipelineResult run_pipeline(const Netlist& netlist,
                                          const std::vector<Fault>& faults,
                                          const TestSequence& sequence,
                                          const PipelineConfig& config = {},
                                          ProgressSink* progress = nullptr,
                                          CheckpointSink* checkpoint = nullptr);

/// SimOptions front door: validates the options (throws
/// std::invalid_argument with the validation message on failure) and
/// runs the pipeline.
[[nodiscard]] PipelineResult run_pipeline(const Netlist& netlist,
                                          const std::vector<Fault>& faults,
                                          const TestSequence& sequence,
                                          const SimOptions& options,
                                          ProgressSink* progress = nullptr,
                                          CheckpointSink* checkpoint = nullptr);

}  // namespace motsim

#endif  // MOTSIM_CORE_PIPELINE_H
