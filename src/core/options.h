#ifndef MOTSIM_CORE_OPTIONS_H
#define MOTSIM_CORE_OPTIONS_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/hybrid_sim.h"
#include "core/sym_fault_sim.h"
#include "util/expected.h"

namespace motsim {

struct PipelineConfig;  // core/pipeline.h

namespace obs {
struct Telemetry;  // obs/telemetry.h
}

/// The unified, flat configuration surface of the fault-simulation
/// engines: one struct covers the pipeline, the hybrid simulator, the
/// parallel driver and the BDD package. Front ends build a SimOptions,
/// validate() it and hand it to run_pipeline or run_campaign; the
/// engines work from the nested PipelineConfig -> HybridConfig ->
/// BddConfig representation that to_pipeline_config() and
/// to_hybrid_config() produce.
///
/// Every field has the same default as those structs, so a
/// default-constructed SimOptions reproduces their defaults exactly.
struct SimOptions {
  // ---- pipeline stages ------------------------------------------------
  /// Run the sequence-independent static analyses (StaticXRedAnalysis
  /// and the ImplicationEngine) before every other stage: faults
  /// proven undetectable by any sequence are excluded up front with
  /// the StaticXRed / StaticUntestable verdicts, and every-frame
  /// constant nets the implication engine learned are tied to constant
  /// OBDDs in the symbolic stage. Off by default — the classification
  /// and the tying are sound, so enabling it never changes coverage or
  /// the detected-fault set, only the bucketing of never-detectable
  /// faults (and the work the symbolic stage skips). CLI flag: --lint.
  bool analysis = false;
  /// Run ID_X-red before the three-valued stage (paper Section III).
  bool run_xred = true;
  /// Three-valued fault-simulation backend (sim3/fault_simulator.h):
  /// the serial event-driven reference engine or the bit-parallel
  /// levelized PPSFP engine. Bit-identical results by contract, so the
  /// choice is a pure performance knob: it is excluded from store
  /// fingerprints, and a campaign checkpointed under one backend
  /// resumes under the other. CLI flag: --sim3-backend.
  Sim3Backend sim3_backend = default_sim3_backend();
  /// Run the symbolic stage (false = pure X01 run).
  bool run_symbolic = true;

  // ---- symbolic engine ------------------------------------------------
  /// Observation strategy of the symbolic stage: SOT / rMOT / MOT.
  Strategy strategy = Strategy::Mot;
  /// Placement of the x/y state variables (see VarLayout).
  VarLayout layout = VarLayout::Interleaved;
  /// Soft OBDD space limit per BDD manager (the paper uses 30,000
  /// nodes); exceeding it triggers a three-valued window.
  std::size_t node_limit = 30000;
  /// Length of a three-valued fallback window, in frames.
  std::size_t fallback_frames = 8;
  /// Mid-frame abort threshold = node_limit * hard_limit_factor.
  std::size_t hard_limit_factor = 8;
  /// Checkpoint-synchronization interval in frames (0 = off). Every K
  /// completed frames the symbolic engine converts machine state to
  /// three-valued form and re-seeds (a zero-length fallback window) so
  /// a snapshot can be persisted; the sync happens whether or not a
  /// CheckpointSink listens, making resumed runs bit-identical to
  /// uninterrupted ones. See HybridConfig::checkpoint_interval and
  /// docs/CHECKPOINT.md.
  std::size_t checkpoint_interval = 0;
  /// Execution-redundancy trimming in the symbolic stage (see
  /// HybridConfig::trim and docs/ANALYSIS.md): quiescent-frame
  /// skipping, SOT/rMOT activation parking, shared MOT equality
  /// products and cluster-aware shard assignment. Bit-identical to the
  /// untrimmed run by construction, so — like sim3_backend — it is a
  /// pure performance knob, excluded from store fingerprints; it IS
  /// recorded in manifests so a resumed campaign recomputes the same
  /// shard partition. On by default. CLI flag: --no-trim.
  bool trim = true;
  /// S-graph synchronization-depth analysis in the symbolic stage (see
  /// HybridConfig::sgraph and docs/ANALYSIS.md pass 6): once the frame
  /// index passes a fault's observation horizon its rMOT/MOT updates
  /// run in downgraded, SOT-equivalent form, and the parallel shard
  /// assignment groups faults by horizon class. Bit-identical by OBDD
  /// canonicity — another pure performance knob, excluded from store
  /// fingerprints but recorded in manifests for the same partition-
  /// reproducibility reason as `trim`. On by default. CLI flag:
  /// --no-sgraph.
  bool sgraph = true;

  // ---- parallel execution --------------------------------------------
  /// Worker threads for the symbolic stage: 1 = HybridFaultSim::run,
  /// unsharded; 0 = one per hardware thread and N >= 2 = run_sharded
  /// with that many workers.
  std::size_t threads = 1;
  /// Faults per shard of the parallel driver; 0 = the driver's default
  /// (kDefaultChunkSize). The partition depends only on this value and
  /// the fault list — never on `threads` — which is what makes results
  /// independent of the thread count (see docs/PARALLEL.md).
  std::size_t chunk_size = 0;

  // ---- workload -------------------------------------------------------
  /// Seed recorded for workload generation (sequence generation is
  /// outside run_pipeline, but front ends carry the seed here so one
  /// struct describes a whole reproducible run).
  std::uint64_t seed = 1;

  // ---- BDD tuning -----------------------------------------------------
  /// Initial node-table capacity of each BDD manager.
  std::size_t bdd_initial_capacity = 1u << 12;
  /// log2 of the computed-cache size of each BDD manager.
  unsigned bdd_cache_size_log2 = 16;
  /// Auto-GC floor of each BDD manager (see BddConfig::auto_gc_floor).
  std::size_t bdd_auto_gc_floor = 1u << 16;

  // ---- observability ---------------------------------------------------
  /// Telemetry context receiving metrics and trace spans from every
  /// engine the run touches (see obs/telemetry.h and
  /// docs/OBSERVABILITY.md). nullptr — the default — keeps each
  /// instrumentation site at one predictable branch, exactly like
  /// ProgressSink. Not part of a run's identity: excluded from
  /// operator==, never serialized into a run-store manifest and never
  /// fingerprinted, so a campaign recorded without telemetry resumes
  /// bit-identically with it (and vice versa).
  obs::Telemetry* telemetry = nullptr;

  /// Checks every field and returns a normalized copy, or a
  /// human-readable description of the first problem found. The only
  /// normalization applied: nothing today — the copy is returned so
  /// future versions may canonicalize without breaking callers.
  [[nodiscard]] Expected<SimOptions, std::string> validate() const;

  // ---- conversions to the engine representation ----------------------
  [[nodiscard]] HybridConfig to_hybrid_config() const;
  [[nodiscard]] PipelineConfig to_pipeline_config() const;

  /// Field-by-field equality of the *configuration* — the telemetry
  /// pointer is deliberately ignored (observers don't change what a
  /// run computes).
  friend bool operator==(const SimOptions& a, const SimOptions& b) {
    return a.analysis == b.analysis && a.run_xred == b.run_xred &&
           a.sim3_backend == b.sim3_backend &&
           a.run_symbolic == b.run_symbolic && a.strategy == b.strategy &&
           a.layout == b.layout && a.node_limit == b.node_limit &&
           a.fallback_frames == b.fallback_frames &&
           a.hard_limit_factor == b.hard_limit_factor &&
           a.checkpoint_interval == b.checkpoint_interval &&
           a.trim == b.trim && a.sgraph == b.sgraph &&
           a.threads == b.threads && a.chunk_size == b.chunk_size &&
           a.seed == b.seed &&
           a.bdd_initial_capacity == b.bdd_initial_capacity &&
           a.bdd_cache_size_log2 == b.bdd_cache_size_log2 &&
           a.bdd_auto_gc_floor == b.bdd_auto_gc_floor;
  }
};

}  // namespace motsim

#endif  // MOTSIM_CORE_OPTIONS_H
