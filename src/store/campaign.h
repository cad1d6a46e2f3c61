#ifndef MOTSIM_STORE_CAMPAIGN_H
#define MOTSIM_STORE_CAMPAIGN_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/progress.h"
#include "faults/fault.h"
#include "faults/report.h"
#include "tpg/sequences.h"
#include "util/expected.h"

namespace motsim {

class Netlist;

/// Checkpoint interval substituted when a campaign is started with
/// checkpoint_interval == 0 (K = 0 would disable resumability, which
/// defeats the point of a store).
inline constexpr std::size_t kDefaultCampaignInterval = 32;

/// Outcome of one campaign invocation (fresh, resumed or extended).
struct CampaignResult {
  /// Final per-fault classification, global fault-list order.
  std::vector<FaultStatus> status;
  /// 1-based global detection frame per fault; 0 = never. Frames keep
  /// counting across extensions (an extension detection reports its
  /// position in the concatenated sequence).
  std::vector<std::uint32_t> detect_frame;
  /// Faults the frozen ID_X-red pre-classification removed (excludes
  /// the statically pruned ones below).
  std::size_t x_redundant = 0;
  /// Faults the sequence-independent static analysis removed before
  /// ID_X-red ran (SimOptions::analysis; frozen in the INIT record like
  /// the X-redundant verdicts).
  std::size_t static_x_redundant = 0;
  /// Faults the implication engine proved untestable by any sequence
  /// (SimOptions::analysis; disjoint from static_x_redundant — the
  /// engine only upgrades faults the structural pass left Undetected).
  std::size_t static_untestable = 0;
  /// Total frames of the campaign sequence (all segments).
  std::size_t frames_total = 0;
  /// Merged engine counters of THIS invocation (a resumed invocation
  /// counts only the frames it actually simulated).
  HybridResult sym;
  /// True when this invocation continued persisted state instead of
  /// starting from frame 0.
  bool resumed = false;

  [[nodiscard]] CoverageSummary summary() const {
    return CoverageSummary::from_status(status);
  }
};

/// Checkpointed fault-simulation campaigns on top of the run store.
///
/// A campaign is NOT the three-stage run_pipeline flow — it is defined
/// so that kill/resume and incremental extension are *exactly*
/// reproducible:
///
///  - ID_X-red runs once, on the base sequence, and its verdict is
///    frozen in the store's INIT record. X-redundant faults are
///    terminal for the campaign's lifetime: they are never simulated
///    (the pipeline's symbolic re-enablement of X-redundant faults is
///    intentionally absent — an extension would otherwise have to
///    re-simulate them from frame 0). X-redundancy is a property of
///    the sequence, so an extension could in principle make a frozen
///    X-redundant fault detectable; the campaign deliberately keeps
///    the verdict, trading a (typically tiny) coverage under-report
///    for never re-simulating the class. Coverage therefore remains a
///    sound lower bound — no detection is ever falsely claimed; see
///    docs/CHECKPOINT.md.
///  - There is no standalone three-valued stage: every live fault goes
///    through the hybrid symbolic engine (whose fallback windows
///    provide the three-valued machinery when space demands it).
///  - The symbolic stage always runs through run_sharded — also for
///    threads == 1 — so the chunk partition, and therefore every
///    result, is identical for every thread count.
///
/// All three entry points return a clear error string instead of
/// partial state: nothing was simulated unless the result has a value
/// (a checkpoint-sink failure aborts mid-run, but then the store holds
/// exactly the checkpoints persisted so far and a later resume
/// continues from them).
///
/// `tap`, when given, receives every checkpoint *after* it is
/// persisted; the resume tests throw from the tap to simulate a crash
/// between two checkpoint writes.

/// Starts a fresh campaign in `store_dir` (created; must not already
/// hold a campaign). `options.checkpoint_interval == 0` is replaced by
/// kDefaultCampaignInterval. Requires run_symbolic, a symbolic
/// configuration check_hybrid_config accepts (checked before the store
/// is created) and a fully specified (X-free), non-empty sequence.
[[nodiscard]] Expected<CampaignResult, std::string> run_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const TestSequence& sequence, const SimOptions& options,
    const std::string& store_dir, ProgressSink* progress = nullptr,
    CheckpointSink* tap = nullptr);

/// Resumes the campaign persisted in `store_dir` from its newest
/// checkpoints. Validates the store's fingerprints against `netlist`,
/// `faults` and the stored options and refuses on any mismatch.
/// `threads` (if set) overrides the recorded thread count — results do
/// not depend on it. Resuming a completed campaign is a no-op that
/// returns the stored result.
/// `telemetry` (optional) observes the resumed run exactly like
/// SimOptions::telemetry does for run_campaign — resume takes no
/// SimOptions, so the context is passed directly. Attaching it never
/// affects results or the store's fingerprints.
/// `sim3_backend` (if set) overrides the recorded three-valued backend
/// for the fallback windows of this invocation — like `threads`, the
/// backend never affects results, so a campaign checkpointed under one
/// backend resumes bit-identically under the other.
[[nodiscard]] Expected<CampaignResult, std::string> resume_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::string& store_dir,
    std::optional<std::size_t> threads = std::nullopt,
    ProgressSink* progress = nullptr, CheckpointSink* tap = nullptr,
    obs::Telemetry* telemetry = nullptr,
    std::optional<Sim3Backend> sim3_backend = std::nullopt);

/// Appends `extra_frames` to a *completed* campaign and simulates only
/// the extension — detected and X-redundant faults are never
/// re-evaluated; live faults continue from the final checkpoints. When
/// the checkpoint interval divides every previous segment boundary,
/// the result is bit-identical to a fresh campaign over the
/// concatenated sequence (see docs/CHECKPOINT.md for the alignment
/// argument).
[[nodiscard]] Expected<CampaignResult, std::string> extend_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const TestSequence& extra_frames, const std::string& store_dir,
    std::optional<std::size_t> threads = std::nullopt,
    ProgressSink* progress = nullptr, CheckpointSink* tap = nullptr,
    obs::Telemetry* telemetry = nullptr,
    std::optional<Sim3Backend> sim3_backend = std::nullopt);

}  // namespace motsim

#endif  // MOTSIM_STORE_CAMPAIGN_H
