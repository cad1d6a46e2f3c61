#ifndef MOTSIM_CORE_PROGRESS_H
#define MOTSIM_CORE_PROGRESS_H

#include <cstddef>
#include <cstdint>

namespace motsim {

/// Observer interface for a running fault simulation.
///
/// HybridFaultSim accepts a ProgressSink pointer and invokes it from
/// the simulation loop, also in every run_sharded shard; the default
/// (nullptr) costs one branch per event and allocates nothing, so the
/// hot path is unchanged when nobody is listening. Every callback has an empty
/// default body — override only what you need.
///
/// Threading: HybridFaultSim calls the sink from the thread that runs
/// run(). run_sharded serializes all callbacks through one mutex
/// and translates fault indices to the caller's (global) fault list,
/// so a sink never needs its own locking; callbacks from different
/// chunks may interleave in any order between frames.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;

  /// End of one simulated frame. `frame` is 1-based; `live_nodes` is
  /// the manager's live OBDD count (0 during three-valued windows);
  /// `faults_remaining` counts the faults still undecided in the
  /// reporting engine (per chunk under the parallel driver).
  virtual void on_frame(std::size_t frame, std::size_t live_nodes,
                        std::size_t faults_remaining) {
    (void)frame;
    (void)live_nodes;
    (void)faults_remaining;
  }

  /// The hybrid engine left symbolic mode: a three-valued window of
  /// `window_frames` frames starts at `frame` (1-based, the first
  /// frame simulated three-valued).
  virtual void on_fallback_window(std::size_t frame,
                                  std::size_t window_frames) {
    (void)frame;
    (void)window_frames;
  }

  /// Fault `fault_index` (into the simulated fault list; global under
  /// the parallel driver) was detected at `frame` (1-based).
  virtual void on_fault_detected(std::size_t fault_index,
                                 std::uint32_t frame) {
    (void)fault_index;
    (void)frame;
  }

  /// A pipeline stage finished: `name` is the stage's stable span name
  /// ("stage.analysis", "stage.xred", "stage.sim3", "stage.symbolic" —
  /// see docs/OBSERVABILITY.md), `seconds` its wall-clock duration.
  /// Called from the thread that runs the pipeline, in stage order.
  virtual void on_stage(const char* name, double seconds) {
    (void)name;
    (void)seconds;
  }
};

}  // namespace motsim

#endif  // MOTSIM_CORE_PROGRESS_H
