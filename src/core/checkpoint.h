#ifndef MOTSIM_CORE_CHECKPOINT_H
#define MOTSIM_CORE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/fault.h"
#include "logic/val3.h"
#include "sim3/fault_sim3.h"

namespace motsim {

/// Snapshot of one hybrid-engine chunk at a completed frame boundary.
///
/// Checkpoints are taken only where the machine state is representable
/// in three-valued form: inside a three-valued fallback window the
/// state already is, and at a checkpoint-synchronization boundary the
/// engine converts its symbolic state (non-constant functions become
/// X) before snapshotting. Symbolic D̃ accumulators therefore never
/// need serializing — on resume the engine re-seeds unknown state bits
/// with fresh state variables and restarts every detection function at
/// constant 1, exactly the paper's re-entry after a fallback window.
/// Soundness carries over: the represented state sets only ever grow,
/// so a resumed run never claims a false detection.
///
/// `fault_index`, `status`, `detect_frame` and `diff` are aligned, one
/// entry per fault of the chunk. `fault_index` holds indices into the
/// caller's fault list: HybridFaultSim emits 0..n-1 (its own order),
/// run_sharded rewrites them to the global fault list. `diff` is
/// meaningful only for faults still Undetected (live); it is the
/// sparse three-valued divergence of the faulty machine's state from
/// `good_state`.
struct ChunkCheckpoint {
  /// Chunk id within the sharded driver (0 for the serial engine).
  std::size_t chunk = 0;
  /// Number of frames completed when the snapshot was taken; a resumed
  /// run continues with frame `frame` (0-based index into the
  /// sequence).
  std::size_t frame = 0;
  /// True when the snapshot was taken inside a three-valued fallback
  /// window; `window_left` frames of the window remain (0 means the
  /// window just ended and the next frame re-enters symbolic mode).
  bool in_window = false;
  std::size_t window_left = 0;
  /// True for the record emitted after the final frame (or after the
  /// last live fault dropped): the chunk finished this sequence.
  bool complete = false;
  /// Fault-free machine state, one value per flip-flop.
  std::vector<Val3> good_state;
  std::vector<std::size_t> fault_index;
  std::vector<FaultStatus> status;
  std::vector<std::uint32_t> detect_frame;  ///< 1-based; 0 = never
  std::vector<StateDiff3> diff;
};

/// Observer for checkpoint snapshots, the persistence hook of the run
/// store. Like ProgressSink: HybridFaultSim calls it from the thread
/// that executes run(); run_sharded serializes calls through one
/// mutex and translates chunk ids and fault indices to the global
/// fault list. A sink that throws aborts the run (the parallel driver
/// rethrows the first error) — the run-store tests use exactly that to
/// simulate a crash between two checkpoints.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void on_checkpoint(const ChunkCheckpoint& checkpoint) = 0;
};

}  // namespace motsim

#endif  // MOTSIM_CORE_CHECKPOINT_H
