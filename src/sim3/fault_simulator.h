#ifndef MOTSIM_SIM3_FAULT_SIMULATOR_H
#define MOTSIM_SIM3_FAULT_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "faults/fault.h"
#include "logic/val3.h"

namespace motsim {

namespace obs {
struct Telemetry;  // obs/telemetry.h
}

/// Sparse divergence of a faulty machine's present state from the
/// fault-free state: (flip-flop position, faulty value). Entries
/// always differ from the fault-free value.
using StateDiff3 = std::vector<std::pair<std::uint32_t, Val3>>;

/// Selects the three-valued fault-simulation engine. Both backends
/// are bit-identical by contract — same FaultStatus, same
/// detect_frame, same next-state divergences for every fault on every
/// sequence — so the choice is purely a performance knob and is
/// deliberately excluded from store fingerprints (a run checkpointed
/// under one backend resumes under the other).
enum class Sim3Backend : std::uint8_t {
  Event = 0,   ///< serial event-driven single-fault propagation (oracle)
  BitPar = 1,  ///< bit-parallel levelized PPSFP (64 faults per word)
};

[[nodiscard]] const char* to_cstring(Sim3Backend b) noexcept;

/// Parses "event" / "bitpar"; nullopt for anything else.
[[nodiscard]] std::optional<Sim3Backend> parse_sim3_backend(
    std::string_view token);

/// Process-wide default backend: Sim3Backend::BitPar unless the
/// environment variable MOTSIM_SIM3_BACKEND holds a valid backend
/// token (the CI matrix uses this to run the whole test suite under
/// both engines; the event engine stays as the oracle). Read once and
/// cached.
[[nodiscard]] Sim3Backend default_sim3_backend();

/// Per-fault outcome of a three-valued fault simulation run.
struct FaultSim3Result {
  /// One entry per fault of the simulated list: DetectedSim3 or the
  /// entry's initial status (e.g. XRedundant faults are skipped).
  std::vector<FaultStatus> status;
  /// Frame (1-based) at which each fault was detected; 0 if never.
  std::vector<std::uint32_t> detect_frame;
  std::size_t detected_count = 0;
  std::size_t simulated_faults = 0;  ///< faults actually simulated
};

/// Abstract three-valued (0/1/X) fault simulator over one fixed fault
/// list. Two interchangeable backends implement it: the serial
/// event-driven reference engine (FaultSim3) and the bit-parallel
/// levelized engine (BitParFaultSim3); make_fault_simulator3() picks
/// one at runtime.
///
/// Two entry styles, matching the two kinds of call site:
///
/// 1. Campaign runs — set_initial_status() + run(): simulate a whole
///    sequence from the all-X initial state with fault dropping; the
///    paper's baseline X01 classification.
///
/// 2. Windowed frame-step sessions — begin_window() / step_window() /
///    end_window(): the caller owns the clock and advances the
///    machines one frame at a time from an explicit boundary state.
///    This serves the hybrid simulator's three-valued fallback
///    windows, N-detect scoring and test-set compaction, which all
///    need per-frame detection reports and mid-stream snapshots.
///    Window faults are addressed by their *position* in the
///    fault_indices vector passed to begin_window(); detection only
///    reports — the caller decides when a fault is dropped
///    (drop_window_fault), so N-detect can keep observing a fault and
///    the hybrid can drop on first detection. Faulty machines always
///    latch their next state, dropped ones simply stop being reported.
///
/// The backend contract (docs/SIM3.md): for the same fault list,
/// initial statuses and inputs, every virtual below returns
/// bit-identical results on every backend, for any thread count.
class FaultSimulator3 {
 public:
  explicit FaultSimulator3(std::vector<Fault> faults);
  virtual ~FaultSimulator3() = default;

  FaultSimulator3(const FaultSimulator3&) = delete;
  FaultSimulator3& operator=(const FaultSimulator3&) = delete;

  [[nodiscard]] virtual Sim3Backend backend() const noexcept = 0;

  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }

  /// Attaches a telemetry context (sim3.* counters and batch spans);
  /// nullptr detaches. The pointer must outlive the runs it observes.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  // ---- campaign entry --------------------------------------------------

  /// Pre-classifies faults (e.g. XRedundant from ID_X-red); faults not
  /// Undetected are never simulated. Must be called before run().
  void set_initial_status(std::vector<FaultStatus> status);

  /// Simulates the whole input sequence (outer index = frame) from the
  /// all-X initial state, with fault dropping, and returns the
  /// classification.
  [[nodiscard]] virtual FaultSim3Result run(
      const std::vector<std::vector<Val3>>& sequence) = 0;

  // ---- windowed frame-step session -------------------------------------

  /// Opens a frame-step session: the fault-free machine starts in
  /// `good_state` (one value per flip-flop), and one faulty machine is
  /// materialized per entry of `fault_indices` (indices into faults()),
  /// each diverging from the fault-free state by the aligned sparse
  /// `diffs` entry. Replaces any session already open.
  virtual void begin_window(const std::vector<Val3>& good_state,
                            std::vector<std::size_t> fault_indices,
                            std::vector<StateDiff3> diffs) = 0;

  /// Advances the session one frame. Returns the window positions of
  /// the (non-dropped) faults observed this frame — an output with
  /// opposite binary fault-free/faulty values — in ascending order.
  [[nodiscard]] virtual std::vector<std::uint32_t> step_window(
      const std::vector<Val3>& inputs) = 0;

  /// Stops reporting (and counting) window fault `pos`.
  virtual void drop_window_fault(std::uint32_t pos) = 0;

  /// Number of not-yet-dropped window faults.
  [[nodiscard]] virtual std::size_t window_live() const = 0;
  [[nodiscard]] virtual bool window_fault_alive(std::uint32_t pos) const = 0;

  /// Fault-free present state after the last step_window().
  [[nodiscard]] virtual const std::vector<Val3>& window_state() const = 0;

  /// Sparse present-state divergence of window fault `pos`, in
  /// ascending flip-flop position order (the snapshot form carried by
  /// checkpoints and symbolic re-seeding).
  [[nodiscard]] virtual StateDiff3 window_diff(std::uint32_t pos) const = 0;

  virtual void end_window() = 0;

 protected:
  std::vector<Fault> faults_;
  std::vector<FaultStatus> initial_status_;
  obs::Telemetry* telemetry_ = nullptr;
};

/// Engine construction knobs (not part of the result contract).
struct Sim3EngineConfig {
  /// Worker threads for the bit-parallel backend's group batching
  /// (0 = hardware concurrency, 1 = serial). Results are identical
  /// for every value. Ignored by the event backend.
  std::size_t threads = 1;
  obs::Telemetry* telemetry = nullptr;
};

/// Builds the selected backend over a fault-list copy.
[[nodiscard]] std::unique_ptr<FaultSimulator3> make_fault_simulator3(
    Sim3Backend backend, const Netlist& netlist, std::vector<Fault> faults,
    const Sim3EngineConfig& config = {});

}  // namespace motsim

#endif  // MOTSIM_SIM3_FAULT_SIMULATOR_H
