#include "store/campaign.h"

#include <sstream>
#include <utility>

#include <cstdio>

#include "analysis/implication.h"
#include "analysis/static_xred.h"
#include "circuit/netlist.h"
#include "core/parallel_sym_sim.h"
#include "core/xred.h"
#include "obs/telemetry.h"
#include "store/fingerprint.h"
#include "store/run_store.h"
#include "util/stopwatch.h"

namespace motsim {

namespace {

using Err = Unexpected<std::string>;

/// The time base of a campaign invocation's events.jsonl "t" fields:
/// seconds since the entry point started. When a Telemetry context is
/// attached its tracer epoch is used instead, so the event stream and
/// the trace share one clock and can be correlated record-for-record.
class EventClock {
 public:
  explicit EventClock(obs::Telemetry* telemetry) : telemetry_(telemetry) {}

  [[nodiscard]] double now() const {
    return telemetry_ != nullptr ? telemetry_->seconds_since_start()
                                 : epoch_.elapsed_seconds();
  }

  /// `,"t":<seconds>` — appended to every event object. Fixed-point
  /// with microsecond resolution; old readers ignore the extra field.
  [[nodiscard]] std::string t_field() const {
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), ",\"t\":%.6f", now());
    return buffer;
  }

 private:
  obs::Telemetry* telemetry_;
  Stopwatch epoch_;
};

bool sequence_has_x(const TestSequence& sequence) {
  for (const auto& frame : sequence) {
    for (Val3 v : frame) {
      if (!is_binary(v)) return true;
    }
  }
  return false;
}

/// Persists every checkpoint, mirrors it to events.jsonl, then hands
/// it to the test tap (which may throw to simulate a crash *after*
/// the persisted write).
class StoreCheckpointSink final : public CheckpointSink {
 public:
  StoreCheckpointSink(RunStore& store, CheckpointSink* tap,
                      const EventClock* clock, obs::Telemetry* telemetry)
      : store_(&store), tap_(tap), clock_(clock), telemetry_(telemetry) {}

  void on_checkpoint(const ChunkCheckpoint& ck) override {
    store_->append_checkpoint(ck);
    std::size_t live = 0;
    for (FaultStatus s : ck.status) {
      if (s == FaultStatus::Undetected) ++live;
    }
    std::ostringstream os;
    os << "{\"event\":\"checkpoint\",\"chunk\":" << ck.chunk
       << ",\"frame\":" << ck.frame << ",\"in_window\":"
       << (ck.in_window ? "true" : "false")
       << ",\"complete\":" << (ck.complete ? "true" : "false")
       << ",\"live\":" << live << clock_->t_field() << "}";
    store_->append_event(os.str());
    if (telemetry_ != nullptr) telemetry_->tracer.instant("event.checkpoint");
    if (tap_ != nullptr) tap_->on_checkpoint(ck);
  }

 private:
  RunStore* store_;
  CheckpointSink* tap_;
  const EventClock* clock_;
  obs::Telemetry* telemetry_;
};

/// Forwards to the user's sink (if any) and logs detections and
/// fallback windows to events.jsonl. Called under the parallel
/// driver's sink mutex, so file appends never interleave.
class StoreProgressSink final : public ProgressSink {
 public:
  StoreProgressSink(RunStore& store, ProgressSink* user,
                    const EventClock* clock, obs::Telemetry* telemetry)
      : store_(&store), user_(user), clock_(clock), telemetry_(telemetry) {}

  void on_frame(std::size_t frame, std::size_t live_nodes,
                std::size_t faults_remaining) override {
    if (user_ != nullptr) user_->on_frame(frame, live_nodes, faults_remaining);
  }

  void on_fallback_window(std::size_t frame,
                          std::size_t window_frames) override {
    std::ostringstream os;
    os << "{\"event\":\"fallback_window\",\"frame\":" << frame
       << ",\"frames\":" << window_frames << clock_->t_field() << "}";
    store_->append_event(os.str());
    if (telemetry_ != nullptr) {
      telemetry_->tracer.instant("event.fallback_window");
    }
    if (user_ != nullptr) user_->on_fallback_window(frame, window_frames);
  }

  void on_fault_detected(std::size_t fault_index,
                         std::uint32_t frame) override {
    std::ostringstream os;
    os << "{\"event\":\"fault_detected\",\"fault\":" << fault_index
       << ",\"frame\":" << frame << clock_->t_field() << "}";
    store_->append_event(os.str());
    if (telemetry_ != nullptr) {
      telemetry_->tracer.instant("event.fault_detected");
    }
    if (user_ != nullptr) user_->on_fault_detected(fault_index, frame);
  }

 private:
  RunStore* store_;
  ProgressSink* user_;
  const EventClock* clock_;
  obs::Telemetry* telemetry_;
};

std::string lifecycle_event(const char* event, std::size_t frames,
                            std::size_t live, const EventClock& clock) {
  std::ostringstream os;
  os << "{\"event\":\"" << event << "\",\"sequence_length\":" << frames
     << ",\"live_faults\":" << live << clock.t_field() << "}";
  return os.str();
}

/// One lifecycle record, mirrored into the tracer (when attached) so
/// events.jsonl and the trace stream stay record-for-record alignable.
void log_lifecycle(RunStore& store, obs::Telemetry* telemetry,
                   const EventClock& clock, const char* event,
                   std::size_t frames, std::size_t live) {
  store.append_event(lifecycle_event(event, frames, live, clock));
  if (telemetry != nullptr) {
    telemetry->tracer.instant(std::string("event.") + event);
  }
}

std::size_t count_live(const std::vector<FaultStatus>& status) {
  std::size_t live = 0;
  for (FaultStatus s : status) {
    if (s == FaultStatus::Undetected) ++live;
  }
  return live;
}

/// Validates the caller's workload against the store's fingerprints.
Expected<bool, std::string> check_fingerprints(const StoreManifest& m,
                                               const Netlist& netlist,
                                               const std::vector<Fault>& faults,
                                               const std::string& dir) {
  if (fingerprint_netlist(netlist) != m.fp_netlist) {
    return Err{"store at " + dir +
               " was created for a different netlist (fingerprint mismatch; "
               "circuit '" + m.circuit + "')"};
  }
  if (fingerprint_faults(faults) != m.fp_faults) {
    return Err{"store at " + dir +
               " was created for a different fault list (fingerprint "
               "mismatch; stored " + std::to_string(m.faults) + " faults, "
               "caller has " + std::to_string(faults.size()) + ")"};
  }
  if (fingerprint_options(m.options) != m.fp_options) {
    return Err{"store at " + dir +
               " was created for a different workload (options fingerprint "
               "mismatch: written under an older fingerprint schema, or "
               "the manifest was edited by hand)"};
  }
  return true;
}

/// The shared simulation tail of all three entry points: run the
/// sharded engine over `sequence`, persist checkpoints, finish the
/// store (report.json, manifest complete flag) and assemble the
/// result.
Expected<CampaignResult, std::string> simulate_and_finish(
    RunStore& store, const Netlist& netlist, const std::vector<Fault>& faults,
    const TestSequence& sequence, std::vector<FaultStatus> initial_status,
    std::vector<ChunkCheckpoint> resume, bool resumed,
    std::optional<std::size_t> threads, ProgressSink* progress,
    CheckpointSink* tap, obs::Telemetry* telemetry, const EventClock& clock,
    std::optional<Sim3Backend> sim3_backend = std::nullopt) {
  store.set_telemetry(telemetry);
  const SimOptions& opts = store.manifest().options;
  HybridConfig config = opts.to_hybrid_config();
  // Like the thread count, the fallback-window backend never affects
  // results, so an invocation may override what the manifest recorded.
  if (sim3_backend.has_value()) config.sim3_backend = *sim3_backend;

  CampaignResult result;
  result.resumed = resumed;
  for (FaultStatus s : initial_status) {
    if (s == FaultStatus::StaticXRed) ++result.static_x_redundant;
    if (s == FaultStatus::StaticUntestable) ++result.static_untestable;
  }
  result.x_redundant = initial_status.size() - count_live(initial_status) -
                       result.static_x_redundant - result.static_untestable;
  result.frames_total = sequence.size();

  log_lifecycle(store, telemetry, clock, resumed ? "resume" : "run_start",
                sequence.size(), count_live(initial_status));

  StoreCheckpointSink ck_sink(store, tap, &clock, telemetry);
  StoreProgressSink ev_sink(store, progress, &clock, telemetry);
  try {
    HybridFaultSim engine(netlist, faults, config);
    engine.set_initial_status(std::move(initial_status));
    engine.set_progress(&ev_sink);
    engine.set_checkpoint_sink(&ck_sink);
    engine.set_telemetry(telemetry);
    if (opts.analysis) {
      // Recomputed from the netlist on every entry point (run, resume,
      // extend) — the manifest's analysis flag, not the invocation,
      // decides, so a resumed run ties exactly what the original did.
      const ImplicationEngine eng(netlist);
      if (eng.tied_constant_count() != 0) {
        engine.set_tied_constants(eng.tied_constants());
      }
      if (telemetry != nullptr) {
        telemetry->metrics.counter("analysis.implications_learned")
            .add(eng.stats().learned_implications);
        telemetry->metrics.counter("analysis.faults_pruned")
            .add(result.static_x_redundant + result.static_untestable);
        telemetry->metrics.counter("analysis.constants_tied")
            .add(eng.tied_constant_count());
      }
    }
    result.sym = run_sharded(engine, sequence, threads.value_or(opts.threads),
                             opts.chunk_size, std::move(resume));
  } catch (const std::exception& e) {
    // The store keeps every checkpoint persisted before the failure;
    // a later resume_campaign continues from them.
    return Err{std::string("campaign aborted: ") + e.what()};
  }

  result.status = result.sym.status;
  result.detect_frame = result.sym.detect_frame;

  const FaultReport report =
      FaultReport::build(netlist, faults, result.status, result.detect_frame);
  if (const auto w = store.write_report(report.to_json()); !w.has_value()) {
    return Err{w.error()};
  }
  store.manifest().complete = true;
  if (const auto w = store.save_manifest(); !w.has_value()) {
    return Err{w.error()};
  }
  log_lifecycle(store, telemetry, clock, "run_complete", sequence.size(),
                count_live(result.status));
  return result;
}

}  // namespace

Expected<CampaignResult, std::string> run_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const TestSequence& sequence, const SimOptions& options,
    const std::string& store_dir, ProgressSink* progress,
    CheckpointSink* tap) {
  const auto checked = options.validate();
  if (!checked.has_value()) {
    return Err{"SimOptions: " + checked.error()};
  }
  SimOptions opts = *checked;
  if (!opts.run_symbolic) {
    return Err{"campaigns require the symbolic engine "
               "(run_symbolic=false / --no-symbolic is incompatible with "
               "--store)"};
  }
  // Before any store file exists: a store whose engine cannot start
  // could never be resumed either.
  if (const auto ok = check_hybrid_config(netlist, opts.to_hybrid_config());
      !ok.has_value()) {
    return Err{ok.error()};
  }
  if (sequence.empty()) {
    return Err{"campaign sequence must not be empty"};
  }
  if (sequence_has_x(sequence)) {
    return Err{"campaign sequences must be fully specified "
               "(X inputs are only supported by the plain pipeline)"};
  }
  for (const auto& frame : sequence) {
    if (frame.size() != netlist.input_count()) {
      return Err{"campaign sequence frame width " +
                 std::to_string(frame.size()) + " does not match the " +
                 std::to_string(netlist.input_count()) + " circuit inputs"};
    }
  }
  if (opts.checkpoint_interval == 0) {
    opts.checkpoint_interval = kDefaultCampaignInterval;
  }

  std::vector<FaultStatus> initial(faults.size(), FaultStatus::Undetected);
  if (opts.analysis) {
    initial = StaticXRedAnalysis(netlist).classify(faults);
    // Implication-engine untestability upgrades only the leftovers, so
    // the StaticXRed and StaticUntestable buckets never overlap.
    ImplicationEngine(netlist).classify(faults, initial);
  }
  if (opts.run_xred) {
    const std::vector<FaultStatus> xs =
        run_id_x_red(netlist, sequence).classify(faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      // Statically pruned faults keep the stronger verdict.
      if (initial[i] == FaultStatus::Undetected) initial[i] = xs[i];
    }
  }

  obs::Telemetry* const telemetry = opts.telemetry;
  const EventClock clock(telemetry);

  StoreManifest manifest;
  manifest.circuit = netlist.name();
  manifest.inputs = netlist.input_count();
  manifest.dffs = netlist.dff_count();
  manifest.faults = faults.size();
  manifest.seed = opts.seed;
  manifest.complete = false;
  manifest.sequence_length = sequence.size();
  manifest.segment_lengths = {sequence.size()};
  manifest.fp_netlist = fingerprint_netlist(netlist);
  manifest.fp_faults = fingerprint_faults(faults);
  manifest.fp_options = fingerprint_options(opts);
  manifest.fp_sequence = fingerprint_sequence(sequence);
  manifest.options = opts;
  // The manifest describes the *campaign*, not this invocation: the
  // telemetry observer is invocation state (and a dangling pointer
  // hazard), so the stored copy never carries it. The text format
  // skips it anyway; this keeps the in-memory manifest honest too.
  manifest.options.telemetry = nullptr;

  auto store = RunStore::create(store_dir, std::move(manifest), sequence,
                                initial);
  if (!store.has_value()) return Err{store.error()};

  return simulate_and_finish(*store, netlist, faults, sequence,
                             std::move(initial), {}, /*resumed=*/false,
                             std::nullopt, progress, tap, telemetry, clock);
}

Expected<CampaignResult, std::string> resume_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::string& store_dir, std::optional<std::size_t> threads,
    ProgressSink* progress, CheckpointSink* tap, obs::Telemetry* telemetry,
    std::optional<Sim3Backend> sim3_backend) {
  const EventClock clock(telemetry);
  auto store = RunStore::open(store_dir);
  if (!store.has_value()) return Err{store.error()};
  if (const auto ok = check_fingerprints(store->manifest(), netlist, faults,
                                         store_dir);
      !ok.has_value()) {
    return Err{ok.error()};
  }

  const auto sequence = store->load_sequence();
  if (!sequence.has_value()) return Err{sequence.error()};
  if (fingerprint_sequence(*sequence) != store->manifest().fp_sequence ||
      sequence->size() != store->manifest().sequence_length) {
    return Err{"store at " + store_dir +
               ": sequence.txt does not match the manifest (fingerprint or "
               "length mismatch)"};
  }

  auto state = store->load_state();
  if (!state.has_value()) return Err{state.error()};
  if (state->initial_status.size() != faults.size()) {
    return Err{"store at " + store_dir + ": INIT record covers " +
               std::to_string(state->initial_status.size()) +
               " faults, caller has " + std::to_string(faults.size())};
  }

  // A resumed invocation restarts from checkpoints, so the store is
  // in-progress again until simulate_and_finish completes it.
  store->manifest().complete = false;

  return simulate_and_finish(*store, netlist, faults, *sequence,
                             std::move(state->initial_status),
                             std::move(state->checkpoints), /*resumed=*/true,
                             threads, progress, tap, telemetry, clock,
                             sim3_backend);
}

Expected<CampaignResult, std::string> extend_campaign(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const TestSequence& extra_frames, const std::string& store_dir,
    std::optional<std::size_t> threads, ProgressSink* progress,
    CheckpointSink* tap, obs::Telemetry* telemetry,
    std::optional<Sim3Backend> sim3_backend) {
  const EventClock clock(telemetry);
  if (extra_frames.empty()) {
    return Err{"extension must add at least one frame"};
  }
  if (sequence_has_x(extra_frames)) {
    return Err{"extension frames must be fully specified (no X inputs)"};
  }
  for (const auto& frame : extra_frames) {
    if (frame.size() != netlist.input_count()) {
      return Err{"extension frame width " + std::to_string(frame.size()) +
                 " does not match the " +
                 std::to_string(netlist.input_count()) + " circuit inputs"};
    }
  }

  auto store = RunStore::open(store_dir);
  if (!store.has_value()) return Err{store.error()};
  if (const auto ok = check_fingerprints(store->manifest(), netlist, faults,
                                         store_dir);
      !ok.has_value()) {
    return Err{ok.error()};
  }
  if (!store->manifest().complete) {
    return Err{"store at " + store_dir +
               " holds an incomplete campaign; resume it before extending"};
  }

  const auto base = store->load_sequence();
  if (!base.has_value()) return Err{base.error()};
  if (fingerprint_sequence(*base) != store->manifest().fp_sequence ||
      base->size() != store->manifest().sequence_length) {
    return Err{"store at " + store_dir +
               ": sequence.txt does not match the manifest (fingerprint or "
               "length mismatch)"};
  }

  auto state = store->load_state();
  if (!state.has_value()) return Err{state.error()};
  if (state->initial_status.size() != faults.size()) {
    return Err{"store at " + store_dir + ": INIT record covers " +
               std::to_string(state->initial_status.size()) +
               " faults, caller has " + std::to_string(faults.size())};
  }

  // Commit the extension to the store before simulating: sequence
  // first, then the manifest (atomically). A crash in between leaves
  // extra frames in sequence.txt that the manifest does not know —
  // detected on the next open via the sequence fingerprint check.
  if (const auto w = store->append_sequence(extra_frames); !w.has_value()) {
    return Err{w.error()};
  }
  TestSequence full = *base;
  full.insert(full.end(), extra_frames.begin(), extra_frames.end());
  store->manifest().sequence_length = full.size();
  store->manifest().segment_lengths.push_back(extra_frames.size());
  store->manifest().fp_sequence = fingerprint_sequence(full);
  store->manifest().complete = false;
  if (const auto w = store->save_manifest(); !w.has_value()) {
    return Err{w.error()};
  }
  store->set_telemetry(telemetry);
  log_lifecycle(*store, telemetry, clock, "extend", full.size(),
                count_live(state->initial_status));

  return simulate_and_finish(*store, netlist, faults, full,
                             std::move(state->initial_status),
                             std::move(state->checkpoints), /*resumed=*/true,
                             threads, progress, tap, telemetry, clock,
                             sim3_backend);
}

}  // namespace motsim
