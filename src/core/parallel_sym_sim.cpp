#include "core/parallel_sym_sim.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/cone.h"
#include "obs/telemetry.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace motsim {

namespace {

/// Per-chunk progress adapter: serializes callbacks through the shared
/// mutex and maps the chunk-local fault indices that HybridFaultSim
/// reports back to the caller's global fault list.
class ChunkProgressAdapter final : public ProgressSink {
 public:
  ChunkProgressAdapter(ProgressSink* sink, std::mutex* mutex,
                       const std::size_t* global_indices)
      : sink_(sink), mutex_(mutex), global_indices_(global_indices) {}

  void on_frame(std::size_t frame, std::size_t live_nodes,
                std::size_t faults_remaining) override {
    std::lock_guard<std::mutex> lock(*mutex_);
    sink_->on_frame(frame, live_nodes, faults_remaining);
  }

  void on_fallback_window(std::size_t frame,
                          std::size_t window_frames) override {
    std::lock_guard<std::mutex> lock(*mutex_);
    sink_->on_fallback_window(frame, window_frames);
  }

  void on_fault_detected(std::size_t fault_index,
                         std::uint32_t frame) override {
    std::lock_guard<std::mutex> lock(*mutex_);
    sink_->on_fault_detected(global_indices_[fault_index], frame);
  }

 private:
  ProgressSink* sink_;
  std::mutex* mutex_;
  const std::size_t* global_indices_;
};

/// Per-chunk checkpoint adapter: stamps the chunk id, maps fault
/// indices to the global fault list and serializes on_checkpoint calls
/// through the shared sink mutex so one store can log every shard.
class ChunkCheckpointAdapter final : public CheckpointSink {
 public:
  ChunkCheckpointAdapter(CheckpointSink* sink, std::mutex* mutex,
                         const std::size_t* global_indices,
                         std::size_t chunk)
      : sink_(sink),
        mutex_(mutex),
        global_indices_(global_indices),
        chunk_(chunk) {}

  void on_checkpoint(const ChunkCheckpoint& checkpoint) override {
    ChunkCheckpoint global = checkpoint;
    global.chunk = chunk_;
    for (std::size_t& index : global.fault_index) {
      index = global_indices_[index];
    }
    std::lock_guard<std::mutex> lock(*mutex_);
    sink_->on_checkpoint(global);
  }

 private:
  CheckpointSink* sink_;
  std::mutex* mutex_;
  const std::size_t* global_indices_;
  std::size_t chunk_;
};

}  // namespace

ParallelSymSim::ParallelSymSim(const Netlist& netlist,
                               std::vector<Fault> faults,
                               ParallelSymConfig config)
    : netlist_(&netlist),
      faults_(std::move(faults)),
      config_(config),
      initial_status_(faults_.size(), FaultStatus::Undetected) {
  if (!netlist.finalized()) {
    throw std::logic_error("ParallelSymSim requires a finalized netlist");
  }
  if (config_.hybrid.node_limit == 0 || config_.hybrid.fallback_frames == 0 ||
      config_.hybrid.hard_limit_factor == 0) {
    throw std::invalid_argument("ParallelSymConfig: limits must be positive");
  }
}

void ParallelSymSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
}

void ParallelSymSim::set_trim_plan(TrimPlan plan) {
  if (plan.dead_from.size() != faults_.size()) {
    throw std::invalid_argument("set_trim_plan: plan does not match the "
                                "fault list");
  }
  trim_plan_ = std::move(plan);
}

void ParallelSymSim::set_sgraph_plan(SgraphPlan plan) {
  if (plan.horizon.size() != faults_.size()) {
    throw std::invalid_argument("set_sgraph_plan: plan does not match the "
                                "fault list");
  }
  sgraph_plan_ = std::move(plan);
}

std::size_t ParallelSymSim::resolved_threads() const noexcept {
  return config_.threads == 0 ? ThreadPool::default_thread_count()
                              : config_.threads;
}

std::size_t ParallelSymSim::resolved_chunk_size() const noexcept {
  return config_.chunk_size == 0 ? kDefaultChunkSize : config_.chunk_size;
}

HybridResult ParallelSymSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  // The partition: live faults, in fault-list order, cut into fixed
  // chunks. Everything downstream is a pure function of this list and
  // the sequence, so the merged result cannot depend on thread count.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) live.push_back(i);
  }
  // Cluster-aware shard assignment: group faults by shared cone of
  // influence before cutting chunks (deterministic — see the class
  // comment). A resumed run recomputes the identical partition because
  // the reorder depends on nothing but the inputs validated below. One
  // global trimming plan goes with it, sliced per chunk below; building
  // it once here keeps the per-shard setup cost flat in the chunk count.
  TrimPlan plan;
  if (config_.hybrid.trim) {
    const obs::SpanTracer::Span plan_span =
        obs::open_span(telemetry_, "plan.trim");
    live = cluster_live_order(*netlist_, faults_, live);
    plan = trim_plan_ ? *trim_plan_ : build_trim_plan(*netlist_, faults_);
  }
  // Likewise one global s-graph plan. Its horizons also refine the
  // shard assignment: a stable sort by observation horizon keeps the
  // cone clusters contiguous within each horizon class, so shard-mates
  // downgrade to the cheap SOT-style updates at the same frame instead
  // of one straggler keeping the whole shard's equality products alive.
  // Stable + pure function of the fault list, so still deterministic.
  SgraphPlan splan;
  if (config_.hybrid.sgraph) {
    const obs::SpanTracer::Span plan_span =
        obs::open_span(telemetry_, "plan.sgraph");
    splan =
        sgraph_plan_ ? *sgraph_plan_ : build_sgraph_plan(*netlist_, faults_);
    std::stable_sort(live.begin(), live.end(),
                     [&splan](std::size_t a, std::size_t b) {
                       return splan.horizon[a] < splan.horizon[b];
                     });
  }
  const std::size_t chunk_size = resolved_chunk_size();
  const std::size_t chunk_count = (live.size() + chunk_size - 1) / chunk_size;

  HybridResult merged;
  merged.status = initial_status_;
  merged.detect_frame.assign(faults_.size(), 0);
  if (chunk_count == 0) return merged;

  // Validate resume snapshots against the recomputed partition up
  // front (clear errors beat a worker rethrow) and translate each to
  // the chunk-local indexing HybridFaultSim::set_resume expects.
  std::vector<std::optional<ChunkCheckpoint>> resume_of(chunk_count);
  for (const ChunkCheckpoint& ck : resume_) {
    if (ck.chunk >= chunk_count) {
      throw std::invalid_argument(
          "ParallelSymSim::set_resume: checkpoint names chunk " +
          std::to_string(ck.chunk) + " but the partition has " +
          std::to_string(chunk_count) + " chunks");
    }
    if (resume_of[ck.chunk].has_value()) {
      throw std::invalid_argument(
          "ParallelSymSim::set_resume: duplicate checkpoint for chunk " +
          std::to_string(ck.chunk));
    }
    const std::size_t begin = ck.chunk * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, live.size());
    const std::size_t n = end - begin;
    if (ck.fault_index.size() != n || ck.status.size() != n ||
        ck.detect_frame.size() != n || ck.diff.size() != n) {
      throw std::invalid_argument(
          "ParallelSymSim::set_resume: checkpoint for chunk " +
          std::to_string(ck.chunk) + " has " +
          std::to_string(ck.fault_index.size()) + " faults, partition has " +
          std::to_string(n));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (ck.fault_index[i] != live[begin + i]) {
        throw std::invalid_argument(
            "ParallelSymSim::set_resume: checkpoint for chunk " +
            std::to_string(ck.chunk) +
            " does not match the chunk partition (fault list, initial "
            "statuses or chunk_size changed)");
      }
    }
    ChunkCheckpoint local = ck;
    local.chunk = 0;
    std::iota(local.fault_index.begin(), local.fault_index.end(),
              std::size_t{0});
    resume_of[ck.chunk] = std::move(local);
  }

  // Resolve the shard-latency histogram once; workers then observe
  // into it lock-free. Bounds span sub-millisecond s27 shards to
  // multi-minute stress runs.
  obs::Histogram* shard_hist =
      telemetry_ == nullptr
          ? nullptr
          : &telemetry_->metrics.histogram(
                "parallel.shard_seconds",
                {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0});

  std::vector<HybridResult> chunk_results(chunk_count);
  std::atomic<std::size_t> next_chunk{0};
  std::mutex progress_mutex;
  std::mutex error_mutex;
  std::string first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= chunk_count) return;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error.empty()) return;  // fail fast, drain the queue
      }
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(begin + chunk_size, live.size());
      std::vector<Fault> chunk_faults;
      chunk_faults.reserve(end - begin);
      for (std::size_t k = begin; k < end; ++k) {
        chunk_faults.push_back(faults_[live[k]]);
      }
      try {
        // One private BddManager per worker-chunk lives inside this
        // HybridFaultSim::run call; nothing symbolic crosses threads.
        HybridFaultSim sim(*netlist_, std::move(chunk_faults),
                           config_.hybrid);
        ChunkProgressAdapter adapter(progress_, &progress_mutex,
                                     live.data() + begin);
        if (progress_ != nullptr) sim.set_progress(&adapter);
        ChunkCheckpointAdapter ck_adapter(checkpoint_, &progress_mutex,
                                          live.data() + begin, c);
        if (checkpoint_ != nullptr) sim.set_checkpoint_sink(&ck_adapter);
        if (telemetry_ != nullptr) sim.set_telemetry(telemetry_);
        if (resume_of[c].has_value()) sim.set_resume(*resume_of[c]);
        if (!tied_.empty()) sim.set_tied_constants(tied_);
        if (config_.hybrid.trim) {
          TrimPlan chunk_plan;
          chunk_plan.dead_from.reserve(end - begin);
          for (std::size_t k = begin; k < end; ++k) {
            chunk_plan.dead_from.push_back(plan.dead_from[live[k]]);
          }
          sim.set_trim_plan(std::move(chunk_plan));
        }
        if (config_.hybrid.sgraph) {
          SgraphPlan chunk_splan;
          chunk_splan.nontrivial_sccs = splan.nontrivial_sccs;
          chunk_splan.horizon.reserve(end - begin);
          for (std::size_t k = begin; k < end; ++k) {
            chunk_splan.horizon.push_back(splan.horizon[live[k]]);
          }
          sim.set_sgraph_plan(std::move(chunk_splan));
        }
        std::optional<obs::SpanTracer::Span> shard_span;
        if (telemetry_ != nullptr) {
          shard_span = telemetry_->tracer.span("shard");
        }
        const Stopwatch shard_timer;
        chunk_results[c] = sim.run(sequence);
        if (shard_hist != nullptr) {
          shard_hist->observe(shard_timer.elapsed_seconds());
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = e.what();
      }
    }
  };

  const std::size_t workers =
      std::min(resolved_threads(), chunk_count);
  if (workers <= 1) {
    worker();
  } else {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.submit(worker);
    pool.wait_idle();
    if (telemetry_ != nullptr) {
      const ThreadPoolStats ps = pool.stats();
      obs::MetricsRegistry& m = telemetry_->metrics;
      m.counter("parallel.pool_tasks").add(ps.tasks_executed);
      m.gauge("parallel.idle_seconds").add(ps.idle_seconds);
      m.gauge("parallel.busy_seconds").add(ps.busy_seconds);
      m.gauge("parallel.max_queue_depth")
          .update_max(static_cast<double>(ps.max_queue_depth));
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("parallel.shards").add(chunk_count);
    telemetry_->metrics.gauge("parallel.workers")
        .update_max(static_cast<double>(workers));
  }
  if (!first_error.empty()) {
    throw std::runtime_error("ParallelSymSim worker failed: " + first_error);
  }

  // Deterministic merge, in chunk order (chunks own disjoint fault
  // index ranges, so completion order is irrelevant).
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const HybridResult& r = chunk_results[c];
    const std::size_t begin = c * chunk_size;
    for (std::size_t i = 0; i < r.status.size(); ++i) {
      const std::size_t g = live[begin + i];
      merged.status[g] = r.status[i];
      merged.detect_frame[g] = r.detect_frame[i];
    }
    merged.detected_count += r.detected_count;
    merged.used_fallback |= r.used_fallback;
    merged.fallback_windows += r.fallback_windows;
    merged.symbolic_frames += r.symbolic_frames;
    merged.three_valued_frames += r.three_valued_frames;
    merged.checkpoint_syncs += r.checkpoint_syncs;
    merged.frames_skipped += r.frames_skipped;
    merged.faults_terminated_early += r.faults_terminated_early;
    merged.faultfree_evals_shared += r.faultfree_evals_shared;
    merged.mot_downgrades += r.mot_downgrades;
    merged.peak_live_nodes =
        std::max(merged.peak_live_nodes, r.peak_live_nodes);
  }
  return merged;
}

}  // namespace motsim
