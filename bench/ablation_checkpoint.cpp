// Checkpoint-interval ablation: what does campaign resumability cost?
//
// Sweeps the checkpoint-synchronization interval K of the hybrid
// engine (core/hybrid_sim.h). Every K completed frames the engine
// converts its symbolic state to three-valued form, persists a
// snapshot through a CheckpointSink and re-seeds — the mechanism that
// makes killed campaigns resumable bit-identically (store/campaign.h,
// docs/CHECKPOINT.md). The sweep measures that overhead against the
// K = 0 baseline (no syncs, no sink) and also reports the coverage
// effect: a sync is a zero-length fallback window, so small K can
// trade a little coverage for fine-grained resumability.
//
// The harness exits nonzero if the default campaign interval (K = 32)
// costs more than 5% wall-clock over the baseline — the budget the
// run store promises.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS=n   worker threads of the sharded engine (default 2)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel_sym_sim.h"
#include "faults/collapse.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

/// Persists every snapshot the way the run store does — serialized
/// CKPT line appended to a file — so the measured overhead includes
/// the real serialization and I/O, not just the engine-side sync.
class FileSink final : public CheckpointSink {
 public:
  explicit FileSink(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  void on_checkpoint(const ChunkCheckpoint& ck) override {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr) return;
    const std::string line = serialize_checkpoint_line(ck) + "\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    ++count;
  }
  std::size_t count = 0;

 private:
  std::string path_;
};

struct Measurement {
  double seconds = 0;
  std::size_t detected = 0;
  std::size_t syncs = 0;
  std::size_t records = 0;
};

Measurement measure(const Netlist& nl, const std::vector<Fault>& faults,
                    const TestSequence& seq, std::size_t threads,
                    std::size_t interval, const std::string& sink_path,
                    int reps) {
  Measurement best;
  best.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    HybridConfig cfg;
    cfg.strategy = Strategy::Mot;
    cfg.checkpoint_interval = interval;
    HybridFaultSim engine(nl, faults, cfg);
    FileSink sink(sink_path);
    if (interval != 0) engine.set_checkpoint_sink(&sink);
    Stopwatch timer;
    const HybridResult r = run_sharded(engine, seq, threads, 0);
    const double secs = timer.elapsed_seconds();
    if (secs < best.seconds) {
      best.seconds = secs;
      best.detected = r.detected_count;
      best.syncs = r.checkpoint_syncs;
      best.records = sink.count;
    }
  }
  return best;
}

}  // namespace

int main() {
  print_preamble("checkpoint ablation",
                 "cost of campaign resumability vs interval K");

  const std::size_t threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS", 2));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 96));
  const int reps = full_mode() ? 5 : 3;

  std::vector<std::string> names{"s526"};
  if (full_mode()) {
    names.push_back("s1238");
    names.push_back("s1423");
  }
  const std::string sink_path =
      (std::filesystem::temp_directory_path() / "motsim_ckpt_bench.log")
          .string();

  bool budget_met = true;
  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);
    std::printf("%s: %zu faults, %zu vectors, %zu threads, best of %d\n",
                name.c_str(), faults.size(), seq.size(), threads, reps);
    std::printf("  %6s %9s %9s %10s %7s %9s\n", "K", "detected", "time[s]",
                "overhead", "syncs", "records");

    const Measurement base =
        measure(nl, faults.faults(), seq, threads, 0, sink_path, reps);
    std::printf("  %6s %9zu %9.3f %10s %7zu %9s\n", "off", base.detected,
                base.seconds, "-", base.syncs, "-");

    for (std::size_t k : {std::size_t{8}, std::size_t{32}, std::size_t{128}}) {
      const Measurement m =
          measure(nl, faults.faults(), seq, threads, k, sink_path, reps);
      const double overhead =
          base.seconds > 0 ? (m.seconds - base.seconds) / base.seconds : 0.0;
      std::printf("  %6zu %9zu %9.3f %9.1f%% %7zu %9zu\n", k, m.detected,
                  m.seconds, overhead * 100.0, m.syncs, m.records);
      if (k == 32 && overhead >= 0.05) {
        std::fprintf(stderr,
                     "BUDGET VIOLATION: %s K=32 costs %.1f%% (budget 5%%)\n",
                     name.c_str(), overhead * 100.0);
        budget_met = false;
      }
    }
    std::printf("\n");
  }
  std::remove(sink_path.c_str());
  if (!budget_met) return 1;
  std::printf("checkpoint overhead at the default interval (K=32) is "
              "within the 5%% budget.\n");
  return 0;
}
