// Telemetry-overhead ablation: what does observability cost?
//
// Runs the full pipeline twice per circuit: once with
// SimOptions::telemetry == nullptr — the default, where every
// instrumentation site in bdd/, core/, util/ and store/ is one
// dormant branch (the exact hot path of an uninstrumented build) —
// and once with a live Telemetry context collecting every metric,
// span and histogram described in docs/OBSERVABILITY.md. The delta
// between the two bounds the *entire* cost of the observability
// layer from above: the disabled path can only be cheaper than the
// enabled one it is a strict subset of.
//
// The harness exits nonzero if enabled telemetry costs more than 2%
// wall-clock over the disabled baseline — which simultaneously proves
// the disabled path is within the 2% budget of an instrumentation-free
// build. When enabled it prints the paper-facing resource numbers:
// apply-cache hit rate, peak live OBDD nodes against the space limit,
// GC time and node-table slots, and the per-phase seconds table (paper
// Tables II-IV report exactly these time/space columns).
//
// A 2% bound needs samples steadier than 2%, so the harness measures
// serially (no thread scheduling in the timed region), makes every
// sample a batch of back-to-back pipeline runs lasting at least one
// second, interleaves the off/on/full samples (rotating their order
// each round, so host drift hits every mode alike) and compares the
// modes by their median samples.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS=n   worker threads of the symbolic stage (default 1)

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

/// Minimum wall time of one timed sample.
constexpr double kMinSampleSeconds = 1.0;

/// Runs the pipeline `runs` times back to back; returns the wall time
/// and the detected count (identical across runs).
std::pair<double, std::size_t> timed_batch(const Netlist& nl,
                                           const std::vector<Fault>& faults,
                                           const TestSequence& seq,
                                           SimOptions opts, int runs,
                                           obs::Telemetry* telemetry) {
  opts.telemetry = telemetry;
  std::size_t detected = 0;
  const Stopwatch timer;
  for (int i = 0; i < runs; ++i) {
    const PipelineResult r = run_pipeline(nl, faults, seq, opts);
    detected = r.detected_3v + r.detected_symbolic;
  }
  return {timer.elapsed_seconds(), detected};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double counter_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0;
}

double gauge_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

int main() {
  print_preamble("telemetry ablation",
                 "cost of the observability layer, off vs on");

  const std::size_t threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS", 1));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 96));
  const int reps = full_mode() ? 9 : 7;

  std::vector<std::string> names{"s526"};
  if (full_mode()) {
    names.push_back("s1238");
    names.push_back("s1423");
  }

  bool budget_met = true;
  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);

    SimOptions opts;
    opts.threads = threads;

    // One untimed warmup run pays the process's cold caches and page
    // faults and gives the reference result; then the batch size is the
    // number of runs that fill kMinSampleSeconds.
    const std::size_t reference =
        timed_batch(nl, faults.faults(), seq, opts, 1, nullptr).second;
    int runs = 0;
    for (const Stopwatch calibrate;
         calibrate.elapsed_seconds() < kMinSampleSeconds; ++runs) {
      (void)timed_batch(nl, faults.faults(), seq, opts, 1, nullptr);
    }
    std::printf("%s: %zu faults, %zu vectors, %zu threads, median of %d "
                "interleaved samples of %d runs\n",
                name.c_str(), faults.size(), seq.size(), threads, reps,
                runs);

    // Modes: telemetry off, on (metrics + spans + recorder), and the
    // whole stack — on plus a live JSONL log sink at the default Info
    // level and the 5 ms background sampler, everything `--log X
    // --sample-interval 5` turns on. Repeated samples accumulate into
    // one context per mode.
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "motsim_ablation_obs")
            .string();
    std::filesystem::create_directories(scratch);
    obs::Telemetry telemetry;
    obs::Telemetry full_tele;
    auto logger =
        obs::Logger::open(scratch + "/" + name + ".log.jsonl",
                          obs::LogLevel::Info);
    if (!logger.has_value()) {
      std::fprintf(stderr, "ablation_obs: %s\n", logger.error().c_str());
    }
    enum Mode { kOff, kOn, kFull };
    std::array<std::vector<double>, 3> samples;
    std::array<std::size_t, 3> detected{reference, reference, reference};
    for (int rep = 0; rep < reps; ++rep) {
      for (int k = 0; k < 3; ++k) {
        const int mode = (rep + k) % 3;
        std::unique_ptr<obs::Sampler> sampler;
        obs::Telemetry* tele = nullptr;
        if (mode == kOn) tele = &telemetry;
        if (mode == kFull) {
          tele = &full_tele;
          if (logger.has_value()) full_tele.attach_logger(logger->get());
          auto started = obs::Sampler::start(
              full_tele, scratch + "/" + name + ".samples.jsonl", 5);
          if (started.has_value()) sampler = std::move(*started);
        }
        const auto [secs, det] =
            timed_batch(nl, faults.faults(), seq, opts, runs, tele);
        if (sampler) sampler->stop();
        full_tele.attach_logger(nullptr);
        samples[mode].push_back(secs);
        if (det != reference) detected[mode] = det;
      }
    }
    const double off_s = median(samples[kOff]);
    const double on_s = median(samples[kOn]);
    const double full_s = median(samples[kFull]);

    const double overhead = off_s > 0 ? (on_s - off_s) / off_s : 0.0;
    const double full_overhead =
        off_s > 0 ? (full_s - off_s) / off_s : 0.0;
    auto spread = [](const std::vector<double>& v) {
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      return *lo > 0 ? (*hi - *lo) / *lo : 0.0;
    };
    std::printf("  %-18s %9.3f s   %zu detected   spread %.1f%%\n",
                "telemetry off", off_s, detected[kOff],
                spread(samples[kOff]) * 100.0);
    std::printf("  %-18s %9.3f s   %zu detected   spread %.1f%%   "
                "overhead %+.1f%%\n",
                "telemetry on", on_s, detected[kOn],
                spread(samples[kOn]) * 100.0, overhead * 100.0);
    std::printf("  %-18s %9.3f s   %zu detected   spread %.1f%%   "
                "overhead %+.1f%%\n",
                "full obs stack", full_s, detected[kFull],
                spread(samples[kFull]) * 100.0, full_overhead * 100.0);
    if (detected != std::array<std::size_t, 3>{reference, reference,
                                               reference}) {
      std::fprintf(stderr,
                   "RESULT DIVERGENCE: %s detects %zu with telemetry, "
                   "%zu with the full stack, %zu without (warmup %zu)\n",
                   name.c_str(), detected[kOn], detected[kFull],
                   detected[kOff], reference);
      budget_met = false;
    }
    if (overhead >= 0.02) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: %s telemetry costs %.1f%% "
                   "(budget 2%%)\n",
                   name.c_str(), overhead * 100.0);
      budget_met = false;
    }
    if (full_overhead >= 0.02) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: %s full observability stack costs "
                   "%.1f%% (budget 2%%)\n",
                   name.c_str(), full_overhead * 100.0);
      budget_met = false;
    }

    // The paper-facing resource numbers (Tables II-IV time/space
    // columns), straight from the enabled run's registry. Repeated
    // runs accumulate into one context; the ratios and peaks below are
    // run-invariant, the GC seconds are summed over every run.
    const obs::MetricsSnapshot s = telemetry.metrics.snapshot();
    const double lookups = counter_of(s, "bdd.apply_cache_lookups");
    const double hits = counter_of(s, "bdd.apply_cache_hits");
    std::printf("  apply-cache hit rate   %6.2f%%  (%.0f / %.0f)\n",
                lookups > 0 ? 100.0 * hits / lookups : 0.0, hits, lookups);
    std::printf("  peak live OBDD nodes   %6.0f   (space limit %zu)\n",
                gauge_of(s, "bdd.peak_live_nodes"), opts.node_limit);
    std::printf("  gc runs                %6.0f   (%.0f nodes reclaimed, "
                "%.3f s)\n",
                counter_of(s, "bdd.gc_runs"),
                counter_of(s, "bdd.gc_reclaimed_nodes"),
                gauge_of(s, "bdd.gc_seconds"));
    std::printf("  peak node-table slots  %6.0f\n",
                gauge_of(s, "bdd.node_slots"));
    std::printf("\nper-phase seconds (all reps):\n%s\n",
                telemetry.tracer.phase_summary().c_str());
  }

  if (!budget_met) return 1;
  std::printf("telemetry overhead (bare and full stack) is within the 2%% "
              "budget and results are identical off vs on.\n");
  return 0;
}
