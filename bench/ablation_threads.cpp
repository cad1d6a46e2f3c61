// Thread-count ablation of the fault-sharded parallel symbolic engine
// (core/parallel_sym_sim).
//
// For each circuit the FULL collapsed fault list goes straight into
// the symbolic engine (no ID_X-red / X01 pre-filtering — the point is
// to give every worker real work), once per thread count. Per-fault
// results are bit-identical across the sweep by construction (the
// shard partition never depends on the thread count); the harness
// asserts that while it measures the scaling curve.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS_MAX=n  highest thread count of the sweep
//                         (default 8)
//   MOTSIM_CHUNK=n        shard size (default kDefaultChunkSize)
//
// On a single-core host every thread count measures ~1x; the sharding
// itself costs only the per-shard manager setup.

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "core/parallel_sym_sim.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

int main() {
  print_preamble("threads ablation",
                 "fault-sharded parallel symbolic simulation");

  const std::size_t max_threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS_MAX", 8));
  const std::size_t chunk =
      static_cast<std::size_t>(env_int("MOTSIM_CHUNK", 0));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 48));

  // Quick mode: one mid-size controller and one >=1k-fault circuit;
  // full mode adds a third, larger one.
  std::vector<std::string> names{"s526", "s1238"};
  if (full_mode()) names.push_back("s1423");

  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);
    std::printf("%s: %zu faults, %zu vectors, chunk %zu\n", name.c_str(),
                faults.size(), seq.size(),
                chunk == 0 ? kDefaultChunkSize : chunk);
    std::printf("  %7s %9s %9s %8s %9s\n", "threads", "detected", "time[s]",
                "speedup", "fallback");

    double t1 = 0;
    std::vector<FaultStatus> reference;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      HybridConfig cfg;
      cfg.strategy = Strategy::Mot;
      const HybridFaultSim engine(nl, faults.faults(), cfg);
      Stopwatch timer;
      const HybridResult r = run_sharded(engine, seq, threads, chunk);
      const double secs = timer.elapsed_seconds();
      if (threads == 1) {
        t1 = secs;
        reference = r.status;
      } else if (r.status != reference) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s differs at %zu threads\n",
                     name.c_str(), threads);
        return 1;
      }
      std::printf("  %7zu %9zu %9.3f %7.2fx %9zu\n", threads,
                  r.detected_count, secs, secs > 0 ? t1 / secs : 0.0,
                  r.fallback_windows);
    }
    std::printf("\n");
  }
  std::printf("per-fault statuses identical across the whole sweep.\n");
  return 0;
}
