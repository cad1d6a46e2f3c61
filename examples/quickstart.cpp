// Quickstart: the complete pipeline of the paper on the embedded
// ISCAS-89 circuit s27.
//
//   1. build/load a circuit and its collapsed stuck-at fault list,
//   2. run ID_X-red to eliminate X-redundant faults (Section III),
//   3. run the three-valued fault simulation (the X01 baseline),
//   4. run the symbolic fault simulation on the leftovers under the
//      SOT, rMOT and MOT strategies (Section IV),
//   5. print a per-strategy summary,
//   6. do the whole thing again in one call through SimOptions +
//      run_pipeline — the recommended front door.

#include <cstdio>

#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "core/xred.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"

int main() {
  using namespace motsim;

  // 1. Circuit and collapsed fault list.
  const Netlist nl = make_s27();
  const CollapsedFaultList collapsed(nl);
  const std::vector<Fault>& faults = collapsed.faults();
  std::printf("circuit %s: %zu inputs, %zu outputs, %zu flip-flops, "
              "%zu gates\n",
              nl.name().c_str(), nl.input_count(), nl.output_count(),
              nl.dff_count(), nl.gate_count());
  std::printf("faults: %zu collapsed (%zu uncollapsed)\n", collapsed.size(),
              collapsed.uncollapsed_size());

  // A random test sequence (the paper's Tables I/II use length 200).
  Rng rng(42);
  const TestSequence sequence = random_sequence(nl, 32, rng);

  // 2. ID_X-red: which faults can this sequence never detect under
  //    three-valued logic?
  const XRedResult xred = run_id_x_red(nl, sequence);
  const std::vector<FaultStatus> initial = xred.classify(faults);
  std::printf("ID_X-red: %zu of %zu faults are X-redundant\n",
              xred.count_x_redundant(faults), faults.size());

  // 3. Three-valued fault simulation on the rest.
  FaultSim3 sim3(nl, faults);
  sim3.set_initial_status(initial);
  const FaultSim3Result r3 = sim3.run(sequence);
  std::printf("X01:  %zu faults detected (of %zu simulated)\n",
              r3.detected_count, r3.simulated_faults);

  // 4. Symbolic fault simulation of the X01 leftovers, one strategy at
  //    a time. Every strategy sees exactly the faults that X01 could
  //    not classify. No node limit: s27 is small enough to run purely
  //    symbolic (the pipeline below uses the paper's 30,000).
  std::vector<FaultStatus> leftover = r3.status;
  for (auto& s : leftover) {
    if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
  }
  for (Strategy strategy : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim sym(nl, faults,
                       HybridConfig{.strategy = strategy,
                                    .node_limit = kNoNodeLimit});
    sym.set_initial_status(leftover);
    const HybridResult rs = sym.run(sequence);
    std::printf("%-4s: %zu additional faults detected (peak %zu OBDD "
                "nodes)\n",
                to_cstring(strategy), rs.detected_count, rs.peak_live_nodes);
  }

  // 6. The one-call equivalent: a flat SimOptions drives all three
  //    stages. `threads = 0` shards the symbolic stage across every
  //    hardware thread — same result, less wall clock.
  SimOptions opt;
  opt.strategy = Strategy::Mot;
  opt.threads = 0;
  const PipelineResult r = run_pipeline(nl, faults, sequence, opt);
  std::printf("pipeline (MOT, fault-sharded): %zu/%zu detected, "
              "first detection at frame %u\n",
              r.summary().detected_total(), faults.size(),
              [&] {
                std::uint32_t first = 0;
                for (std::uint32_t f : r.detect_frame) {
                  if (f != 0 && (first == 0 || f < first)) first = f;
                }
                return first;
              }());

  return 0;
}
