// Hybrid fault simulation: agreement with the pure symbolic run
// (node_limit = kNoNodeLimit) when space is ample, soundness under space pressure (every claim it
// makes still holds per the brute-force definitions), and fallback
// bookkeeping.

#include <gtest/gtest.h>

#include <string>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "reference.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::ref_mot_detectable;
using testing::ref_rmot_detectable;
using testing::ref_sot_detectable;
using testing::small_random_circuit;

HybridConfig ample(Strategy s) {
  HybridConfig cfg;
  cfg.strategy = s;
  cfg.node_limit = 1u << 22;  // effectively unlimited
  return cfg;
}

HybridConfig pure(Strategy s) {
  return HybridConfig{.strategy = s, .node_limit = kNoNodeLimit};
}

HybridConfig tight(Strategy s, std::size_t limit, std::size_t window = 2) {
  HybridConfig cfg;
  cfg.strategy = s;
  cfg.node_limit = limit;
  cfg.fallback_frames = window;
  cfg.hard_limit_factor = 2;
  return cfg;
}

class HybridVsPure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridVsPure, AmpleSpaceMatchesPureSymbolic) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 5 + 2);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim unlimited(nl, c.faults(), pure(s));
    const auto rp = unlimited.run(seq);
    EXPECT_FALSE(rp.used_fallback);

    HybridFaultSim hybrid(nl, c.faults(), ample(s));
    const auto rh = hybrid.run(seq);

    EXPECT_FALSE(rh.used_fallback);
    EXPECT_EQ(rh.fallback_windows, 0u);
    EXPECT_EQ(rh.three_valued_frames, 0u);
    EXPECT_EQ(rh.detected_count, rp.detected_count) << to_cstring(s);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(is_detected(rh.status[i]), is_detected(rp.status[i]))
          << to_cstring(s) << " " << fault_name(nl, c.faults()[i]);
      if (is_detected(rh.status[i])) {
        EXPECT_EQ(rh.detect_frame[i], rp.detect_frame[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridVsPure,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class HybridSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridSoundness, TightLimitClaimsRemainTrue) {
  // Force heavy fallback with a tiny node limit: whatever the hybrid
  // still detects must be genuinely detectable per the definitions.
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 11 + 9);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim hybrid(nl, c.faults(), tight(s, 24));
    const auto r = hybrid.run(seq);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!is_detected(r.status[i])) continue;
      const Fault& f = c.faults()[i];
      bool ok = false;
      switch (s) {
        case Strategy::Sot:
          ok = ref_sot_detectable(nl, f, seq);
          break;
        case Strategy::Rmot:
          ok = ref_rmot_detectable(nl, f, seq);
          break;
        case Strategy::Mot:
          ok = ref_mot_detectable(nl, f, seq);
          break;
      }
      EXPECT_TRUE(ok) << to_cstring(s) << " over-claimed "
                      << fault_name(nl, f) << " in " << nl.name();
    }
  }
}

TEST_P(HybridSoundness, FrameAccountingAddsUp) {
  const Netlist nl = small_random_circuit(GetParam() + 60);
  Rng rng(GetParam() * 3 + 8);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const CollapsedFaultList c(nl);

  HybridFaultSim hybrid(nl, c.faults(), tight(Strategy::Mot, 32, 3));
  const auto r = hybrid.run(seq);
  // Every frame ran in exactly one mode — unless all faults dropped
  // early and the run stopped.
  EXPECT_LE(r.symbolic_frames + r.three_valued_frames, seq.size());
  if (r.detected_count < c.size()) {
    EXPECT_EQ(r.symbolic_frames + r.three_valued_frames, seq.size());
  }
  if (r.used_fallback) {
    EXPECT_GT(r.fallback_windows, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridSoundness,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Hybrid, FallbackActuallyTriggersOnCounter) {
  // The s208.1-like counter under MOT with the paper's 30k limit stays
  // symbolic; with a very small limit it must fall back and still
  // detect a nonzero set.
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);
  Rng rng(77);
  const TestSequence seq = random_sequence(nl, 40, rng);

  HybridFaultSim small_sim(nl, c.faults(), tight(Strategy::Mot, 400, 4));
  const auto rs = small_sim.run(seq);
  EXPECT_TRUE(rs.used_fallback);
  EXPECT_GT(rs.three_valued_frames, 0u);
  EXPECT_GT(rs.symbolic_frames, 0u);

  HybridFaultSim big(nl, c.faults(), ample(Strategy::Mot));
  const auto rb = big.run(seq);
  // The space-pressured run can only be less accurate.
  EXPECT_LE(rs.detected_count, rb.detected_count);
}

TEST(Hybrid, PeakNodesRespectsOrderOfMagnitude) {
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);
  Rng rng(78);
  const TestSequence seq = random_sequence(nl, 30, rng);
  HybridFaultSim sim(nl, c.faults(), tight(Strategy::Mot, 1000, 4));
  const auto r = sim.run(seq);
  // Peak is measured after GC at frame boundaries; the hard cap is
  // node_limit * factor during a frame.
  EXPECT_LE(r.peak_live_nodes, 2000u * 2u);
}

TEST(Hybrid, InvalidConfigRejected) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  HybridConfig cfg;
  cfg.node_limit = 0;
  EXPECT_THROW(HybridFaultSim(nl, c.faults(), cfg), std::invalid_argument);
  cfg = HybridConfig{};
  cfg.fallback_frames = 0;
  EXPECT_THROW(HybridFaultSim(nl, c.faults(), cfg), std::invalid_argument);
}

TEST(Hybrid, HardLimitSaturatesInsteadOfOverflowing) {
  // 2^61 x 8 wraps to 0 in 64-bit arithmetic, which used to make the
  // very first node creation overflow. Saturated, it means "no cap",
  // exactly like kNoNodeLimit.
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  Rng rng(64);
  const TestSequence seq = random_sequence(nl, 64, rng);
  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridConfig huge = pure(s);
    huge.node_limit = std::size_t{1} << 61;
    huge.hard_limit_factor = 8;
    HybridFaultSim a(nl, c.faults(), huge);
    HybridFaultSim b(nl, c.faults(), pure(s));
    const HybridResult ra = a.run(seq);
    const HybridResult rb = b.run(seq);
    EXPECT_FALSE(ra.used_fallback) << to_cstring(s);
    EXPECT_EQ(ra.status, rb.status) << to_cstring(s);
    EXPECT_EQ(ra.detect_frame, rb.detect_frame) << to_cstring(s);
    EXPECT_EQ(ra.symbolic_frames, rb.symbolic_frames) << to_cstring(s);
  }
}

TEST(Hybrid, HardLimitBelowTheStateSeedIsRejected) {
  // s298 has 14 flip-flops. run() seeds 14 state-variable nodes before
  // the first frame, and the manager refuses a node once live + 2
  // reaches the hard limit: a hard limit of 16 is the smallest that
  // works. Below it the constructor names the smallest node_limit;
  // at it the run completes (falling back as often as it must).
  const Netlist nl = make_benchmark("s298");
  ASSERT_EQ(nl.dff_count(), 14u);
  const CollapsedFaultList c(nl);
  Rng rng(16);
  const TestSequence seq = random_sequence(nl, 16, rng);
  struct Cell {
    std::size_t factor, smallest;
  };
  for (const Cell cell : {Cell{8, 2}, Cell{2, 8}, Cell{1, 16}}) {
    HybridConfig cfg = tight(Strategy::Mot, cell.smallest - 1);
    cfg.hard_limit_factor = cell.factor;
    try {
      HybridFaultSim rejected(nl, c.faults(), cfg);
      ADD_FAILURE() << "node_limit " << cfg.node_limit << " x "
                    << cell.factor << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "smallest node_limit that works is " +
                    std::to_string(cell.smallest)),
                std::string::npos)
          << e.what();
    }
    cfg.node_limit = cell.smallest;
    HybridFaultSim accepted(nl, c.faults(), cfg);
    const HybridResult r = accepted.run(seq);
    EXPECT_GT(r.symbolic_frames + r.three_valued_frames, 0u)
        << "factor " << cell.factor;
  }
}

TEST(Hybrid, CombinationalCircuitNeedsNoStateSeed) {
  // No flip-flops, no state variables: the smallest limits work.
  Netlist nl("comb");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  nl.mark_output(nl.add_gate(GateType::And, {a, b}, "g"));
  nl.finalize();
  const CollapsedFaultList c(nl);
  HybridConfig cfg = tight(Strategy::Mot, 1);
  cfg.hard_limit_factor = 1;
  HybridFaultSim sim(nl, c.faults(), cfg);
  const HybridResult r = sim.run(sequence_from_strings({"11", "01", "10"}));
  EXPECT_EQ(r.detected_count, c.size());
}

TEST(Hybrid, WitnessesOnlyWhenDTildeCoversTheWholeSequence) {
  // A fallback window or a checkpoint sync re-seeds D~, which then
  // names states at the re-seed rather than at power-up: no witnesses.
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);
  Rng rng(77);
  const TestSequence seq = random_sequence(nl, 40, rng);

  HybridFaultSim windowed(nl, c.faults(), tight(Strategy::Mot, 400, 4));
  windowed.set_collect_witnesses(true);
  const HybridResult rw = windowed.run(seq);
  ASSERT_TRUE(rw.used_fallback);
  ASSERT_LT(rw.detected_count, c.size());
  EXPECT_TRUE(rw.witnesses.empty());

  HybridConfig synced = pure(Strategy::Mot);
  synced.checkpoint_interval = 8;
  HybridFaultSim checkpointed(nl, c.faults(), synced);
  checkpointed.set_collect_witnesses(true);
  const HybridResult rc = checkpointed.run(seq);
  ASSERT_GT(rc.checkpoint_syncs, 0u);
  ASSERT_LT(rc.detected_count, c.size());
  EXPECT_TRUE(rc.witnesses.empty());

  HybridFaultSim whole(nl, c.faults(), pure(Strategy::Mot));
  whole.set_collect_witnesses(true);
  const HybridResult r = whole.run(seq);
  ASSERT_FALSE(r.used_fallback);
  ASSERT_LT(r.detected_count, c.size());
  EXPECT_EQ(r.witnesses.size(), c.size());
}

TEST(Hybrid, InitialStatusSkips) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  HybridFaultSim sim(nl, c.faults(), ample(Strategy::Rmot));
  sim.set_initial_status(
      std::vector<FaultStatus>(c.size(), FaultStatus::XRedundant));
  Rng rng(5);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_EQ(r.detected_count, 0u);
  for (FaultStatus s : r.status) EXPECT_EQ(s, FaultStatus::XRedundant);
}

TEST(Hybrid, ThreeValuedWindowStillDropsFaults) {
  // With limit so small that almost everything runs three-valued, the
  // hybrid should roughly match the plain three-valued detector.
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList c(nl);
  Rng rng(99);
  const TestSequence seq = random_sequence(nl, 30, rng);

  HybridFaultSim sim(nl, c.faults(), tight(Strategy::Mot, 8, 30));
  const auto r = sim.run(seq);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_GT(r.detected_count, 0u);
}

// ---------------------------------------------------------------------------
// Node-creation contract
// ---------------------------------------------------------------------------

/// The BDD work and verdicts of one default pipeline run.
struct PipelineWork {
  std::uint64_t nodes_created = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t peak_live_nodes = 0;
  std::uint64_t fallback_windows = 0;
  std::uint64_t symbolic_frames = 0;
  std::uint64_t three_valued_frames = 0;
  std::size_t detected = 0;
  std::uint64_t verdict_digest = 0;  ///< FNV-1a over (status, frame) pairs
};

PipelineWork pipeline_work(const char* circuit, Strategy strategy,
                           std::size_t vectors, std::uint64_t seed) {
  const Netlist nl = make_benchmark(circuit);
  const CollapsedFaultList c(nl);
  Rng rng(seed);
  const TestSequence seq = random_sequence(nl, vectors, rng);
  obs::Telemetry telemetry;
  SimOptions o;
  o.strategy = strategy;
  o.threads = 1;
  o.telemetry = &telemetry;
  const PipelineResult r = run_pipeline(nl, c.faults(), seq, o);

  obs::MetricsRegistry& m = telemetry.metrics;
  PipelineWork w;
  w.nodes_created = m.counter("bdd.nodes_created").value();
  w.cache_lookups = m.counter("bdd.apply_cache_lookups").value();
  w.gc_runs = m.counter("bdd.gc_runs").value();
  w.peak_live_nodes =
      static_cast<std::uint64_t>(m.gauge("bdd.peak_live_nodes").value());
  w.fallback_windows = m.counter("hybrid.fallback_windows").value();
  w.symbolic_frames = m.counter("hybrid.symbolic_frames").value();
  w.three_valued_frames = m.counter("hybrid.three_valued_frames").value();
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < r.status.size(); ++i) {
    w.detected += is_detected(r.status[i]) ? 1 : 0;
    h = (h ^ static_cast<std::uint64_t>(r.status[i])) * 1099511628211ull;
    h = (h ^ r.detect_frame[i]) * 1099511628211ull;
  }
  w.verdict_digest = h;
  return w;
}

// The hard node limit (node_limit x hard_limit_factor) counts every
// node allocated since the last gc(), garbage included, and the soft
// limit reads the count after the frame's gc(). Which nodes the
// symbolic loop creates, and when it collects, therefore decide where
// fallback windows open and so the verdicts. A change to the frame
// loop's bookkeeping must leave these counts exactly as they are. The
// expected values were recorded with the frame loop that scanned every
// output per fault-frame, stepped the event queue level by level and
// applied the identity constant first in eval_gate_sym.

TEST(HybridDeterminism, S5378MotHardLimitCellKeepsItsBddWork) {
  const PipelineWork w = pipeline_work("s5378", Strategy::Mot, 40, 1);
  EXPECT_EQ(w.peak_live_nodes, 239998u);  // the 8 x 30,000 hard limit trips
  EXPECT_EQ(w.nodes_created, 1032489u);
  EXPECT_EQ(w.cache_lookups, 6941163u);
  EXPECT_EQ(w.gc_runs, 28u);
  EXPECT_EQ(w.fallback_windows, 3u);
  EXPECT_EQ(w.symbolic_frames, 16u);
  EXPECT_EQ(w.three_valued_frames, 24u);
  EXPECT_EQ(w.detected, 1982u);
  EXPECT_EQ(w.verdict_digest, 0x9ecc3e593f32f608ull);
}

TEST(HybridDeterminism, S953RmotCellKeepsItsBddWork) {
  const PipelineWork w = pipeline_work("s953", Strategy::Rmot, 48, 1);
  EXPECT_EQ(w.peak_live_nodes, 74848u);
  EXPECT_EQ(w.nodes_created, 1249121u);
  EXPECT_EQ(w.cache_lookups, 4099577u);
  EXPECT_EQ(w.gc_runs, 50u);
  EXPECT_EQ(w.fallback_windows, 3u);
  EXPECT_EQ(w.symbolic_frames, 30u);
  EXPECT_EQ(w.three_valued_frames, 18u);
  EXPECT_EQ(w.detected, 84u);
  EXPECT_EQ(w.verdict_digest, 0xeb9b0e53a7e849ecull);
}

}  // namespace
}  // namespace motsim
