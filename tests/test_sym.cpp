// Symbolic simulation: the true-value simulator against concrete
// enumeration, and the three observation strategies against the
// brute-force detectability definitions (the paper's Definitions 2, 3
// and the restricted MOT evaluation) — exact equality, not just
// soundness, since the OBDD formulation is exact (Lemma 1).

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "core/hybrid_sim.h"
#include "core/sym_true_value.h"
#include "core/test_eval.h"
#include "faults/collapse.h"
#include "faults/fault_list.h"
#include "reference.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using bdd::Bdd;
using testing::ref_mot_detectable;
using testing::ref_rmot_detectable;
using testing::ref_sot_detectable;
using testing::small_random_circuit;

/// The pure symbolic engine: the one frame loop with no node limit,
/// so no fallback window ever opens. Trim and s-graph run at their
/// production defaults.
HybridConfig pure(Strategy s) {
  return HybridConfig{.strategy = s, .node_limit = kNoNodeLimit};
}

// ---------------------------------------------------------------------------
// StateVars plan
// ---------------------------------------------------------------------------

TEST(StateVars, InterleavedPlan) {
  const StateVars vars(3);
  EXPECT_EQ(vars.x(0), 0u);
  EXPECT_EQ(vars.y(0), 1u);
  EXPECT_EQ(vars.x(2), 4u);
  EXPECT_EQ(vars.y(2), 5u);
  EXPECT_EQ(vars.var_count(), 6u);
  EXPECT_EQ(vars.x_vars(), (std::vector<bdd::VarIndex>{0, 2, 4}));
  EXPECT_EQ(vars.y_vars(), (std::vector<bdd::VarIndex>{1, 3, 5}));
  const auto map = vars.x_to_y_mapping();
  EXPECT_EQ(map[0], 1u);
  EXPECT_EQ(map[1], 1u);
  EXPECT_EQ(map[4], 5u);
}

TEST(StateVars, XToYRenameIsOrderPreserving) {
  bdd::BddManager mgr;
  const StateVars vars(4);
  mgr.ensure_vars(vars.var_count());
  Bdd f = mgr.one();
  for (std::size_t i = 0; i < 4; ++i) {
    f &= (i % 2 == 0) ? mgr.var(vars.x(i)) : !mgr.var(vars.x(i));
  }
  const Bdd g = mgr.rename(f, vars.x_to_y_mapping());
  Bdd expected = mgr.one();
  for (std::size_t i = 0; i < 4; ++i) {
    expected &= (i % 2 == 0) ? mgr.var(vars.y(i)) : !mgr.var(vars.y(i));
  }
  EXPECT_EQ(g, expected);
}

// ---------------------------------------------------------------------------
// SymTrueValueSim
// ---------------------------------------------------------------------------

class SymTrueValueProp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymTrueValueProp, EveryLeadMatchesConcreteSimulation) {
  // o(x,t) evaluated at x := p must equal the concrete run from p, for
  // every node, frame and initial state.
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 13 + 1);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const std::size_t m = nl.dff_count();

  bdd::BddManager mgr;
  const StateVars vars(m);
  SymTrueValueSim sym(nl, mgr, vars);

  for (std::size_t s = 0; s < (std::size_t{1} << m); ++s) {
    std::vector<bool> init(m);
    std::vector<bool> assignment(vars.var_count(), false);
    for (std::size_t i = 0; i < m; ++i) {
      init[i] = ((s >> i) & 1) != 0;
      assignment[vars.x(i)] = init[i];
    }
    Sim2 concrete(nl);
    concrete.set_state(init);
    SymTrueValueSim symbolic(nl, mgr, vars);
    for (std::size_t t = 0; t < seq.size(); ++t) {
      symbolic.step(seq[t]);
      concrete.step(seq2[t]);
      for (NodeIndex n = 0; n < nl.node_count(); ++n) {
        EXPECT_EQ(symbolic.values()[n].eval(assignment),
                  concrete.values()[n])
            << "node " << nl.gate(n).name << " frame " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymTrueValueProp,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SymTrueValue, RejectsXInputs) {
  const Netlist nl = make_s27();
  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(nl.dff_count()));
  EXPECT_THROW((void)sym.step(sequence_from_strings({"1X10"})[0]),
               std::invalid_argument);
}

TEST(SymTrueValue, StateAsVal3ReflectsConstancy) {
  // A circuit that synchronizes: next state = AND(a, q) with a=0
  // forces the state to constant 0.
  Netlist nl("sync");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex g = nl.add_gate(GateType::And, {a, q}, "g");
  nl.set_fanins(q, {g});
  nl.mark_output(g);
  nl.finalize();

  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(1));
  EXPECT_EQ(sym.state_as_val3()[0], Val3::X);  // fully symbolic start
  sym.step(sequence_from_strings({"0"})[0]);
  EXPECT_EQ(sym.state_as_val3()[0], Val3::Zero);  // synchronized
}

TEST(SymTrueValue, ReleaseDropsAllHandles) {
  const Netlist nl = make_s27();
  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(nl.dff_count()));
  Rng rng(3);
  sym.step(random_sequence(nl, 1, rng)[0]);
  sym.release();
  mgr.gc();
  EXPECT_EQ(mgr.live_node_count(), 0u);
}

// ---------------------------------------------------------------------------
// Strategies against the brute-force definitions
// ---------------------------------------------------------------------------

struct StrategyCase {
  std::uint64_t seed;
};

class SymStrategyExactness : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Runs one strategy on all collapsed faults and compares each
  /// verdict with the reference oracle.
  void check_strategy(const Netlist& nl, const TestSequence& seq,
                      Strategy strategy) {
    const CollapsedFaultList c(nl);
    HybridFaultSim sim(nl, c.faults(), pure(strategy));
    const auto result = sim.run(seq);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Fault& f = c.faults()[i];
      bool expected = false;
      switch (strategy) {
        case Strategy::Sot:
          expected = ref_sot_detectable(nl, f, seq);
          break;
        case Strategy::Rmot:
          expected = ref_rmot_detectable(nl, f, seq);
          break;
        case Strategy::Mot:
          expected = ref_mot_detectable(nl, f, seq);
          break;
      }
      EXPECT_EQ(is_detected(result.status[i]), expected)
          << to_cstring(strategy) << " disagrees on " << fault_name(nl, f)
          << " in " << nl.name();
    }
  }
};

TEST_P(SymStrategyExactness, SotMatchesDefinition2) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 3);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Sot);
}

TEST_P(SymStrategyExactness, RmotMatchesRestrictedDefinition) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 4);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Rmot);
}

TEST_P(SymStrategyExactness, MotMatchesDefinition3) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 5);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Mot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymStrategyExactness,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// The strategy hierarchy (paper: SOT ⊆ rMOT ⊆ MOT)
// ---------------------------------------------------------------------------

class SymStrategyHierarchy : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SymStrategyHierarchy, DetectionSetsAreNested) {
  const Netlist nl = small_random_circuit(GetParam() + 40);
  Rng rng(GetParam() * 97 + 11);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  HybridFaultSim sot(nl, c.faults(), pure(Strategy::Sot));
  HybridFaultSim rmot(nl, c.faults(), pure(Strategy::Rmot));
  HybridFaultSim mot(nl, c.faults(), pure(Strategy::Mot));
  const auto rs = sot.run(seq);
  const auto rr = rmot.run(seq);
  const auto rm = mot.run(seq);

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(rs.status[i])) {
      EXPECT_TRUE(is_detected(rr.status[i]))
          << "SOT detected but rMOT missed " << fault_name(nl, c.faults()[i]);
    }
    if (is_detected(rr.status[i])) {
      EXPECT_TRUE(is_detected(rm.status[i]))
          << "rMOT detected but MOT missed " << fault_name(nl, c.faults()[i]);
    }
  }
}

TEST_P(SymStrategyHierarchy, LongerSequencesOnlyDetectMore) {
  const Netlist nl = small_random_circuit(GetParam() + 80);
  Rng rng(GetParam() * 3 + 1);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const TestSequence prefix(seq.begin(), seq.begin() + 5);
  const CollapsedFaultList c(nl);

  HybridFaultSim short_run(nl, c.faults(), pure(Strategy::Mot));
  HybridFaultSim long_run(nl, c.faults(), pure(Strategy::Mot));
  const auto rshort = short_run.run(prefix);
  const auto rlong = long_run.run(seq);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(rshort.status[i])) {
      EXPECT_TRUE(is_detected(rlong.status[i]));
      EXPECT_LE(rlong.detect_frame[i], rshort.detect_frame[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymStrategyHierarchy,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Directed symbolic cases
// ---------------------------------------------------------------------------

TEST(PureSymbolic, InitialStatusSkips) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  HybridFaultSim sim(nl, c.faults(), pure(Strategy::Mot));
  sim.set_initial_status(
      std::vector<FaultStatus>(c.size(), FaultStatus::DetectedSim3));
  Rng rng(5);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_EQ(r.detected_count, 0u);
}

class WitnessProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WitnessProps, MotWitnessesAreGenuineIndistinguishablePairs) {
  // For every fault MOT leaves undetected, the reported (p, q) pair
  // must produce IDENTICAL output sequences — checked concretely.
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 53 + 9);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const CollapsedFaultList c(nl);

  HybridFaultSim sim(nl, c.faults(), pure(Strategy::Mot));
  sim.set_collect_witnesses(true);
  const auto r = sim.run(seq);
  ASSERT_EQ(r.witnesses.size(), c.size());

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(r.status[i])) {
      EXPECT_TRUE(r.witnesses[i].fault_free_state.empty());
      continue;
    }
    const IndistinguishablePair& w = r.witnesses[i];
    ASSERT_EQ(w.fault_free_state.size(), nl.dff_count())
        << fault_name(nl, c.faults()[i]);
    Sim2 good(nl);
    Sim2 bad(nl, c.faults()[i]);
    EXPECT_EQ(good.run(w.fault_free_state, seq2),
              bad.run(w.faulty_state, seq2))
        << fault_name(nl, c.faults()[i])
        << ": witness pair is distinguishable";
  }
}

TEST_P(WitnessProps, RmotWitnessesPassTheStandardEvaluation) {
  // An rMOT witness q: the faulty machine started in q matches every
  // well-defined fault-free output value, i.e. it passes the standard
  // (rMOT) test evaluation.
  const Netlist nl = small_random_circuit(GetParam() + 30);
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 59 + 11);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const CollapsedFaultList c(nl);

  HybridFaultSim sim(nl, c.faults(), pure(Strategy::Rmot));
  sim.set_collect_witnesses(true);
  const auto r = sim.run(seq);

  bdd::BddManager mgr;
  const SymbolicResponse response(nl, mgr, seq);
  const RmotEvaluator eval(response);

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(r.status[i])) continue;
    const IndistinguishablePair& w = r.witnesses[i];
    ASSERT_EQ(w.faulty_state.size(), nl.dff_count());
    Sim2 bad(nl, c.faults()[i]);
    EXPECT_EQ(eval.evaluate(bad.run(w.faulty_state, seq2)), Verdict::Pass)
        << fault_name(nl, c.faults()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessProps,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PureSymbolic, WitnessesOffByDefault) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  HybridFaultSim sim(nl, c.faults(), pure(Strategy::Mot));
  Rng rng(3);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_TRUE(r.witnesses.empty());
}

TEST(PureSymbolic, DetectFrameIsRecorded) {
  // Fault visible only through the flip-flop: detection at frame 2.
  Netlist nl("lat");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex o = nl.add_gate(GateType::Not, {q}, "o");
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  HybridFaultSim sim(nl, faults, pure(Strategy::Sot));
  const auto r = sim.run(sequence_from_strings({"1", "0"}));
  EXPECT_EQ(r.detected_count, 1u);
  EXPECT_EQ(r.detect_frame[0], 2u);
  EXPECT_EQ(r.status[0], FaultStatus::DetectedSot);
}

// ---------------------------------------------------------------------------
// Next-state divergence against a full faulty-machine evaluation
// ---------------------------------------------------------------------------

using StateDiff = std::vector<std::pair<std::uint32_t, Bdd>>;

/// The faulty machine's frame by brute force: every gate is evaluated
/// from the faulty present state (fault-free state with `present`
/// applied).
std::vector<Bdd> full_eval(const Netlist& nl, bdd::BddManager& mgr,
                           const Fault& fault, const SymTrueValueSim& good,
                           const StateDiff& present) {
  const Bdd sv = mgr.constant(fault.stuck_value);
  std::vector<Bdd> v(nl.node_count());
  for (const NodeIndex n : nl.topo_order()) {
    const Gate& g = nl.gate(n);
    if (is_frame_input(g.type)) {
      v[n] = good.values()[n];
    } else {
      v[n] = eval_gate_sym(mgr, g.type, g.fanins.size(),
                           [&](std::size_t i) -> const Bdd& {
                             if (fault.site.node == n && fault.site.pin == i) {
                               return sv;
                             }
                             return v[g.fanins[i]];
                           });
    }
    if (g.type == GateType::Dff) {
      for (const auto& [pos, f] : present) {
        if (nl.dffs()[pos] == n) v[n] = f;
      }
    }
    if (fault.site.is_stem() && fault.site.node == n) v[n] = sv;
  }
  return v;
}

/// The faulty machine's next-state divergence by brute force: every
/// flip-flop of full_eval's frame is compared with the fault-free next
/// state.
StateDiff full_latch(const Netlist& nl, bdd::BddManager& mgr,
                     const Fault& fault, const SymTrueValueSim& good,
                     const StateDiff& present) {
  const Bdd sv = mgr.constant(fault.stuck_value);
  const std::vector<Bdd> v = full_eval(nl, mgr, fault, good, present);
  StateDiff next;
  for (std::uint32_t pos = 0; pos < nl.dff_count(); ++pos) {
    const NodeIndex dff = nl.dffs()[pos];
    const bool pinned = !fault.site.is_stem() && fault.site.node == dff;
    const Bdd fv = pinned ? sv : v[nl.gate(dff).fanins[0]];
    if (fv != good.state()[pos]) next.emplace_back(pos, fv);
  }
  return next;
}

/// Runs every fault through `frames` random frames with step() under
/// SOT and, separately, under MOT (which keeps most faults live to
/// the end), comparing each frame's state_diff with full_latch until
/// the fault is dropped.
void expect_latch_matches_full_evaluation(const Netlist& nl,
                                          const std::vector<Fault>& faults,
                                          std::size_t frames,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const TestSequence seq = random_sequence(nl, frames, rng);
  bdd::BddManager mgr;
  const StateVars vars(nl.dff_count());
  SymTrueValueSim good(nl, mgr, vars);
  SymFaultPropagator prop(nl, mgr, vars);
  const Strategy strategies[] = {Strategy::Sot, Strategy::Mot};
  std::vector<SymFaultState> state[2];
  std::vector<char> live[2];
  for (int k = 0; k < 2; ++k) {
    state[k].resize(faults.size());
    live[k].assign(faults.size(), 1);
    for (SymFaultState& fs : state[k]) fs.detect = mgr.one();
  }
  std::size_t compared = 0;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    (void)good.step(seq[t]);
    SymFrameContext ctx(good.values(), good.state(), nl.output_count());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = faults[i];
      for (int k = 0; k < 2; ++k) {
        if (!live[k][i]) continue;
        SymFaultState& fs = state[k][i];
        const StateDiff want = full_latch(nl, mgr, f, good, fs.state_diff);
        if (prop.step(f, strategies[k], fs, ctx)) {
          live[k][i] = 0;
        } else {
          ASSERT_EQ(fs.state_diff, want)
              << fault_name(nl, f) << " frame " << t << " in " << nl.name()
              << " (" << to_cstring(strategies[k]) << ")";
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u) << nl.name();
}

TEST(SymLatch, MatchesFullEvaluationOnRosterCircuits) {
  for (const char* name : {"s27", "s208.1", "s298", "s382"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    expect_latch_matches_full_evaluation(nl, c.faults(), 10, 21);
  }
}

TEST(SymLatch, MatchesFullEvaluationOnRandomLogic) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Netlist nl = generate_circuit(
        SynthSpec{"rl", 6, 3, 10, 120, CircuitStyle::RandomLogic, seed});
    const CollapsedFaultList c(nl);
    expect_latch_matches_full_evaluation(nl, c.faults(), 10, seed + 100);
  }
}

TEST(SymLatch, EdgeCasesMatchFullEvaluation) {
  // g feeds two flip-flops (q1, q2) and a gate, so its D-pin branches
  // are faults of their own; q2 -> q3 is a flip-flop chain; q1, q2 and
  // q3 carry stem faults on flip-flop outputs.
  Netlist nl("latch_edges");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q1 = nl.add_dff(kNoNode, "q1");
  const NodeIndex q2 = nl.add_dff(kNoNode, "q2");
  const NodeIndex q3 = nl.add_dff(q2, "q3");
  const NodeIndex g = nl.add_gate(GateType::Xor, {a, q1}, "g");
  const NodeIndex h = nl.add_gate(GateType::And, {g, q3, b}, "h");
  const NodeIndex q4 = nl.add_dff(h, "q4");
  nl.set_fanins(q1, {g});
  nl.set_fanins(q2, {g});
  const NodeIndex o = nl.add_gate(GateType::Or, {h, q4}, "o");
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults = all_faults(nl);
  auto has = [&](NodeIndex node, std::uint32_t pin) {
    for (const Fault& f : faults) {
      if (f.site.node == node && f.site.pin == pin) return true;
    }
    return false;
  };
  ASSERT_TRUE(has(q1, 0) && has(q2, 0));                 // D-pin branches
  ASSERT_TRUE(has(q3, 0));                               // chain D pin
  ASSERT_TRUE(has(q1, kStemPin) && has(q3, kStemPin));   // DFF outputs
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_latch_matches_full_evaluation(nl, faults, 8, seed);
  }
}

// ---------------------------------------------------------------------------
// MOT and rMOT updates against a dense per-output accumulation
// ---------------------------------------------------------------------------

/// One frame of MOT by brute force: `detect` ANDed with
/// [o_j(x) == o_j^f(y)] for every output position j, the faulty
/// outputs taken from full_eval. Stops at zero, which absorbs every
/// later term (some of those equalities have huge OBDDs).
Bdd dense_mot(const Netlist& nl, bdd::BddManager& mgr, const StateVars& vars,
              const std::vector<Bdd>& good, const std::vector<Bdd>& faulty,
              Bdd detect) {
  const std::vector<bdd::VarIndex> x2y = vars.x_to_y_mapping();
  for (const NodeIndex o : nl.outputs()) {
    if (detect.is_zero()) break;
    detect &= good[o].xnor(mgr.rename(faulty[o], x2y));
  }
  return detect;
}

/// One frame of rMOT by brute force: `detect` ANDed with the faulty
/// output's agreement with every constant fault-free output.
Bdd dense_rmot(const Netlist& nl, const std::vector<Bdd>& good,
               const std::vector<Bdd>& faulty, Bdd detect) {
  for (const NodeIndex o : nl.outputs()) {
    if (!good[o].is_const()) continue;
    detect &= good[o].is_one() ? faulty[o] : !faulty[o];
  }
  return detect;
}

/// Runs every fault through `frames` random frames with step() under
/// MOT and, separately, under rMOT, comparing D~ after every frame
/// with dense_mot and dense_rmot until the fault is dropped: the
/// sparse updates may skip only unit terms.
void expect_mot_matches_dense_accumulation(const Netlist& nl,
                                           const std::vector<Fault>& faults,
                                           std::size_t frames,
                                           std::uint64_t seed, bool trim) {
  Rng rng(seed);
  const TestSequence seq = random_sequence(nl, frames, rng);
  bdd::BddManager mgr;
  const StateVars vars(nl.dff_count());
  SymTrueValueSim good(nl, mgr, vars);
  SymFaultPropagator prop(nl, mgr, vars);
  prop.set_trim(trim);
  const Strategy strategies[] = {Strategy::Mot, Strategy::Rmot};
  std::vector<SymFaultState> state[2];
  std::vector<char> live[2];
  for (int k = 0; k < 2; ++k) {
    state[k].resize(faults.size());
    live[k].assign(faults.size(), 1);
    for (SymFaultState& fs : state[k]) fs.detect = mgr.one();
  }
  std::size_t compared = 0;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    (void)good.step(seq[t]);
    const std::vector<Bdd>& gv = good.values();
    SymFrameContext ctx(gv, good.state(), nl.output_count());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = faults[i];
      for (int k = 0; k < 2; ++k) {
        if (!live[k][i]) continue;
        SymFaultState& fs = state[k][i];
        const std::string where = fault_name(nl, f) + " frame " +
                                  std::to_string(t) + " in " + nl.name() +
                                  " (" + to_cstring(strategies[k]) + ")";
        const std::vector<Bdd> fv = full_eval(nl, mgr, f, good, fs.state_diff);
        const Bdd want = strategies[k] == Strategy::Mot
                             ? dense_mot(nl, mgr, vars, gv, fv, fs.detect)
                             : dense_rmot(nl, gv, fv, fs.detect);
        const bool done = prop.step(f, strategies[k], fs, ctx);
        ASSERT_EQ(done, want.is_zero()) << where;
        if (done) {
          live[k][i] = 0;
        } else {
          ASSERT_EQ(fs.detect, want) << where;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u) << nl.name();
}

struct MotRosterCell {
  const char* circuit;
  std::size_t frames;
  std::uint64_t seed;
};

void PrintTo(const MotRosterCell& cell, std::ostream* os) {
  *os << cell.circuit << ", " << cell.frames << " frames, seed " << cell.seed;
}

class SymMotUpdateRoster : public ::testing::TestWithParam<MotRosterCell> {};

TEST_P(SymMotUpdateRoster, MatchesDenseAccumulation) {
  const MotRosterCell& cell = GetParam();
  const Netlist nl = make_benchmark(cell.circuit);
  const CollapsedFaultList c(nl);
  for (const bool trim : {false, true}) {
    expect_mot_matches_dense_accumulation(nl, c.faults(), cell.frames,
                                          cell.seed, trim);
  }
}

// Unbounded MOT D~ can grow exponentially (the reason for the hybrid
// simulator's node limit): on s382 the product of the fault-free
// output equalities alone passes 10^5 nodes in frame 0 for some input
// sequences. The cells keep every D~ small enough for a unit test.
INSTANTIATE_TEST_SUITE_P(Circuits, SymMotUpdateRoster,
                         ::testing::Values(MotRosterCell{"s27", 8, 31},
                                           MotRosterCell{"s208.1", 8, 31},
                                           MotRosterCell{"s298", 6, 31},
                                           MotRosterCell{"s382", 4, 1}));

TEST(SymMotUpdate, MatchesDenseAccumulationOnRandomLogic) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Netlist nl = generate_circuit(
        SynthSpec{"rl", 6, 3, 10, 120, CircuitStyle::RandomLogic, seed});
    const CollapsedFaultList c(nl);
    expect_mot_matches_dense_accumulation(nl, c.faults(), 10, seed + 200,
                                          seed % 2 == 0);
  }
}

TEST(SymMotUpdate, SharedAndConstantOutputsMatchDenseAccumulation) {
  // Output positions: 0 and 6 are the same net g1 (so a divergence
  // there sits at the first and the last position), 2 and 4 the same
  // net g3; position 1 is a primary input and position 3 a constant
  // gate, whose fault-free values are constant in every frame.
  Netlist nl("mot_outputs");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q1 = nl.add_dff(kNoNode, "q1");
  const NodeIndex q2 = nl.add_dff(kNoNode, "q2");
  const NodeIndex g1 = nl.add_gate(GateType::Xor, {a, q1}, "g1");
  const NodeIndex g2 = nl.add_gate(GateType::And, {b, q2}, "g2");
  const NodeIndex g3 = nl.add_gate(GateType::Or, {g1, g2}, "g3");
  const NodeIndex zero = nl.add_gate(GateType::Const0, {}, "zero");
  nl.set_fanins(q1, {g3});
  nl.set_fanins(q2, {g1});
  for (const NodeIndex o : {g1, a, g3, zero, g3, g2, g1}) nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults = all_faults(nl);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_mot_matches_dense_accumulation(nl, faults, 8, seed, seed > 4);
  }
}

}  // namespace
}  // namespace motsim
