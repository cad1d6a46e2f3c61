// Reproductions of the paper's illustrative figures.
//
// Fig. 1 / Fig. 3: a stuck-at fault that no SOT-based simulation can
// detect, while the MOT detection function D(x,y) = [x==!y]*[x==y]
// vanishes — detected (Section IV, example around Fig. 3).
//
// Fig. 2: a sequence that initializes the fault-free circuit but not
// the faulty one; the fault stays undetectable under Definition 2
// despite the initialization.

#include <gtest/gtest.h>

#include "core/hybrid_sim.h"
#include "core/sym_true_value.h"
#include "reference.h"
#include "tpg/sequences.h"

namespace motsim {
namespace {

using testing::ref_mot_detectable;
using testing::ref_rmot_detectable;
using testing::ref_sot_detectable;

/// The pure symbolic engine: the hybrid loop with no node limit.
HybridConfig pure(Strategy s) {
  return HybridConfig{.strategy = s, .node_limit = kNoNodeLimit};
}

/// The Fig. 3 machine: one flip-flop s, inputs i1 and i2,
///   output   o = XNOR(i2, s)  (built from AND/OR/NOT gates)
///   next s   d = XOR(i1, s)
/// With the sequence ((i1,i2) = (1,1), (?,0)) the fault-free outputs
/// are o(x,1) = x and o(x,2) = x; with i2 stuck-at-0 the faulty
/// outputs are o^f(y,1) = !y and o^f(y,2) = y — the paper's detection
/// function example.
struct Fig3 {
  Netlist nl{"fig3"};
  NodeIndex i1, i2, s, o;
  Fault fault;

  Fig3() {
    i1 = nl.add_input("i1");
    i2 = nl.add_input("i2");
    s = nl.add_dff(kNoNode, "s");
    const NodeIndex ni2 = nl.add_gate(GateType::Not, {i2}, "ni2");
    const NodeIndex ns = nl.add_gate(GateType::Not, {s}, "ns");
    const NodeIndex a1 = nl.add_gate(GateType::And, {i2, s}, "a1");
    const NodeIndex a2 = nl.add_gate(GateType::And, {ni2, ns}, "a2");
    o = nl.add_gate(GateType::Or, {a1, a2}, "o");  // XNOR(i2, s)
    const NodeIndex ni1 = nl.add_gate(GateType::Not, {i1}, "ni1");
    const NodeIndex b1 = nl.add_gate(GateType::And, {i1, ns}, "b1");
    const NodeIndex b2 = nl.add_gate(GateType::And, {ni1, s}, "b2");
    const NodeIndex d = nl.add_gate(GateType::Or, {b1, b2}, "d");  // XOR
    nl.set_fanins(s, {d});
    nl.mark_output(o);
    nl.finalize();
    fault = Fault{FaultSite{i2, kStemPin}, false};  // i2 stuck-at-0
  }
};

const TestSequence kFig3Sequence = sequence_from_strings({"11", "10"});

TEST(PaperFig3, FaultFreeOutputsAreXandX) {
  Fig3 f;
  bdd::BddManager mgr;
  const StateVars vars(1);
  SymTrueValueSim sym(f.nl, mgr, vars);
  const bdd::Bdd x = mgr.var(vars.x(0));

  auto o1 = sym.step(kFig3Sequence[0]);
  EXPECT_EQ(o1[0], x);  // o(x,1) = x
  auto o2 = sym.step(kFig3Sequence[1]);
  EXPECT_EQ(o2[0], x);  // o(x,2) = x
}

TEST(PaperFig3, FaultyOutputsAreNotYThenY) {
  // Simulate the faulty machine symbolically by injecting the fault
  // into a copy of the netlist's input: i2 stuck-at-0 means the XNOR
  // sees constant 0, so o^f = NOT(s^f); the state still flips because
  // i1 = 1 in frame 1.
  Fig3 f;
  const auto good = testing::all_responses(f.nl, std::nullopt,
                                           kFig3Sequence);
  const auto bad =
      testing::all_responses(f.nl, f.fault, kFig3Sequence);
  // Fault-free from p: (p, p). Faulty from q: (!q, q).
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(good[p][0][0], p == 1);
    EXPECT_EQ(good[p][1][0], p == 1);
  }
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(bad[q][0][0], q == 0);
    EXPECT_EQ(bad[q][1][0], q == 1);
  }
}

TEST(PaperFig3, SotAndRmotMissTheFaultMotDetectsIt) {
  Fig3 f;
  // Reference oracles first.
  EXPECT_FALSE(ref_sot_detectable(f.nl, f.fault, kFig3Sequence));
  EXPECT_FALSE(ref_rmot_detectable(f.nl, f.fault, kFig3Sequence));
  EXPECT_TRUE(ref_mot_detectable(f.nl, f.fault, kFig3Sequence));

  // Our symbolic simulators agree.
  const std::vector<Fault> faults{f.fault};
  for (auto [strategy, expected] :
       {std::pair{Strategy::Sot, false}, {Strategy::Rmot, false},
        {Strategy::Mot, true}}) {
    HybridFaultSim sim(f.nl, faults, pure(strategy));
    const auto r = sim.run(kFig3Sequence);
    EXPECT_EQ(r.detected_count == 1, expected) << to_cstring(strategy);
  }
}

TEST(PaperFig3, DetectionFunctionVanishesInFrameTwo) {
  // D(x,y) after frame 1 is [x == !y] (nonzero); the frame-2 term
  // [x == y] kills it — exactly the algebra in the paper.
  Fig3 f;
  const std::vector<Fault> faults{f.fault};
  HybridFaultSim sim(f.nl, faults, pure(Strategy::Mot));
  const auto r = sim.run(kFig3Sequence);
  EXPECT_EQ(r.detect_frame[0], 2u);
}

// ---------------------------------------------------------------------------
// Fig. 2: initialization of the good machine does not help
// ---------------------------------------------------------------------------

/// next s = AND(i1, s): applying i1=0 synchronizes the fault-free
/// machine to s=0. With i1 stuck-at-1 the faulty machine keeps its
/// unknown state forever. Output o = XNOR(i2, s).
struct Fig2 {
  Netlist nl{"fig2"};
  NodeIndex i1, i2, s, o;
  Fault fault;

  Fig2() {
    i1 = nl.add_input("i1");
    i2 = nl.add_input("i2");
    s = nl.add_dff(kNoNode, "s");
    const NodeIndex d = nl.add_gate(GateType::And, {i1, s}, "d");
    nl.set_fanins(s, {d});
    const NodeIndex ni2 = nl.add_gate(GateType::Not, {i2}, "ni2");
    const NodeIndex ns = nl.add_gate(GateType::Not, {s}, "ns");
    const NodeIndex a1 = nl.add_gate(GateType::And, {i2, s}, "a1");
    const NodeIndex a2 = nl.add_gate(GateType::And, {ni2, ns}, "a2");
    o = nl.add_gate(GateType::Or, {a1, a2}, "o");
    nl.mark_output(o);
    nl.finalize();
    fault = Fault{FaultSite{d, 0}, true};  // i1-branch into d stuck-at-1
  }
};

const TestSequence kFig2Sequence = sequence_from_strings({"01", "01"});

TEST(PaperFig2, GoodMachineInitializesFaultyDoesNot) {
  Fig2 f;
  bdd::BddManager mgr;
  const StateVars vars(1);
  SymTrueValueSim sym(f.nl, mgr, vars);
  sym.step(kFig2Sequence[0]);
  EXPECT_EQ(sym.state_as_val3()[0], Val3::Zero)
      << "i1=0 must synchronize the fault-free machine";

  // The faulty machine's state stays q: check by enumeration.
  const auto bad = testing::all_responses(f.nl, f.fault, kFig2Sequence);
  EXPECT_NE(bad[0][1][0], bad[1][1][0])
      << "faulty frame-2 output must still depend on the initial state";
}

TEST(PaperFig2, UndetectableDespiteInitialization) {
  Fig2 f;
  EXPECT_FALSE(ref_sot_detectable(f.nl, f.fault, kFig2Sequence));
  // Here even MOT cannot help: the faulty machine can power up in
  // state 0 and mimic the initialized fault-free machine.
  EXPECT_FALSE(ref_mot_detectable(f.nl, f.fault, kFig2Sequence));

  const std::vector<Fault> faults{f.fault};
  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim sim(f.nl, faults, pure(s));
    EXPECT_EQ(sim.run(kFig2Sequence).detected_count, 0u) << to_cstring(s);
  }
}

// ---------------------------------------------------------------------------
// Fig. 1: the plain SOT limitation (no initialization at all)
// ---------------------------------------------------------------------------

TEST(PaperFig1, SotBlindMotSees) {
  // The Fig. 3 machine under the sequence ([1,0],[1,0]) from Fig. 1:
  // i2 = 0 in both frames.
  Fig3 f;
  const TestSequence seq = sequence_from_strings({"10", "10"});
  // good: o(x,1) = !x, s' = !x; o(x,2) = x. faulty (i2 sa-0 is already
  // the applied value): responses equal the good machine's, so the
  // fault is NOT detectable by this sequence under any strategy —
  // which is precisely the SOT blindness Fig. 1 illustrates for
  // three-valued simulators. Verify the weaker SOT claim and that the
  // paper's remedy (the Fig. 3 sequence) fixes it.
  EXPECT_FALSE(ref_sot_detectable(f.nl, f.fault, seq));

  const std::vector<Fault> faults{f.fault};
  HybridFaultSim sot(f.nl, faults, pure(Strategy::Sot));
  EXPECT_EQ(sot.run(seq).detected_count, 0u);

  HybridFaultSim mot(f.nl, faults, pure(Strategy::Mot));
  EXPECT_EQ(mot.run(kFig3Sequence).detected_count, 1u);
}

}  // namespace
}  // namespace motsim
