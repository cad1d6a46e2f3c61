// S-graph static analysis (analysis/sgraph, docs/ANALYSIS.md pass 6):
// SCC condensation of the flip-flop dependency graph, the
// synchronization-depth bounds it yields, and the property the
// MOT/rMOT -> SOT downgrade stands on — sgraph-enabled runs are
// BIT-IDENTICAL to plain runs for every engine and strategy, and the
// depths themselves are sound against the symbolic true-value
// machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cone.h"
#include "analysis/diagnostics.h"
#include "analysis/sgraph.h"
#include "analysis/testability.h"
#include "bdd/bdd.h"
#include "bench_data/registry.h"
#include "bench_data/synth_gen.h"
#include "circuit/bench_io.h"
#include "circuit/stats.h"
#include "circuit/validate.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/sym_true_value.h"
#include "faults/collapse.h"
#include "faults/fault_list.h"
#include "reference.h"
#include "store/fingerprint.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::small_random_circuit;

/// Position of a flip-flop node in the netlist's dff order (the
/// s-graph vertex index).
std::uint32_t dff_position(const Netlist& nl, NodeIndex node) {
  const auto& dffs = nl.dffs();
  const auto it = std::find(dffs.begin(), dffs.end(), node);
  EXPECT_NE(it, dffs.end());
  return static_cast<std::uint32_t>(it - dffs.begin());
}

// ---------------------------------------------------------------------------
// Structure: SCCs, taint, depths
// ---------------------------------------------------------------------------

TEST(SgraphStructure, SelfLoopDffIsANontrivialScc) {
  // q's next state reads q itself: a one-vertex SCC with a self-loop
  // must count as nontrivial, so q never synchronizes.
  Netlist nl("selfloop");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex d = nl.add_gate(GateType::Nor, {a, q}, "d");
  nl.set_fanins(q, {d});
  const NodeIndex o = nl.add_gate(GateType::Or, {q, a}, "o");
  nl.mark_output(o);
  nl.finalize();

  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 1u);
  EXPECT_EQ(info.scc_count, 1u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.acyclic_ffs, 0u);
  EXPECT_TRUE(info.in_nontrivial_scc[0]);
  EXPECT_TRUE(info.tainted[0]);
  EXPECT_EQ(info.init_depth[0], kInfDepth);
  EXPECT_EQ(info.preds[0], std::vector<std::uint32_t>{0});
  // The output reads q, so its horizon is unbounded.
  ASSERT_EQ(info.output_horizon.size(), 1u);
  EXPECT_EQ(info.output_horizon[0], kInfDepth);
}

TEST(SgraphStructure, MutuallyFedPairFormsOneScc) {
  Netlist nl("pair");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q1 = nl.add_dff(kNoNode, "q1");
  const NodeIndex q2 = nl.add_dff(kNoNode, "q2");
  nl.set_fanins(q1, {nl.add_gate(GateType::Nor, {a, q2}, "d1")});
  nl.set_fanins(q2, {nl.add_gate(GateType::Nand, {b, q1}, "d2")});
  const NodeIndex o = nl.add_gate(GateType::Xor, {q1, q2}, "o");
  nl.mark_output(o);
  nl.finalize();

  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 2u);
  const std::uint32_t p1 = dff_position(nl, q1);
  const std::uint32_t p2 = dff_position(nl, q2);
  EXPECT_EQ(info.scc_id[p1], info.scc_id[p2]);  // merged into one SCC
  EXPECT_EQ(info.scc_count, 1u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_TRUE(info.in_nontrivial_scc[p1]);
  EXPECT_TRUE(info.in_nontrivial_scc[p2]);
  EXPECT_EQ(info.init_depth[p1], kInfDepth);
  EXPECT_EQ(info.init_depth[p2], kInfDepth);
  // Neither FF self-loops, the cycle runs through the partner.
  EXPECT_EQ(info.preds[p1], std::vector<std::uint32_t>{p2});
  EXPECT_EQ(info.preds[p2], std::vector<std::uint32_t>{p1});
  // Breaking the two-cycle needs exactly one scanned FF.
  EXPECT_EQ(greedy_feedback_set(info).size(), 1u);
}

/// Acyclic two-stage prefix feeding a mutually-fed pair, with one more
/// flip-flop downstream of the pair:
///   ff1 <- input only        (depth 1)
///   ff2 <- ff1               (depth 2)
///   {ff3, ff4} mutual cycle, seeded by ff2   (nontrivial SCC)
///   ff5 <- ff3               (downstream of the SCC: tainted)
Netlist chain_into_scc_circuit() {
  Netlist nl("chainscc");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex f1 = nl.add_dff(nl.add_gate(GateType::Not, {a}, "d1"), "f1");
  const NodeIndex f2 = nl.add_dff(nl.add_gate(GateType::Buf, {f1}, "d2"), "f2");
  const NodeIndex f3 = nl.add_dff(kNoNode, "f3");
  const NodeIndex f4 = nl.add_dff(kNoNode, "f4");
  nl.set_fanins(f3, {nl.add_gate(GateType::Nor, {f2, f4}, "d3")});
  nl.set_fanins(f4, {nl.add_gate(GateType::Nand, {a, f3}, "d4")});
  const NodeIndex f5 = nl.add_dff(nl.add_gate(GateType::Buf, {f3}, "d5"), "f5");
  const NodeIndex o = nl.add_gate(GateType::Or, {f5, f2}, "o");
  nl.mark_output(o);
  nl.finalize();
  return nl;
}

TEST(SgraphStructure, CondensationOrderAndDepthChain) {
  const Netlist nl = chain_into_scc_circuit();
  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 5u);
  const std::uint32_t p1 = dff_position(nl, nl.find("f1"));
  const std::uint32_t p2 = dff_position(nl, nl.find("f2"));
  const std::uint32_t p3 = dff_position(nl, nl.find("f3"));
  const std::uint32_t p4 = dff_position(nl, nl.find("f4"));
  const std::uint32_t p5 = dff_position(nl, nl.find("f5"));

  // Depths: 1, 2 on the acyclic prefix; unbounded in and below the SCC.
  EXPECT_EQ(info.init_depth[p1], 1u);
  EXPECT_EQ(info.init_depth[p2], 2u);
  EXPECT_EQ(info.init_depth[p3], kInfDepth);
  EXPECT_EQ(info.init_depth[p4], kInfDepth);
  EXPECT_EQ(info.init_depth[p5], kInfDepth);
  EXPECT_EQ(info.max_finite_init_depth, 2u);
  EXPECT_EQ(info.acyclic_ffs, 2u);

  // f5 is tainted but NOT in a nontrivial SCC itself.
  EXPECT_FALSE(info.in_nontrivial_scc[p5]);
  EXPECT_TRUE(info.tainted[p5]);

  // 4 SCCs: {f1}, {f2}, {f3,f4}, {f5}; one nontrivial.
  EXPECT_EQ(info.scc_count, 4u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.scc_id[p3], info.scc_id[p4]);

  // Condensation order: ids are a reverse topological order — every
  // cross-SCC edge u -> v (u in preds[v]) satisfies
  // scc_id[v] < scc_id[u].
  for (std::uint32_t v = 0; v < info.ff_count(); ++v) {
    for (const std::uint32_t u : info.preds[v]) {
      if (info.scc_id[u] == info.scc_id[v]) continue;
      EXPECT_LT(info.scc_id[v], info.scc_id[u])
          << "edge " << u << " -> " << v << " violates completion order";
    }
  }
}

TEST(SgraphStructure, S27IsEntirelyCyclic) {
  // s27's three flip-flops split into two nontrivial SCCs ({G5,G6}
  // and the G7 self-loop): nothing synchronizes, every fault horizon
  // is unbounded — the workload where the downgrade must never fire.
  const Netlist nl = make_benchmark("s27");
  const SgraphInfo info = build_sgraph(nl);
  EXPECT_EQ(info.ff_count(), 3u);
  EXPECT_EQ(info.scc_count, 2u);
  EXPECT_EQ(info.nontrivial_scc_count, 2u);
  EXPECT_EQ(info.acyclic_ffs, 0u);

  const CollapsedFaultList c(nl);
  const SgraphPlan plan = build_sgraph_plan(nl, info, c.faults());
  ASSERT_EQ(plan.horizon.size(), c.size());
  EXPECT_EQ(plan.finite_horizon_count(), 0u);
  EXPECT_EQ(plan.nontrivial_sccs, 2u);
}

// ---------------------------------------------------------------------------
// Plan horizons: the condensation DP against the per-fault walk
// ---------------------------------------------------------------------------

/// The per-fault forward walk the plan builder used before the SCC
/// condensation, kept as the oracle: max output horizon over the
/// outputs a fault's site reaches, crossing flip-flops. Memoized by
/// site node (stem and branch faults of one node share the walk).
std::vector<std::uint32_t> walk_horizons(const Netlist& nl,
                                         const SgraphInfo& info,
                                         const std::vector<Fault>& faults) {
  std::vector<std::uint32_t> by_node(nl.node_count(), kInfDepth);
  std::vector<std::uint8_t> done(nl.node_count(), 0);
  ConeWalker walker(nl);
  std::vector<std::uint32_t> out;
  for (const Fault& f : faults) {
    const NodeIndex site = f.site.node;
    if (site >= nl.node_count()) {
      out.push_back(kInfDepth);
      continue;
    }
    if (!done[site]) {
      walker.run(ConeDir::Forward, {site}, /*cross_dffs=*/true);
      std::uint32_t h = 0;
      for (std::size_t j = 0; j < nl.output_count(); ++j) {
        if (walker.reached(nl.outputs()[j])) {
          h = std::max(h, info.output_horizon[j]);
        }
      }
      by_node[site] = h;
      done[site] = 1;
    }
    out.push_back(by_node[site]);
  }
  return out;
}

/// One stem stuck-at-0 fault per node: every site the DP can be asked
/// about, including dangling and flip-flop nodes.
std::vector<Fault> one_fault_per_node(const Netlist& nl) {
  std::vector<Fault> faults;
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    faults.push_back(Fault{FaultSite{n, kStemPin}, false});
  }
  return faults;
}

void expect_plan_matches_walk(const Netlist& nl) {
  const SgraphInfo info = build_sgraph(nl);
  const CollapsedFaultList c(nl);
  for (const std::vector<Fault>& faults :
       {c.faults(), one_fault_per_node(nl)}) {
    const SgraphPlan plan = build_sgraph_plan(nl, info, faults);
    const std::vector<std::uint32_t> oracle = walk_horizons(nl, info, faults);
    ASSERT_EQ(plan.horizon.size(), oracle.size()) << nl.name();
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(plan.horizon[i], oracle[i])
          << nl.name() << " fault " << fault_name(nl, faults[i]);
    }
  }
}

TEST(SgraphPlanDp, MatchesWalkOnRosterUpToS9234) {
  for (const BenchmarkInfo& b : benchmark_roster()) {
    expect_plan_matches_walk(make_benchmark(b));
    if (b.spec.name == "s9234.1") break;
  }
}

TEST(SgraphPlanDp, MatchesWalkOnSynthCorpus) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_plan_matches_walk(generate_circuit(
        SynthSpec{"rl", 6, 3, 10, 120, CircuitStyle::RandomLogic, seed}));
    expect_plan_matches_walk(generate_circuit(
        SynthSpec{"ap", 5, 3, 8, 80, CircuitStyle::AcyclicPipeline, seed}));
  }
}

std::uint32_t horizon_at(const Netlist& nl, NodeIndex site) {
  return build_sgraph_plan(nl, {Fault{FaultSite{site, kStemPin}, false}})
      .horizon[0];
}

TEST(SgraphPlanDp, SelfLoopFeedingAnOutputIsUnbounded) {
  // q self-loops and feeds o1; p is input-only (depth 1) and feeds o2.
  Netlist nl("selfloop_out");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  nl.set_fanins(q, {nl.add_gate(GateType::Nor, {a, q}, "d")});
  const NodeIndex o1 = nl.add_gate(GateType::And, {q, b}, "o1");
  const NodeIndex p = nl.add_dff(b, "p");
  const NodeIndex o2 = nl.add_gate(GateType::Not, {p}, "o2");
  nl.mark_output(o1);
  nl.mark_output(o2);
  nl.finalize();

  EXPECT_EQ(horizon_at(nl, a), kInfDepth);
  EXPECT_EQ(horizon_at(nl, q), kInfDepth);
  EXPECT_EQ(horizon_at(nl, b), kInfDepth);  // reaches o1 as well as o2
  EXPECT_EQ(horizon_at(nl, p), 1u);
  EXPECT_EQ(horizon_at(nl, o2), 1u);
  expect_plan_matches_walk(nl);
}

TEST(SgraphPlanDp, OutputNetThatIsAFlipFlop) {
  Netlist nl("dff_out");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex x = nl.add_gate(GateType::And, {a, b}, "x");
  const NodeIndex q = nl.add_dff(x, "q");
  nl.mark_output(q);
  nl.finalize();

  EXPECT_EQ(build_sgraph(nl).output_horizon[0], 1u);
  EXPECT_EQ(horizon_at(nl, a), 1u);
  EXPECT_EQ(horizon_at(nl, x), 1u);
  EXPECT_EQ(horizon_at(nl, q), 1u);
  expect_plan_matches_walk(nl);
}

TEST(SgraphPlanDp, OneNetAtTwoOutputPositions) {
  Netlist nl("twice");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q1 = nl.add_dff(a, "q1");
  const NodeIndex q2 = nl.add_dff(q1, "q2");
  const NodeIndex o = nl.add_gate(GateType::Or, {q2, a}, "o");
  nl.mark_output(o);
  nl.mark_output(q1);
  nl.mark_output(o);
  nl.finalize();

  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.output_horizon.size(), 3u);
  EXPECT_EQ(info.output_horizon[0], 2u);
  EXPECT_EQ(info.output_horizon[1], 1u);
  EXPECT_EQ(info.output_horizon[2], 2u);
  EXPECT_EQ(horizon_at(nl, a), 2u);
  EXPECT_EQ(horizon_at(nl, q1), 2u);
  EXPECT_EQ(horizon_at(nl, o), 2u);
  expect_plan_matches_walk(nl);
}

TEST(SgraphPlanDp, SiteWithNoPathToAnOutputHasHorizonZero) {
  // z dangles; r is a flip-flop whose only reader is another dangling
  // gate — neither reaches the output.
  Netlist nl("dangling");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  nl.set_fanins(q, {nl.add_gate(GateType::Xor, {a, q}, "d")});
  nl.mark_output(nl.add_gate(GateType::Or, {q, b}, "o"));
  const NodeIndex z = nl.add_gate(GateType::And, {a, b}, "z");
  const NodeIndex r = nl.add_dff(z, "r");
  const NodeIndex y = nl.add_gate(GateType::Not, {r}, "y");
  nl.finalize();

  EXPECT_EQ(horizon_at(nl, z), 0u);
  EXPECT_EQ(horizon_at(nl, r), 0u);
  EXPECT_EQ(horizon_at(nl, y), 0u);
  EXPECT_EQ(horizon_at(nl, a), kInfDepth);
  expect_plan_matches_walk(nl);
}

TEST(SgraphPlanDp, OutOfRangeSiteIsUnbounded) {
  const Netlist nl = make_benchmark("s1423");
  const auto n = static_cast<NodeIndex>(nl.node_count());
  const SgraphPlan plan = build_sgraph_plan(
      nl, {Fault{FaultSite{n, kStemPin}, false},
           Fault{FaultSite{n + 7, 0}, true},
           Fault{FaultSite{kNoNode, kStemPin}, false}});
  ASSERT_EQ(plan.horizon.size(), 3u);
  for (const std::uint32_t h : plan.horizon) EXPECT_EQ(h, kInfDepth);
}

// ---------------------------------------------------------------------------
// bench_io regression: feedback netlists may reference signals defined
// later in the file (the parser must resolve forward references both
// through DFF D-pins and through plain gate fanins).
// ---------------------------------------------------------------------------

TEST(SgraphBenchIo, FeedbackReferencesSignalsDefinedLater) {
  const char* text =
      "INPUT(A)\n"
      "OUTPUT(O)\n"
      "Q1 = DFF(D1)\n"      // D1 defined 2 lines later
      "Q2 = DFF(D2)\n"      // D2 defined last
      "D1 = NOR(A, Q2)\n"
      "O = OR(Q1, Q2)\n"
      "D2 = NAND(Q1, A)\n";
  const Netlist nl = parse_bench_string(text, "fwd");
  EXPECT_TRUE(validate(nl).clean());
  ASSERT_EQ(nl.dff_count(), 2u);

  const SgraphInfo info = build_sgraph(nl);
  const std::uint32_t p1 = dff_position(nl, nl.find("Q1"));
  const std::uint32_t p2 = dff_position(nl, nl.find("Q2"));
  EXPECT_EQ(info.scc_id[p1], info.scc_id[p2]);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.output_horizon[0], kInfDepth);
}

// ---------------------------------------------------------------------------
// Depth soundness against the symbolic true-value machine
// ---------------------------------------------------------------------------

class SgraphDepth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SgraphDepth, SymbolicStateSettlesAtInitDepth) {
  // The semantic claim behind the downgrade: on an acyclic s-graph,
  // flip-flop i's value is a CONSTANT OBDD (independent of the
  // power-up variables) after init_depth[i] frames of binary inputs,
  // and output o's frame value is constant from frame
  // output_horizon[o] on.
  const SynthSpec spec{"depth", 4, 2, 6, 60, CircuitStyle::AcyclicPipeline,
                       GetParam()};
  const Netlist nl = generate_circuit(spec);
  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.acyclic_ffs, nl.dff_count()) << "profile must be acyclic";

  Rng rng(GetParam() * 11 + 2);
  const TestSequence seq =
      random_sequence(nl, info.max_finite_init_depth + 3, rng);

  bdd::BddManager mgr;
  const StateVars vars(nl.dff_count());
  SymTrueValueSim sym(nl, mgr, vars);
  sym.reset_symbolic();
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const std::vector<bdd::Bdd> outs = sym.step(seq[t]);
    // Frame index t (0-based, seeded at frame 0): output o is
    // input-only once t >= horizon[o].
    for (std::size_t o = 0; o < outs.size(); ++o) {
      if (t >= info.output_horizon[o]) {
        EXPECT_TRUE(outs[o].is_zero() || outs[o].is_one())
            << "output " << o << " symbolic in frame " << t
            << " (horizon " << info.output_horizon[o] << ")";
      }
    }
    // After t+1 latches, FF i is constant once t+1 >= init_depth[i].
    for (std::size_t i = 0; i < nl.dff_count(); ++i) {
      if (t + 1 >= info.init_depth[i]) {
        EXPECT_TRUE(sym.state()[i].is_zero() || sym.state()[i].is_one())
            << "ff " << i << " symbolic after " << t + 1
            << " frames (depth " << info.init_depth[i] << ")";
      }
    }
  }
}

TEST_P(SgraphDepth, ScoapSeqDepthNeverBelowStructuralInitDepth) {
  // The acyclic profile routes its deepest chain through a dedicated
  // head gate observed only at the chain tail, so the SCOAP sequential
  // depth maximum must reach (and never undercut) the exact structural
  // bound: max seq_depth >= max finite init-depth.
  const SynthSpec spec{"scoap", 5, 3, 8, 80, CircuitStyle::AcyclicPipeline,
                       GetParam() * 17 + 3};
  const Netlist nl = generate_circuit(spec);

  CircuitStats stats = CircuitStats::of(nl);
  const SiteTable sites(nl);
  attach_testability(stats, nl, compute_testability(nl, sites));
  attach_sgraph(stats, nl, build_sgraph(nl));
  ASSERT_TRUE(stats.has_scoap);
  ASSERT_TRUE(stats.has_sgraph);
  EXPECT_EQ(stats.sgraph_acyclic_ffs, nl.dff_count());
  EXPECT_GT(stats.sgraph_max_init_depth, 0u);
  EXPECT_GE(stats.scoap_max_seq_depth, stats.sgraph_max_init_depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgraphDepth,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Bit-identity: sgraph on vs off, every engine and strategy
// ---------------------------------------------------------------------------

void expect_same_result(const HybridResult& a, const HybridResult& b,
                        const Netlist& nl, const std::vector<Fault>& faults,
                        const char* what) {
  ASSERT_EQ(a.status.size(), b.status.size()) << what;
  EXPECT_EQ(a.detected_count, b.detected_count) << what;
  for (std::size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i])
        << what << " " << fault_name(nl, faults[i]);
    EXPECT_EQ(a.detect_frame[i], b.detect_frame[i])
        << what << " " << fault_name(nl, faults[i]);
  }
}

class SgraphIdentity : public ::testing::TestWithParam<std::uint64_t> {};

/// The pure symbolic engine (no node limit) with the pass on or off.
HybridConfig pure(Strategy s, bool sgraph) {
  return HybridConfig{
      .strategy = s, .node_limit = kNoNodeLimit, .sgraph = sgraph};
}

TEST_P(SgraphIdentity, PureSymbolicMatchesPlain) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 9 + 5);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), pure(s, false));
    const HybridResult rp = plain.run(seq);
    EXPECT_EQ(rp.mot_downgrades, 0u);

    HybridFaultSim guided(nl, c.faults(), pure(s, true));
    const HybridResult rg = guided.run(seq);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
  }
}

HybridConfig ample(Strategy s, bool sgraph) {
  HybridConfig cfg;
  cfg.strategy = s;
  cfg.node_limit = 1u << 22;
  cfg.sgraph = sgraph;
  return cfg;
}

TEST_P(SgraphIdentity, HybridMatchesPlain) {
  const Netlist nl = small_random_circuit(GetParam() + 80);
  Rng rng(GetParam() * 7 + 13);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);
    EXPECT_EQ(rp.mot_downgrades, 0u);

    HybridFaultSim guided(nl, c.faults(), ample(s, true));
    const HybridResult rg = guided.run(seq);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgraphIdentity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SgraphIdentityBench, AcyclicPipelineDowngradesEveryEngine) {
  // On a fully acyclic circuit every surviving rMOT/MOT fault must
  // downgrade once the deepest horizon passes — with verdicts and
  // frames identical to the plain run, serial and sharded alike.
  const SynthSpec spec{"apipe", 4, 2, 8, 70, CircuitStyle::AcyclicPipeline,
                       21};
  const Netlist nl = generate_circuit(spec);
  Rng rng(77);
  const TestSequence seq = random_sequence(nl, 24, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);

    HybridFaultSim guided(nl, c.faults(), ample(s, true));
    const HybridResult rg = guided.run(seq);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
    EXPECT_GT(rg.mot_downgrades, 0u) << to_cstring(s);
    EXPECT_EQ(rp.mot_downgrades, 0u) << to_cstring(s);

    for (std::size_t threads : {2u, 4u}) {
      const HybridFaultSim par(nl, c.faults(), ample(s, true));
      const HybridResult rr = run_sharded(par, seq, threads, 16);
      expect_same_result(rp, rr, nl, c.faults(), to_cstring(s));
      EXPECT_GT(rr.mot_downgrades, 0u)
          << to_cstring(s) << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Plan plumbing
// ---------------------------------------------------------------------------

TEST(SgraphPlumbing, MisalignedPlanIsRejected) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList c(nl);
  SgraphPlan bad;
  bad.horizon.assign(c.size() + 1, 0);

  HybridFaultSim hybrid(nl, c.faults(), ample(Strategy::Mot, true));
  EXPECT_THROW(hybrid.set_sgraph_plan(bad), std::invalid_argument);
}

TEST(SgraphPlumbing, SuppliedPlanMatchesSelfBuiltPlan) {
  const SynthSpec spec{"supplied", 4, 2, 6, 60,
                       CircuitStyle::AcyclicPipeline, 9};
  const Netlist nl = generate_circuit(spec);
  Rng rng(31);
  const TestSequence seq = random_sequence(nl, 16, rng);
  const CollapsedFaultList c(nl);
  const SgraphPlan plan = build_sgraph_plan(nl, c.faults());

  for (Strategy s : {Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim self_built(nl, c.faults(), ample(s, true));
    const HybridResult ra = self_built.run(seq);

    HybridFaultSim supplied(nl, c.faults(), ample(s, true));
    supplied.set_sgraph_plan(plan);
    const HybridResult rb = supplied.run(seq);
    expect_same_result(ra, rb, nl, c.faults(), to_cstring(s));
    EXPECT_EQ(ra.mot_downgrades, rb.mot_downgrades);
  }
}

// ---------------------------------------------------------------------------
// Store identity: sgraph is a pure performance knob
// ---------------------------------------------------------------------------

TEST(SgraphStore, FingerprintIgnoresSgraph) {
  SimOptions on;
  on.sgraph = true;
  SimOptions off = on;
  off.sgraph = false;
  EXPECT_EQ(fingerprint_options(on), fingerprint_options(off));
  EXPECT_FALSE(on == off);  // ...but the configurations DO differ
}

TEST(SgraphStore, ManifestRoundTripsSgraph) {
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  for (bool sgraph : {true, false}) {
    m.options.sgraph = sgraph;
    const std::string text = m.to_text();
    EXPECT_NE(text.find(sgraph ? "opt_sgraph 1" : "opt_sgraph 0"),
              std::string::npos);
    const auto parsed = StoreManifest::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error();
    EXPECT_EQ(parsed->options.sgraph, sgraph);
  }
}

TEST(SgraphStore, LegacyManifestWithoutSgraphLineResumesOff) {
  // Pre-sgraph manifests must load — and must come back with the pass
  // OFF, so the shard partition they checkpointed under is recomputed
  // exactly (no horizon reorder).
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  m.options.sgraph = true;
  std::string text = m.to_text();
  const std::string line = "opt_sgraph 1\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, line.size());
  const auto parsed = StoreManifest::from_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_FALSE(parsed->options.sgraph);
}

// ---------------------------------------------------------------------------
// Reporting: stats print order, diagnostics JSON round-trip
// ---------------------------------------------------------------------------

TEST(SgraphStats, PrintOrderIsStable) {
  const Netlist nl = make_benchmark("s27");
  CircuitStats stats = CircuitStats::of(nl);
  const SiteTable sites(nl);
  attach_testability(stats, nl, compute_testability(nl, sites));
  attach_sgraph(stats, nl, build_sgraph(nl));

  const std::string text = stats.to_string();
  const std::size_t scoap_at = text.find("scoap: ");
  const std::size_t sgraph_at = text.find("sgraph: ");
  ASSERT_NE(scoap_at, std::string::npos);
  ASSERT_NE(sgraph_at, std::string::npos);
  EXPECT_LT(scoap_at, sgraph_at) << "sgraph line must follow scoap line";
  EXPECT_NE(text.find("sgraph: SCCs 2 (nontrivial 2), acyclic FFs 0"),
            std::string::npos)
      << text;
}

TEST(SgraphDiagnostics, JsonRoundTripsSgraphIds) {
  const Netlist nl = make_benchmark("s27");
  const SgraphInfo info = build_sgraph(nl);

  DiagnosticReport report("s27");
  report.add(nl, "sgraph.scc", Severity::Note, nl.dffs()[0],
             "nontrivial SCC of 2 flip-flops");
  report.add(nl, "sgraph.depth", Severity::Note, nl.dffs()[1],
             "synchronization depth 2");
  report.add(nl, "sgraph.feedback", Severity::Note, nl.dffs()[2],
             "greedy feedback-set candidate");
  report.add(nl, "sgraph.summary", Severity::Note, kNoNode,
             sgraph_summary(nl, info));

  const auto parsed = DiagnosticReport::from_json(report.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(*parsed, report);
  EXPECT_TRUE(parsed->has("sgraph.scc"));
  EXPECT_TRUE(parsed->has("sgraph.summary"));
}

}  // namespace
}  // namespace motsim
