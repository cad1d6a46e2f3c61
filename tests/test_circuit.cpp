// Netlist construction, finalize-time validation, levelization, event
// queue, fanout-free regions and the structural lint.

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "circuit/ffr.h"
#include "circuit/levelize.h"
#include "circuit/netlist.h"
#include "circuit/stats.h"
#include "circuit/validate.h"
#include "faults/collapse.h"
#include "util/rng.h"

namespace motsim {
namespace {

/// a -> AND -> PO with one DFF in a feedback loop.
Netlist tiny_loop() {
  Netlist nl("tiny");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex g = nl.add_gate(GateType::And, {a, q}, "g");
  nl.set_fanins(q, {g});
  nl.mark_output(g);
  nl.finalize();
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = tiny_loop();
  EXPECT_EQ(nl.node_count(), 3u);
  EXPECT_EQ(nl.input_count(), 1u);
  EXPECT_EQ(nl.output_count(), 1u);
  EXPECT_EQ(nl.dff_count(), 1u);
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_TRUE(nl.finalized());
}

TEST(Netlist, FindByName) {
  const Netlist nl = tiny_loop();
  EXPECT_NE(nl.find("a"), kNoNode);
  EXPECT_NE(nl.find("q"), kNoNode);
  EXPECT_EQ(nl.find("nope"), kNoNode);
  EXPECT_EQ(nl.gate(nl.find("g")).type, GateType::And);
}

TEST(Netlist, FanoutsCarryPinNumbers) {
  const Netlist nl = tiny_loop();
  const NodeIndex a = nl.find("a");
  const NodeIndex g = nl.find("g");
  ASSERT_EQ(nl.fanouts(a).size(), 1u);
  EXPECT_EQ(nl.fanouts(a)[0].node, g);
  EXPECT_EQ(nl.fanouts(a)[0].pin, 0u);
  const NodeIndex q = nl.find("q");
  ASSERT_EQ(nl.fanouts(q).size(), 1u);
  EXPECT_EQ(nl.fanouts(q)[0].pin, 1u);
}

TEST(Netlist, LevelsStartAtFrameInputs) {
  const Netlist nl = tiny_loop();
  EXPECT_EQ(nl.level(nl.find("a")), 0u);
  EXPECT_EQ(nl.level(nl.find("q")), 0u);
  EXPECT_EQ(nl.level(nl.find("g")), 1u);
  EXPECT_EQ(nl.max_level(), 1u);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  const Netlist nl = make_s27();
  std::vector<std::size_t> position(nl.node_count());
  const auto& topo = nl.topo_order();
  ASSERT_EQ(topo.size(), nl.node_count());
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    const Gate& g = nl.gate(n);
    if (is_frame_input(g.type)) continue;
    for (NodeIndex f : g.fanins) {
      EXPECT_LT(position[f], position[n])
          << nl.gate(f).name << " must precede " << g.name;
    }
  }
}

TEST(Netlist, CombinationalCycleIsRejected) {
  Netlist nl("cyc");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex g1 = nl.add_gate(GateType::And, {}, "g1");
  const NodeIndex g2 = nl.add_gate(GateType::Or, {g1, a}, "g2");
  nl.set_fanins(g1, {g2, a});
  nl.mark_output(g2);
  EXPECT_THROW(nl.finalize(), std::invalid_argument);
}

TEST(Netlist, ArityIsValidated) {
  {
    Netlist nl("bad-not");
    const NodeIndex a = nl.add_input("a");
    const NodeIndex b = nl.add_input("b");
    nl.add_gate(GateType::Not, {a, b}, "n");
    EXPECT_THROW(nl.finalize(), std::invalid_argument);
  }
  {
    Netlist nl("bad-and");
    const NodeIndex a = nl.add_input("a");
    nl.add_gate(GateType::And, {a}, "g");
    EXPECT_THROW(nl.finalize(), std::invalid_argument);
  }
  {
    Netlist nl("bad-dff");
    nl.add_dff(kNoNode, "q");  // fanin never set
    EXPECT_THROW(nl.finalize(), std::invalid_argument);
  }
}

TEST(Netlist, FrozenAfterFinalize) {
  Netlist nl = tiny_loop();
  EXPECT_THROW((void)nl.add_input("late"), std::logic_error);
  EXPECT_THROW(nl.mark_output(0), std::logic_error);
  EXPECT_THROW(nl.set_fanins(0, {}), std::logic_error);
}

TEST(Netlist, AddGateRejectsSpecialKinds) {
  Netlist nl("t");
  EXPECT_THROW((void)nl.add_gate(GateType::Input, {}, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)nl.add_gate(GateType::Dff, {}, "x"),
               std::invalid_argument);
}

TEST(Netlist, MultiplePoMarksOnOneNet) {
  Netlist nl("dup-po");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex g = nl.add_gate(GateType::Not, {a}, "g");
  nl.mark_output(g);
  nl.mark_output(g);
  nl.finalize();
  EXPECT_EQ(nl.output_count(), 2u);
  EXPECT_TRUE(nl.is_output(g));
}

TEST(Netlist, DffPositionInverse) {
  const Netlist nl = make_s27();
  for (std::size_t i = 0; i < nl.dff_count(); ++i) {
    EXPECT_EQ(nl.dff_position(nl.dffs()[i]), i);
  }
  EXPECT_EQ(nl.dff_position(nl.inputs()[0]), 0xFFFFFFFFu);
}

TEST(EvalGate2, AllGateKinds) {
  EXPECT_TRUE(eval_gate2(GateType::And, {true, true}));
  EXPECT_FALSE(eval_gate2(GateType::And, {true, false}));
  EXPECT_TRUE(eval_gate2(GateType::Nand, {true, false}));
  EXPECT_TRUE(eval_gate2(GateType::Or, {false, true}));
  EXPECT_TRUE(eval_gate2(GateType::Nor, {false, false}));
  EXPECT_TRUE(eval_gate2(GateType::Xor, {true, false}));
  EXPECT_FALSE(eval_gate2(GateType::Xor, {true, true}));
  EXPECT_TRUE(eval_gate2(GateType::Xnor, {true, true}));
  EXPECT_FALSE(eval_gate2(GateType::Not, {true}));
  EXPECT_TRUE(eval_gate2(GateType::Buf, {true}));
  EXPECT_FALSE(eval_gate2(GateType::Const0, {}));
  EXPECT_TRUE(eval_gate2(GateType::Const1, {}));
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInLevelOrder) {
  const Netlist nl = make_s27();
  EventQueue q(nl);
  // Push all gates in reverse topological order; pops must come back
  // level-sorted.
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) q.push(*it);
  std::uint32_t last_level = 0;
  std::size_t popped = 0;
  for (NodeIndex n = q.pop(); n != kNoNode; n = q.pop()) {
    EXPECT_GE(nl.level(n), last_level);
    last_level = nl.level(n);
    ++popped;
  }
  EXPECT_EQ(popped, nl.node_count());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DuplicatesAreSuppressed) {
  const Netlist nl = make_s27();
  EventQueue q(nl);
  q.push(0);
  q.push(0);
  EXPECT_NE(q.pop(), kNoNode);
  EXPECT_EQ(q.pop(), kNoNode);
}

TEST(EventQueue, ClearForgetsEverything) {
  const Netlist nl = make_s27();
  EventQueue q(nl);
  q.push(0);
  q.push(5);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), kNoNode);
  // Cleared nodes can be pushed again.
  q.push(0);
  EXPECT_EQ(q.pop(), 0u);
}

/// The queue's contract without its level bitmap: one LIFO bucket per
/// level, the lowest non-empty bucket found by stepping level by level.
class ScanQueue {
 public:
  explicit ScanQueue(const Netlist& nl)
      : nl_(&nl), buckets_(nl.max_level() + 1), queued_(nl.node_count(), 0) {}

  void push(NodeIndex n) {
    if (queued_[n]) return;
    queued_[n] = 1;
    buckets_[nl_->level(n)].push_back(n);
  }

  NodeIndex pop() {
    for (auto& bucket : buckets_) {
      if (bucket.empty()) continue;
      const NodeIndex n = bucket.back();
      bucket.pop_back();
      queued_[n] = 0;
      return n;
    }
    return kNoNode;
  }

  void clear() {
    for (auto& bucket : buckets_) {
      for (const NodeIndex n : bucket) queued_[n] = 0;
      bucket.clear();
    }
  }

 private:
  const Netlist* nl_;
  std::vector<std::vector<NodeIndex>> buckets_;
  std::vector<std::uint8_t> queued_;
};

// s5378's 1,362 levels span 22 words of the level bitmap; s27 fits in
// one.
TEST(EventQueue, DeepCircuitTracesMatchPerLevelScan) {
  const Netlist nl = make_benchmark("s5378");
  ASSERT_GT(nl.max_level(), 1000u);
  EventQueue q(nl);
  ScanQueue ref(nl);
  Rng rng(5378);
  std::size_t pops = 0;
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 55) {
      // Pushes anywhere, below the levels already popped included.
      const auto n = static_cast<NodeIndex>(rng.below(nl.node_count()));
      q.push(n);
      ref.push(n);
    } else if (op < 99) {
      const NodeIndex want = ref.pop();
      ASSERT_EQ(q.pop(), want) << "step " << step;
      pops += want != kNoNode;
    } else {
      q.clear();
      ref.clear();
      ASSERT_TRUE(q.empty());
      ASSERT_EQ(q.pop(), kNoNode);
    }
  }
  for (NodeIndex want = ref.pop(); want != kNoNode; want = ref.pop()) {
    ASSERT_EQ(q.pop(), want);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 10000u);
}

TEST(EventQueue, WordBoundaryAndTopLevels) {
  const Netlist nl = make_benchmark("s5378");
  const std::uint32_t top = nl.max_level();
  // One node per level at every multiple of 64, its neighbours, and
  // the top level.
  std::vector<NodeIndex> at_level(top + 1, kNoNode);
  for (NodeIndex n = 0; n < nl.node_count(); ++n) at_level[nl.level(n)] = n;
  std::vector<std::uint32_t> levels;
  for (std::uint32_t l = 0; l <= top; l += 64) {
    for (std::uint32_t d : {l == 0 ? 0u : l - 1, l, l + 1}) {
      if (d <= top && (levels.empty() || levels.back() < d)) levels.push_back(d);
    }
  }
  if (levels.back() != top) levels.push_back(top);

  EventQueue q(nl);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    ASSERT_NE(at_level[*it], kNoNode) << "level " << *it;
    q.push(at_level[*it]);
  }
  for (const std::uint32_t l : levels) EXPECT_EQ(q.pop(), at_level[l]);
  EXPECT_EQ(q.pop(), kNoNode);

  // The top level alone, then a push below it after the pop.
  q.push(at_level[top]);
  EXPECT_EQ(q.pop(), at_level[top]);
  q.push(at_level[64]);
  q.push(at_level[top]);
  EXPECT_EQ(q.pop(), at_level[64]);
  EXPECT_EQ(q.pop(), at_level[top]);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearMidTraceLeavesAReusableQueue) {
  const Netlist nl = make_benchmark("s5378");
  EventQueue q(nl);
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) q.push(*it);
  for (int i = 0; i < 500; ++i) ASSERT_NE(q.pop(), kNoNode);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), kNoNode);
  // Every node, cleared ones included, can be queued again, and the
  // pops come back in level order.
  for (const NodeIndex n : topo) q.push(n);
  std::uint32_t last_level = 0;
  std::size_t popped = 0;
  for (NodeIndex n = q.pop(); n != kNoNode; n = q.pop()) {
    EXPECT_GE(nl.level(n), last_level);
    last_level = nl.level(n);
    ++popped;
  }
  EXPECT_EQ(popped, nl.node_count());
}

TEST(NodesByLevel, PartitionsAllNodes) {
  const Netlist nl = make_s27();
  const auto levels = nodes_by_level(nl);
  std::size_t total = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (NodeIndex n : levels[l]) {
      EXPECT_EQ(nl.level(n), l);
      ++total;
    }
  }
  EXPECT_EQ(total, nl.node_count());
}

// ---------------------------------------------------------------------------
// Fanout-free regions
// ---------------------------------------------------------------------------

TEST(Ffr, ChainIsOneRegion) {
  Netlist nl("chain");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex n1 = nl.add_gate(GateType::Not, {a}, "n1");
  const NodeIndex n2 = nl.add_gate(GateType::Not, {n1}, "n2");
  const NodeIndex n3 = nl.add_gate(GateType::Not, {n2}, "n3");
  nl.mark_output(n3);
  nl.finalize();

  const FanoutFreeRegions ffr(nl);
  EXPECT_TRUE(ffr.is_head(n3));
  EXPECT_EQ(ffr.head_of(a), n3);
  EXPECT_EQ(ffr.head_of(n1), n3);
  EXPECT_EQ(ffr.head_of(n2), n3);
  const auto members = ffr.members_backward(n3);
  EXPECT_EQ(members.size(), 4u);  // n3, n2, n1, a
  EXPECT_EQ(members.front(), n3);
}

TEST(Ffr, FanoutSplitsRegions) {
  Netlist nl("split");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex s = nl.add_gate(GateType::Not, {a}, "stem");
  const NodeIndex g1 = nl.add_gate(GateType::And, {s, b}, "g1");
  const NodeIndex g2 = nl.add_gate(GateType::Or, {s, b}, "g2");
  nl.mark_output(g1);
  nl.mark_output(g2);
  nl.finalize();

  const FanoutFreeRegions ffr(nl);
  EXPECT_TRUE(ffr.is_head(s));   // fanout = 2
  EXPECT_TRUE(ffr.is_head(g1));  // primary output
  EXPECT_TRUE(ffr.is_head(g2));
  EXPECT_TRUE(ffr.is_head(b));   // feeds two gates
}

TEST(Ffr, DffBoundsARegion) {
  const Netlist nl = tiny_loop();
  const FanoutFreeRegions ffr(nl);
  // g feeds both the PO list and the DFF: its net is a head.
  EXPECT_TRUE(ffr.is_head(nl.find("g")));
}

TEST(Ffr, HeadsCoverAllNodes) {
  const Netlist nl = make_s27();
  const FanoutFreeRegions ffr(nl);
  std::size_t covered = 0;
  for (NodeIndex head : ffr.heads()) {
    covered += ffr.members_backward(head).size();
  }
  EXPECT_EQ(covered, nl.node_count());
}

TEST(Ffr, MembersBackwardRejectsNonHeads) {
  const Netlist nl = make_s27();
  const FanoutFreeRegions ffr(nl);
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    if (!ffr.is_head(n)) {
      EXPECT_THROW((void)ffr.members_backward(n), std::invalid_argument);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// CircuitStats
// ---------------------------------------------------------------------------

TEST(CircuitStats, S27Numbers) {
  const CircuitStats s = CircuitStats::of(make_s27());
  EXPECT_EQ(s.inputs, 4u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_EQ(s.dffs, 3u);
  EXPECT_EQ(s.gates, 10u);
  EXPECT_EQ(s.depth, 6u);
  // 17 nodes, 21 fanin pins -> 38 sites, 76 uncollapsed faults.
  EXPECT_EQ(s.fault_sites, 38u);
  EXPECT_EQ(s.by_type[static_cast<std::size_t>(GateType::Nor)], 2u);
  EXPECT_EQ(s.by_type[static_cast<std::size_t>(GateType::Dff)], 3u);
  EXPECT_GT(s.max_fanout, 1u);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("flip-flops 3"), std::string::npos);
  EXPECT_NE(text.find("NOR=2"), std::string::npos);
}

TEST(CircuitStats, RequiresFinalized) {
  Netlist nl("raw");
  (void)nl.add_input("a");
  EXPECT_THROW((void)CircuitStats::of(nl), std::logic_error);
}

TEST(CircuitStats, AttachCollapseFillsClassCounts) {
  const Netlist nl = make_s27();
  CircuitStats s = CircuitStats::of(nl);
  // Absent until attached — circuit/ stays independent of faults/.
  EXPECT_FALSE(s.has_collapse);
  EXPECT_EQ(s.to_string().find("collapse:"), std::string::npos);
  attach_collapse(s, nl);
  EXPECT_TRUE(s.has_collapse);
  EXPECT_EQ(s.uncollapsed_faults, 76u);
  EXPECT_EQ(s.equivalence_classes, 26u);
  // Dominance drops further classes on top of equivalence, but never
  // below 1 per output cone.
  EXPECT_LT(s.dominance_classes, s.equivalence_classes);
  EXPECT_GT(s.dominance_classes, 0u);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("collapse:"), std::string::npos);
  EXPECT_NE(text.find("equivalence classes 26"), std::string::npos);
  EXPECT_NE(text.find("of 76 uncollapsed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

TEST(Validate, CleanCircuitHasNoFindings) {
  const ValidationReport report = validate(make_s27());
  EXPECT_TRUE(report.clean()) << report.messages.front();
}

TEST(Validate, DetectsDanglingNet) {
  Netlist nl("dangling");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex g = nl.add_gate(GateType::Not, {a}, "dead");
  (void)g;
  const NodeIndex g2 = nl.add_gate(GateType::Not, {a}, "alive");
  nl.mark_output(g2);
  nl.finalize();
  const ValidationReport report = validate(nl);
  ASSERT_EQ(report.dangling_nets.size(), 1u);
  EXPECT_EQ(nl.gate(report.dangling_nets[0]).name, "dead");
  // The dead cone is also unobservable.
  EXPECT_FALSE(report.unobservable_nodes.empty());
}

TEST(Validate, DetectsDuplicateFanin) {
  Netlist nl("dup");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex g = nl.add_gate(GateType::And, {a, a}, "g");
  nl.mark_output(g);
  nl.finalize();
  const ValidationReport report = validate(nl);
  ASSERT_EQ(report.duplicate_fanin_gates.size(), 1u);
  EXPECT_EQ(report.duplicate_fanin_gates[0], g);
}

}  // namespace
}  // namespace motsim
