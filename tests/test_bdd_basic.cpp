#include <gtest/gtest.h>

#include "bdd/bdd.h"

namespace motsim::bdd {
namespace {

TEST(BddBasic, TerminalsAreDistinctConstants) {
  BddManager mgr;
  const Bdd zero = mgr.zero();
  const Bdd one = mgr.one();
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(one.is_one());
  EXPECT_TRUE(zero.is_const());
  EXPECT_TRUE(one.is_const());
  EXPECT_NE(zero, one);
  EXPECT_EQ(mgr.constant(false), zero);
  EXPECT_EQ(mgr.constant(true), one);
}

TEST(BddBasic, NullHandle) {
  Bdd b;
  EXPECT_TRUE(b.is_null());
  EXPECT_FALSE(b.is_zero());
  EXPECT_FALSE(b.is_one());
  EXPECT_EQ(b.manager(), nullptr);
}

TEST(BddBasic, VariablesAreCanonical) {
  BddManager mgr;
  const Bdd x0 = mgr.var(0);
  const Bdd x0_again = mgr.var(0);
  EXPECT_EQ(x0, x0_again);
  EXPECT_EQ(mgr.live_node_count(), 1u);  // one shared node
  EXPECT_EQ(x0.top_var(), 0u);
  EXPECT_TRUE(x0.high().is_one());
  EXPECT_TRUE(x0.low().is_zero());
}

TEST(BddBasic, NegatedVariable) {
  BddManager mgr;
  const Bdd nx = mgr.nvar(3);
  EXPECT_EQ(nx.top_var(), 3u);
  EXPECT_TRUE(nx.high().is_zero());
  EXPECT_TRUE(nx.low().is_one());
  EXPECT_EQ(nx, !mgr.var(3));
}

TEST(BddBasic, VarCountTracksCreation) {
  BddManager mgr;
  EXPECT_EQ(mgr.var_count(), 0u);
  (void)mgr.var(4);
  EXPECT_EQ(mgr.var_count(), 5u);
  mgr.ensure_vars(10);
  EXPECT_EQ(mgr.var_count(), 10u);
  mgr.ensure_vars(3);  // never shrinks
  EXPECT_EQ(mgr.var_count(), 10u);
}

TEST(BddBasic, ReductionRuleMergesEqualChildren) {
  BddManager mgr;
  const Bdd x = mgr.var(0);
  // x | !x == 1 must collapse to the terminal, creating no new node.
  const Bdd tauto = x | !x;
  EXPECT_TRUE(tauto.is_one());
  const Bdd contra = x & !x;
  EXPECT_TRUE(contra.is_zero());
}

TEST(BddBasic, StructuralSharingAcrossExpressions) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = a & b;
  const Bdd g = b & a;
  EXPECT_EQ(f, g);  // canonicity: same function, same node
}

TEST(BddBasic, EvalWalksTheGraph) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f = (a & b) | c;
  EXPECT_FALSE(f.eval({false, false, false}));
  EXPECT_TRUE(f.eval({true, true, false}));
  EXPECT_TRUE(f.eval({false, false, true}));
  EXPECT_FALSE(f.eval({true, false, false}));
}

TEST(BddBasic, NodeCountOfSimpleFunctions) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(mgr.zero().node_count(), 0u);
  EXPECT_EQ(a.node_count(), 1u);
  EXPECT_EQ((a & b).node_count(), 2u);
  // xor reaches b's node through a plain and a complemented edge.
  EXPECT_EQ((a ^ b).node_count(), 2u);
}

TEST(BddBasic, SharedNodeCountOfSets) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = a & b;
  const Bdd g = a | b;
  const Bdd fs[] = {f, g};
  const std::size_t shared = mgr.node_count(std::span<const Bdd>(fs));
  EXPECT_LE(shared, f.node_count() + g.node_count());
  EXPECT_GE(shared, std::max(f.node_count(), g.node_count()));
}

TEST(BddBasic, HandleCopyAndMoveKeepRegistration) {
  BddManager mgr;
  EXPECT_EQ(mgr.handle_count(), 0u);
  {
    Bdd a = mgr.var(0);
    EXPECT_EQ(mgr.handle_count(), 1u);
    Bdd b = a;  // copy
    EXPECT_EQ(mgr.handle_count(), 2u);
    Bdd c = std::move(a);  // move detaches the source
    EXPECT_EQ(mgr.handle_count(), 2u);
    EXPECT_TRUE(a.is_null());
    EXPECT_EQ(b, c);
    c = b;  // self-family assignment
    EXPECT_EQ(mgr.handle_count(), 2u);
  }
  EXPECT_EQ(mgr.handle_count(), 0u);
}

TEST(BddBasic, SelfAssignmentIsSafe) {
  BddManager mgr;
  Bdd a = mgr.var(0);
  Bdd& alias = a;
  a = alias;
  EXPECT_EQ(a.top_var(), 0u);
  EXPECT_EQ(mgr.handle_count(), 1u);
}

TEST(BddBasic, SelfMoveIsSafe) {
  BddManager mgr;
  Bdd a = mgr.var(0) & mgr.var(1);
  const NodeId id = a.id();
  Bdd& alias = a;
  a = std::move(alias);
  EXPECT_EQ(a.id(), id);
  EXPECT_EQ(a.manager(), &mgr);
  EXPECT_EQ(mgr.handle_count(), 1u);
  EXPECT_EQ(mgr.check_invariants(), "");
}

TEST(BddBasic, CopyAndMoveAcrossManagers) {
  BddManager m1, m2;
  Bdd a = m1.var(0);
  Bdd b = m2.var(1);
  Bdd c = m2.var(2);
  b = a;  // copy: b leaves m2's registry and joins m1's
  EXPECT_EQ(b, a);
  EXPECT_EQ(m1.handle_count(), 2u);
  EXPECT_EQ(m2.handle_count(), 1u);
  c = std::move(a);  // move: c leaves m2, takes a's place in m1
  EXPECT_TRUE(a.is_null());
  EXPECT_EQ(c, b);
  EXPECT_EQ(m1.handle_count(), 2u);
  EXPECT_EQ(m2.handle_count(), 0u);
  a = m2.var(3);
  Bdd d(std::move(a));  // move construction inside m2
  EXPECT_TRUE(a.is_null());
  EXPECT_EQ(d.manager(), &m2);
  b = std::move(d);  // move from m2 into a handle of m1
  EXPECT_TRUE(d.is_null());
  EXPECT_EQ(b.manager(), &m2);
  EXPECT_EQ(b.top_var(), 3u);
  EXPECT_EQ(m1.handle_count(), 1u);
  EXPECT_EQ(m2.handle_count(), 1u);
  EXPECT_EQ(m1.check_invariants(), "");
  EXPECT_EQ(m2.check_invariants(), "");
}

TEST(BddBasic, EqualityIsPerManager) {
  BddManager m1, m2;
  const Bdd a = m1.var(0);
  const Bdd b = m2.var(0);
  EXPECT_NE(a, b);  // same index, different managers
}

TEST(BddBasic, ImpliesAndXnor) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(a.implies(b), (!a) | b);
  EXPECT_EQ(a.xnor(b), !(a ^ b));
  EXPECT_TRUE(a.implies(a).is_one());
}

TEST(BddBasic, ToDotContainsStructure) {
  BddManager mgr;
  const Bdd x0 = mgr.var(0);  // slot 1
  const Bdd x1 = mgr.var(1);  // slot 2
  const Bdd f = x0 & x1;      // slot 3
  // One terminal box; low edges dashed; the complemented high edge of
  // x1 (to constant 1) has an open-dot arrowhead.
  EXPECT_EQ(mgr.to_dot(f, "f"),
            "digraph \"f\" {\n"
            "  rankdir=TB;\n"
            "  root [shape=point];\n"
            "  node0 [label=\"0\", shape=box];\n"
            "  root -> node3;\n"
            "  node3 [label=\"x0\", shape=circle];\n"
            "  node3 -> node0 [style=dashed];\n"
            "  node3 -> node2;\n"
            "  node2 [label=\"x1\", shape=circle];\n"
            "  node2 -> node0 [style=dashed];\n"
            "  node2 -> node0 [arrowhead=odot];\n"
            "}\n");
  // Negation draws the same nodes behind a complemented root edge.
  EXPECT_NE(mgr.to_dot(!f, "nf").find("root -> node3 [arrowhead=odot];"),
            std::string::npos);
}

TEST(BddBasic, StatsCountNodeCreation) {
  BddManager mgr;
  const auto before = mgr.stats().nodes_created;
  (void)(mgr.var(0) & mgr.var(1));
  EXPECT_GT(mgr.stats().nodes_created, before);
}

}  // namespace
}  // namespace motsim::bdd
