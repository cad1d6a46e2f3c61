// Property-based validation of the boolean operation kernels: random
// expression trees are built simultaneously as BDDs and as evaluable
// ASTs, then compared on every assignment of up to five variables.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace motsim::bdd {
namespace {

constexpr unsigned kVars = 5;

/// A random boolean expression as both a BDD and a truth-evaluable
/// closure.
struct Expr {
  Bdd bdd;
  std::function<bool(unsigned assignment)> eval;
};

bool bit(unsigned assignment, unsigned var) {
  return ((assignment >> var) & 1) != 0;
}

Expr random_expr(BddManager& mgr, Rng& rng, int depth) {
  if (depth == 0 || rng.chance(0.25)) {
    if (rng.chance(0.1)) {
      const bool c = rng.flip();
      return {mgr.constant(c), [c](unsigned) { return c; }};
    }
    const unsigned v = static_cast<unsigned>(rng.below(kVars));
    return {mgr.var(v), [v](unsigned a) { return bit(a, v); }};
  }
  const auto op = rng.below(6);
  if (op == 0) {
    Expr e = random_expr(mgr, rng, depth - 1);
    auto inner = e.eval;
    return {!e.bdd, [inner](unsigned a) { return !inner(a); }};
  }
  Expr l = random_expr(mgr, rng, depth - 1);
  Expr r = random_expr(mgr, rng, depth - 1);
  auto le = l.eval, re = r.eval;
  switch (op) {
    case 1:
      return {l.bdd & r.bdd, [=](unsigned a) { return le(a) && re(a); }};
    case 2:
      return {l.bdd | r.bdd, [=](unsigned a) { return le(a) || re(a); }};
    case 3:
      return {l.bdd ^ r.bdd, [=](unsigned a) { return le(a) != re(a); }};
    case 4:
      return {l.bdd.xnor(r.bdd),
              [=](unsigned a) { return le(a) == re(a); }};
    default: {
      Expr m = random_expr(mgr, rng, depth - 1);
      auto me = m.eval;
      return {mgr.ite(l.bdd, r.bdd, m.bdd),
              [=](unsigned a) { return le(a) ? re(a) : me(a); }};
    }
  }
}

void expect_equal_truth_table(BddManager& mgr, const Expr& e,
                              const char* what) {
  (void)mgr;
  std::vector<bool> assignment(kVars);
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    for (unsigned v = 0; v < kVars; ++v) assignment[v] = bit(a, v);
    EXPECT_EQ(e.bdd.eval(assignment), e.eval(a))
        << what << " differs at assignment " << a;
  }
}

class BddRandomExpr : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRandomExpr, MatchesTruthTable) {
  BddManager mgr;
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    const Expr e = random_expr(mgr, rng, 4);
    expect_equal_truth_table(mgr, e, "random expression");
  }
}

TEST_P(BddRandomExpr, AlgebraicLawsHold) {
  BddManager mgr;
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int i = 0; i < 12; ++i) {
    const Bdd f = random_expr(mgr, rng, 3).bdd;
    const Bdd g = random_expr(mgr, rng, 3).bdd;
    const Bdd h = random_expr(mgr, rng, 3).bdd;
    // De Morgan
    EXPECT_EQ(!(f & g), (!f) | (!g));
    EXPECT_EQ(!(f | g), (!f) & (!g));
    // Double negation
    EXPECT_EQ(!!f, f);
    // Distribution
    EXPECT_EQ(f & (g | h), (f & g) | (f & h));
    // Absorption
    EXPECT_EQ(f & (f | g), f);
    EXPECT_EQ(f | (f & g), f);
    // XOR via AND/OR
    EXPECT_EQ(f ^ g, (f & (!g)) | ((!f) & g));
    // Shannon expansion at variable 0
    const Bdd x = mgr.var(0);
    const Bdd f1 = mgr.restrict_var(f, 0, true);
    const Bdd f0 = mgr.restrict_var(f, 0, false);
    EXPECT_EQ(f, mgr.ite(x, f1, f0));
  }
}

TEST_P(BddRandomExpr, IteAgreesWithMux) {
  BddManager mgr;
  Rng rng(GetParam() ^ 0x777);
  for (int i = 0; i < 12; ++i) {
    const Bdd f = random_expr(mgr, rng, 3).bdd;
    const Bdd g = random_expr(mgr, rng, 3).bdd;
    const Bdd h = random_expr(mgr, rng, 3).bdd;
    EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomExpr,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Directed operation cases
// ---------------------------------------------------------------------------

TEST(BddOps, IteTerminalCases) {
  BddManager mgr;
  const Bdd f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  EXPECT_EQ(mgr.ite(mgr.one(), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.zero(), g, h), h);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  EXPECT_EQ(mgr.ite(f, mgr.one(), mgr.zero()), f);
  EXPECT_EQ(mgr.ite(f, mgr.zero(), mgr.one()), !f);
  EXPECT_EQ(mgr.ite(f, f, h), f | h);
  EXPECT_EQ(mgr.ite(f, g, f), f & g);
}

TEST(BddOps, RestrictEliminatesVariable) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = (a & b) | ((!a) & (!b));  // XNOR
  const Bdd f_a1 = mgr.restrict_var(f, 0, true);
  EXPECT_EQ(f_a1, b);
  const Bdd f_a0 = mgr.restrict_var(f, 0, false);
  EXPECT_EQ(f_a0, !b);
  // Restricting a variable outside the support is the identity.
  EXPECT_EQ(mgr.restrict_var(f, 4, true), f);
}

TEST(BddOps, AndOrOnManyVariables) {
  BddManager mgr;
  Bdd conj = mgr.one();
  Bdd disj = mgr.zero();
  for (unsigned v = 0; v < 12; ++v) {
    conj &= mgr.var(v);
    disj |= mgr.var(v);
  }
  // A conjunction/disjunction chain is linear in the variable count.
  EXPECT_EQ(conj.node_count(), 12u);
  EXPECT_EQ(disj.node_count(), 12u);
  std::vector<bool> all_true(12, true), all_false(12, false);
  EXPECT_TRUE(conj.eval(all_true));
  EXPECT_FALSE(conj.eval(all_false));
  EXPECT_TRUE(disj.eval(all_true));
  EXPECT_FALSE(disj.eval(all_false));
}

TEST(BddOps, ParityFunctionSize) {
  BddManager mgr;
  Bdd parity = mgr.zero();
  const unsigned n = 10;
  for (unsigned v = 0; v < n; ++v) parity ^= mgr.var(v);
  // Parity has one node per variable under any order: each level's
  // node serves both phases through a complemented edge.
  EXPECT_EQ(parity.node_count(), n);
}

TEST(BddOps, CacheHitsAccumulate) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  (void)(a & b);
  const auto lookups_before = mgr.stats().cache_lookups;
  (void)(a & b);  // same operation: cache hit expected
  EXPECT_GT(mgr.stats().cache_lookups, lookups_before);
  EXPECT_GT(mgr.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace motsim::bdd
