// Truth-table oracle for the whole OBDD package. Random functions over
// eight variables (random tables of random support and density,
// constants, and their complements) are built with known truth tables;
// every public operation's result is compared with the table computed
// from its operands' known tables, and the node table's invariants
// are checked after each operation, each collection and each
// reordering. node_count() is checked against an independent count of
// the distinct subfunctions, identified up to complement.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <map>
#include <set>
#include <vector>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace motsim::bdd {
namespace {

constexpr unsigned kVars = 8;
constexpr unsigned kRows = 1u << kVars;
using Table = std::bitset<kRows>;

bool bit(unsigned row, VarIndex v) { return ((row >> v) & 1u) != 0; }
unsigned with(unsigned row, VarIndex v, bool value) {
  return value ? row | (1u << v) : row & ~(1u << v);
}

Table table_of(const Bdd& f) {
  Table t;
  std::vector<bool> assignment(kVars);
  for (unsigned row = 0; row < kRows; ++row) {
    for (VarIndex v = 0; v < kVars; ++v) assignment[v] = bit(row, v);
    t[row] = f.eval(assignment);
  }
  return t;
}

Table restrict_table(const Table& t, VarIndex v, bool value) {
  Table r;
  for (unsigned row = 0; row < kRows; ++row) r[row] = t[with(row, v, value)];
  return r;
}

/// The table as four words, a cheap ordered key.
using Key = std::array<unsigned long long, kRows / 64>;
Key key_of(const Table& t) {
  static const Table kWord(~0ull);
  Key k{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    k[i] = ((t >> (64 * i)) & kWord).to_ullong();
  }
  return k;
}

bool depends_on(const Table& t, VarIndex v) {
  return restrict_table(t, v, false) != restrict_table(t, v, true);
}

/// A function with its known truth table.
struct Fn {
  Bdd bdd;
  Table table;
};

/// Builds the table's function by Shannon expansion through ite, over
/// the variables in `vars` (a random order: ite restores canonicity).
Bdd build(BddManager& mgr, const Table& t, const std::vector<VarIndex>& vars,
          std::size_t i) {
  if (i == vars.size()) return mgr.constant(t[0]);
  const VarIndex v = vars[i];
  const Bdd hi = build(mgr, restrict_table(t, v, true), vars, i + 1);
  const Bdd lo = build(mgr, restrict_table(t, v, false), vars, i + 1);
  return mgr.ite(mgr.var(v), hi, lo);
}

Fn random_fn(BddManager& mgr, Rng& rng) {
  Table t;
  if (rng.chance(0.1)) {
    if (rng.flip()) t.set();
  } else {
    // Random support of 1..8 variables, random density.
    std::vector<VarIndex> support;
    for (VarIndex v = 0; v < kVars; ++v) {
      if (rng.chance(0.6)) support.push_back(v);
    }
    if (support.empty()) {
      support.push_back(static_cast<VarIndex>(rng.below(kVars)));
    }
    const double density = rng.chance(0.5) ? 0.5 : (rng.flip() ? 0.15 : 0.85);
    unsigned mask = 0;
    for (VarIndex v : support) mask |= 1u << v;
    Table on_support;  // indexed by the row masked to the support
    for (unsigned row = 0; row < kRows; ++row) {
      if ((row & ~mask) == 0) on_support[row] = rng.chance(density);
    }
    for (unsigned row = 0; row < kRows; ++row) t[row] = on_support[row & mask];
    for (std::size_t i = support.size(); i > 1; --i) {
      std::swap(support[i - 1], support[rng.below(i)]);
    }
    Fn f{build(mgr, t, support, 0), t};
    if (rng.flip()) f = Fn{!f.bdd, ~f.table};
    return f;
  }
  return Fn{mgr.constant(t[0]), t};
}

/// node_count() oracle under the manager's current order: the number
/// of distinct subfunctions, identified up to complement, obtained by
/// fixing the variables of the levels above some level and depending
/// on that level's variable.
std::size_t expected_nodes(const BddManager& mgr,
                           const std::vector<Table>& roots) {
  std::size_t count = 0;
  std::vector<Table> layer = roots;  // subfunctions, levels above fixed
  for (VarIndex level = 0; level < kVars; ++level) {
    const VarIndex v = mgr.var_at_level(level);
    std::set<Key> nodes;
    std::map<Key, Table> next;
    for (const Table& g : layer) {
      if (depends_on(g, v)) nodes.insert(std::min(key_of(g), key_of(~g)));
      for (const bool value : {false, true}) {
        const Table c = restrict_table(g, v, value);
        next.emplace(key_of(c), c);
      }
    }
    count += nodes.size();
    layer.clear();
    for (const auto& [k, g] : next) layer.push_back(g);
  }
  return count;
}

/// Coudert-Madre constrain by definition: f evaluated at the minterm
/// of c closest to the row, distance weighted 2^(n-1-level).
Table constrain_table(const BddManager& mgr, const Table& f, const Table& c) {
  auto distance = [&](unsigned x, unsigned y) {
    unsigned d = 0;
    for (VarIndex level = 0; level < kVars; ++level) {
      const VarIndex v = mgr.var_at_level(level);
      if (bit(x, v) != bit(y, v)) d |= 1u << (kVars - 1 - level);
    }
    return d;
  };
  Table r;
  for (unsigned x = 0; x < kRows; ++x) {
    unsigned best = kRows, best_d = ~0u;
    for (unsigned y = 0; y < kRows; ++y) {
      if (c[y] && distance(x, y) < best_d) {
        best_d = distance(x, y);
        best = y;
      }
    }
    r[x] = f[best];
  }
  return r;
}

Table quantify_table(Table t, const std::vector<VarIndex>& vars,
                     bool existential) {
  for (VarIndex v : vars) {
    const Table lo = restrict_table(t, v, false);
    const Table hi = restrict_table(t, v, true);
    t = existential ? (lo | hi) : (lo & hi);
  }
  return t;
}

std::vector<VarIndex> random_vars(Rng& rng) {
  std::vector<VarIndex> vars;
  for (VarIndex v = 0; v < kVars; ++v) {
    if (rng.chance(0.3)) vars.push_back(v);
  }
  return vars;
}

class BddOracle : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  BddOracle() : rng_(GetParam()) { mgr_.ensure_vars(kVars); }

  /// Checks a result against its expected table and the invariants,
  /// and keeps it as a live handle for the later GC / sift checks.
  void check(const Bdd& result, const Table& expected, const char* what) {
    ASSERT_EQ(mgr_.check_invariants(), "") << what;
    ASSERT_EQ(table_of(result), expected) << what;
    ASSERT_EQ(result.node_count(), expected_nodes(mgr_, {expected})) << what;
    live_.push_back(Fn{result, expected});
  }

  /// Every kept handle still denotes its table; the shared node count
  /// of all of them matches the oracle.
  void check_live(const char* what) {
    ASSERT_EQ(mgr_.check_invariants(), "") << what;
    std::vector<Bdd> handles;
    std::vector<Table> tables;
    for (const Fn& f : live_) {
      ASSERT_EQ(table_of(f.bdd), f.table) << what;
      handles.push_back(f.bdd);
      tables.push_back(f.table);
    }
    EXPECT_EQ(mgr_.node_count(std::span<const Bdd>(handles)),
              expected_nodes(mgr_, tables))
        << what;
  }

  BddManager mgr_;
  Rng rng_;
  std::vector<Fn> live_;
};

TEST_P(BddOracle, EveryOperationMatchesItsTruthTable) {
  for (int round = 0; round < 24; ++round) {
    const Fn f = random_fn(mgr_, rng_);
    const Fn g = random_fn(mgr_, rng_);
    const Fn h = random_fn(mgr_, rng_);
    check(f.bdd, f.table, "random function");
    check(!f.bdd, ~f.table, "not");
    check(f.bdd & g.bdd, f.table & g.table, "and");
    check(f.bdd | g.bdd, f.table | g.table, "or");
    check(f.bdd ^ g.bdd, f.table ^ g.table, "xor");
    check(f.bdd.xnor(g.bdd), ~(f.table ^ g.table), "xnor");
    check(f.bdd.implies(g.bdd), ~f.table | g.table, "implies");
    check(mgr_.ite(f.bdd, g.bdd, h.bdd),
          (f.table & g.table) | (~f.table & h.table), "ite");
    check(mgr_.ite(f.bdd, !g.bdd, g.bdd), f.table ^ g.table, "ite as xor");

    const auto v = static_cast<VarIndex>(rng_.below(kVars));
    const bool value = rng_.flip();
    check(mgr_.restrict_var(f.bdd, v, value),
          restrict_table(f.table, v, value), "restrict");

    if (g.table.any()) {
      check(mgr_.constrain(f.bdd, g.bdd),
            constrain_table(mgr_, f.table, g.table), "constrain");
    }

    Table composed;
    for (unsigned row = 0; row < kRows; ++row) {
      composed[row] = f.table[with(row, v, g.table[row])];
    }
    check(mgr_.compose(f.bdd, v, g.bdd), composed, "compose");

    const std::vector<VarIndex> vars = random_vars(rng_);
    check(mgr_.exists(f.bdd, vars), quantify_table(f.table, vars, true),
          "exists");
    check(mgr_.forall(f.bdd, vars), quantify_table(f.table, vars, false),
          "forall");
    check(mgr_.and_exists(f.bdd, g.bdd, vars),
          quantify_table(f.table & g.table, vars, true), "and_exists");

    // Order-preserving rename of the support onto a random variable
    // set of the same size.
    const std::vector<VarIndex> sup = mgr_.support(f.bdd);
    std::vector<VarIndex> targets(kVars);
    for (VarIndex i = 0; i < kVars; ++i) targets[i] = i;
    for (std::size_t i = kVars; i > 1; --i) {
      std::swap(targets[i - 1], targets[rng_.below(i)]);
    }
    targets.resize(sup.size());
    std::sort(targets.begin(), targets.end());
    std::vector<VarIndex> mapping(kVars);
    for (VarIndex i = 0; i < kVars; ++i) mapping[i] = i;
    for (std::size_t i = 0; i < sup.size(); ++i) mapping[sup[i]] = targets[i];
    Table renamed;
    for (unsigned row = 0; row < kRows; ++row) {
      unsigned src = 0;
      for (std::size_t i = 0; i < sup.size(); ++i) {
        src = with(src, sup[i], bit(row, targets[i]));
      }
      renamed[row] = f.table[src];
    }
    check(mgr_.rename(f.bdd, mapping), renamed, "rename");

    // support, sat_count and pick_one against the table.
    std::vector<VarIndex> want_support;
    for (VarIndex u = 0; u < kVars; ++u) {
      if (depends_on(f.table, u)) want_support.push_back(u);
    }
    EXPECT_EQ(sup, want_support);
    EXPECT_EQ(mgr_.sat_count(f.bdd), static_cast<double>(f.table.count()));
    const auto cube = mgr_.pick_one(f.bdd);
    ASSERT_EQ(cube.has_value(), f.table.any());
    if (cube.has_value()) {
      for (unsigned row = 0; row < kRows; ++row) {
        bool in_cube = true;
        for (VarIndex u = 0; u < kVars; ++u) {
          if ((*cube)[u] >= 0 && bit(row, u) != ((*cube)[u] == 1)) {
            in_cube = false;
          }
        }
        if (in_cube) {
          EXPECT_TRUE(f.table[row]) << "pick_one row " << row;
        }
      }
    }

    if (round % 8 == 7) {
      // Drop a random half of the kept handles, collect, check.
      std::vector<Fn> keep;
      for (Fn& k : live_) {
        if (rng_.flip()) keep.push_back(std::move(k));
      }
      live_ = std::move(keep);
      mgr_.gc();
      check_live("after gc");
    }
  }
}

TEST_P(BddOracle, TransferRebuildsUnderAnyMapping) {
  BddManager target;
  std::vector<VarIndex> mapping(kVars);
  for (VarIndex i = 0; i < kVars; ++i) mapping[i] = i;
  for (int round = 0; round < 12; ++round) {
    for (std::size_t i = kVars; i > 1; --i) {
      std::swap(mapping[i - 1], mapping[rng_.below(i)]);
    }
    const Fn f = random_fn(mgr_, rng_);
    const Bdd moved = BddManager::transfer(f.bdd, target, mapping);
    Table want;
    for (unsigned row = 0; row < kRows; ++row) {
      unsigned src = 0;
      for (VarIndex v = 0; v < kVars; ++v) {
        src = with(src, v, bit(row, mapping[v]));
      }
      want[row] = f.table[src];
    }
    ASSERT_EQ(table_of(moved), want) << "round " << round;
    ASSERT_EQ(target.check_invariants(), "");
    // Same manager: a general (order-changing) rename.
    check(BddManager::transfer(f.bdd, mgr_, mapping), want, "self transfer");
  }
}

TEST_P(BddOracle, ReorderingKeepsEveryLiveTruthTable) {
  for (int i = 0; i < 30; ++i) {
    const Fn f = random_fn(mgr_, rng_);
    const Fn g = random_fn(mgr_, rng_);
    live_.push_back(f);
    live_.push_back(Fn{f.bdd ^ g.bdd, f.table ^ g.table});
    live_.push_back(Fn{!(f.bdd & g.bdd), ~(f.table & g.table)});
  }
  check_live("before reordering");
  for (int round = 0; round < 6; ++round) {
    const auto level = static_cast<VarIndex>(rng_.below(kVars - 1));
    mgr_.swap_adjacent_levels(level);
    check_live("after an adjacent swap");
    std::vector<VarIndex> order(kVars);
    for (VarIndex i = 0; i < kVars; ++i) order[i] = i;
    for (std::size_t i = kVars; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    mgr_.set_variable_order(order);
    check_live("after set_variable_order");
    (void)mgr_.reorder_sift();
    check_live("after sifting");
    // Operations keep working, and stay canonical, under the new order.
    const Fn h = random_fn(mgr_, rng_);
    check(h.bdd & live_[round].bdd, h.table & live_[round].table,
          "and after reordering");
    if (live_[round].table.any()) {
      check(mgr_.constrain(h.bdd, live_[round].bdd),
            constrain_table(mgr_, h.table, live_[round].table),
            "constrain after reordering");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddOracle, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace motsim::bdd
