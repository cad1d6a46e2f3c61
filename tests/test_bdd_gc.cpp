// Garbage collection, the node limit and memory-management invariants.

#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace motsim::bdd {
namespace {

TEST(BddGc, CollectsUnreferencedNodes) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  {
    const Bdd garbage = (a ^ b) | (b ^ c);
    EXPECT_GT(mgr.live_node_count(), 3u);
  }
  mgr.gc();
  // Only the three projection nodes survive.
  EXPECT_EQ(mgr.live_node_count(), 3u);
}

TEST(BddGc, KeepsEverythingReachableFromHandles) {
  BddManager mgr;
  Rng rng(5);
  std::vector<Bdd> keep;
  for (int i = 0; i < 20; ++i) {
    Bdd f = mgr.var(static_cast<unsigned>(rng.below(6)));
    for (int j = 0; j < 5; ++j) {
      f = rng.flip() ? (f & mgr.var(static_cast<unsigned>(rng.below(6))))
                     : (f ^ mgr.var(static_cast<unsigned>(rng.below(6))));
    }
    keep.push_back(f);
  }
  // Remember truth tables, collect, and verify the functions survive.
  std::vector<std::vector<bool>> truth;
  for (const Bdd& f : keep) {
    std::vector<bool> t;
    for (unsigned a = 0; a < 64; ++a) {
      std::vector<bool> asg(6);
      for (unsigned v = 0; v < 6; ++v) asg[v] = ((a >> v) & 1) != 0;
      t.push_back(f.eval(asg));
    }
    truth.push_back(std::move(t));
  }
  mgr.gc();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (unsigned a = 0; a < 64; ++a) {
      std::vector<bool> asg(6);
      for (unsigned v = 0; v < 6; ++v) asg[v] = ((a >> v) & 1) != 0;
      EXPECT_EQ(keep[i].eval(asg), truth[i][a]);
    }
  }
}

TEST(BddGc, CanonicityHoldsAcrossCollections) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = a & b;
  mgr.gc();
  // Rebuilding the same function after GC must find the same node.
  const Bdd g = a & b;
  EXPECT_EQ(f, g);
}

TEST(BddGc, SlotsAreReused) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  { const Bdd t1 = (a ^ b) ^ c; }
  mgr.gc();
  const std::size_t live_after_gc = mgr.live_node_count();
  { const Bdd t2 = (a | b) & c; }
  mgr.gc();
  EXPECT_EQ(mgr.live_node_count(), live_after_gc);
}

TEST(BddGc, HardLimitThrowsBddOverflow) {
  BddConfig cfg;
  cfg.hard_node_limit = 40;
  BddManager mgr(cfg);
  EXPECT_THROW(
      {
        Bdd parity = mgr.zero();
        for (unsigned v = 0; v < 32; ++v) parity ^= mgr.var(v);
      },
      BddOverflow);
}

TEST(BddGc, LimitCanBeRaisedAfterOverflow) {
  BddConfig cfg;
  cfg.hard_node_limit = 30;
  BddManager mgr(cfg);
  auto build = [&] {
    Bdd parity = mgr.zero();
    for (unsigned v = 0; v < 12; ++v) parity ^= mgr.var(v);
    return parity;
  };
  EXPECT_THROW((void)build(), BddOverflow);
  mgr.gc();  // reclaim the partial garbage
  mgr.set_hard_node_limit(static_cast<std::size_t>(-1));
  const Bdd parity = build();
  EXPECT_EQ(parity.node_count(), 12u);  // one node per variable
}

TEST(BddGc, AutoGcTriggersUnderChurn) {
  BddConfig cfg;
  cfg.auto_gc_floor = 256;  // tiny so the test exercises the path
  BddManager mgr(cfg);
  Rng rng(9);
  auto v = [&] { return mgr.var(static_cast<unsigned>(rng.below(10))); };
  for (int i = 0; i < 2000; ++i) {
    const Bdd t = ((v() ^ v()) & (v() | v())) ^ v();
    (void)t;  // dropped immediately: pure churn
  }
  EXPECT_GT(mgr.stats().gc_runs, 0u);
  // Churn must not accumulate: after one more manual GC only the
  // projections (and nothing proportional to the loop count) remain.
  mgr.gc();
  EXPECT_LT(mgr.live_node_count(), 64u);
}

TEST(BddGc, CacheSurvivesLogicallyAfterInvalidation) {
  // The computed cache is wiped on GC; results must still be correct
  // (recomputed) afterwards.
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f1 = a ^ b;
  mgr.gc();
  const Bdd f2 = a ^ b;
  EXPECT_EQ(f1, f2);
}

TEST(BddGc, ManagerOutlivesDetachedHandles) {
  // Handles destructed after their manager must not crash: the manager
  // detaches them on destruction.
  Bdd stray;
  {
    BddManager mgr;
    stray = mgr.var(0);
    EXPECT_FALSE(stray.is_null());
  }
  EXPECT_TRUE(stray.is_null());
}

TEST(BddGc, MovedHandlesStayGcRoots) {
  // Handles moved by vector reallocation, move construction and move
  // assignment must stay registered: after gc() every function is
  // unchanged and the registry agrees with handle_count().
  BddManager mgr;
  Rng rng(17);
  constexpr unsigned kVars = 6;
  auto random_function = [&] {
    Bdd f = mgr.var(static_cast<unsigned>(rng.below(kVars)));
    for (int j = 0; j < 4; ++j) {
      const Bdd v = mgr.var(static_cast<unsigned>(rng.below(kVars)));
      f = rng.flip() ? (f & v) : (f ^ v);
    }
    return f;
  };
  auto truth_table = [&](const Bdd& f) {
    std::vector<bool> table;
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::vector<bool> a(kVars);
      for (unsigned v = 0; v < kVars; ++v) a[v] = ((m >> v) & 1u) != 0;
      table.push_back(f.eval(a));
    }
    return table;
  };

  std::vector<Bdd> fs;  // no reserve: push_back reallocates repeatedly
  std::vector<std::vector<bool>> want;
  for (int i = 0; i < 40; ++i) {
    fs.push_back(random_function());
    want.push_back(truth_table(fs.back()));
  }
  Bdd moved_in(std::move(fs[3]));
  want.push_back(want[3]);
  Bdd assigned = mgr.one();
  assigned = std::move(fs[7]);
  want.push_back(want[7]);
  Bdd from_null;
  from_null = std::move(fs[11]);
  want.push_back(want[11]);
  fs.push_back(std::move(moved_in));
  fs.push_back(std::move(assigned));
  fs.push_back(std::move(from_null));
  EXPECT_TRUE(fs[3].is_null() && fs[7].is_null() && fs[11].is_null());
  EXPECT_TRUE(moved_in.is_null() && assigned.is_null() && from_null.is_null());
  fs.erase(fs.begin() + 11);
  fs.erase(fs.begin() + 7);
  fs.erase(fs.begin() + 3);
  want.erase(want.begin() + 11);
  want.erase(want.begin() + 7);
  want.erase(want.begin() + 3);

  // Unreferenced garbage, so the collection has something to free.
  for (int i = 0; i < 20; ++i) (void)random_function();
  ASSERT_EQ(mgr.check_invariants(), "");
  mgr.gc();
  ASSERT_EQ(mgr.check_invariants(), "");
  EXPECT_EQ(mgr.handle_count(), fs.size());
  // New nodes reuse the freed slots; a lost root would be overwritten.
  std::vector<Bdd> fresh;
  for (int i = 0; i < 20; ++i) fresh.push_back(random_function());
  ASSERT_EQ(mgr.check_invariants(), "");
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(truth_table(fs[i]), want[i]) << "function " << i;
  }
}

TEST(BddGc, PeakLiveNodesIsMonotone) {
  BddManager mgr;
  Bdd f = mgr.zero();
  for (unsigned v = 0; v < 10; ++v) f ^= mgr.var(v);
  const std::size_t peak = mgr.stats().peak_live_nodes;
  mgr.gc();
  EXPECT_GE(mgr.stats().peak_live_nodes, peak);
  EXPECT_GE(peak, mgr.live_node_count());
}

// ---- node-table invariants ------------------------------------------------

/// One random operation over `pool`, result appended to the pool.
void random_op(BddManager& mgr, std::vector<Bdd>& pool, Rng& rng,
               unsigned vars) {
  auto pick = [&]() -> const Bdd& { return pool[rng.below(pool.size())]; };
  const Bdd& f = pick();
  const Bdd& g = pick();
  switch (rng.below(6)) {
    case 0:
      pool.push_back(f & g);
      break;
    case 1:
      pool.push_back(f | g);
      break;
    case 2:
      pool.push_back(f ^ g);
      break;
    case 3:
      pool.push_back(mgr.ite(f, g, pick()));
      break;
    case 4:
      pool.push_back(!f);
      break;
    default:
      pool.push_back(
          mgr.restrict_var(f, static_cast<VarIndex>(rng.below(vars)),
                           rng.flip()));
      break;
  }
}

TEST(BddGc, InvariantsHoldAfterEveryRehashAndGc) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    BddConfig cfg;
    cfg.initial_capacity = 16;  // many growth rehashes
    cfg.auto_gc_floor = 512;    // and automatic collections in between
    BddManager mgr(cfg);
    Rng rng(seed);
    const unsigned vars = 10;
    std::vector<Bdd> pool;
    for (unsigned v = 0; v < vars; ++v) pool.push_back(mgr.var(v));
    ASSERT_EQ(mgr.check_invariants(), "");

    std::size_t rehashes = 0;
    for (int round = 0; round < 30; ++round) {
      for (int i = 0; i < 60; ++i) {
        const std::size_t buckets = mgr.unique_bucket_count();
        const std::uint64_t gcs = mgr.stats().gc_runs;
        random_op(mgr, pool, rng, vars);
        if (mgr.unique_bucket_count() != buckets ||
            mgr.stats().gc_runs != gcs) {
          rehashes += mgr.unique_bucket_count() != buckets ? 1 : 0;
          ASSERT_EQ(mgr.check_invariants(), "")
              << "seed " << seed << " round " << round << " op " << i;
        }
      }
      // Drop a random half of the non-projection functions, collect.
      std::vector<Bdd> keep(pool.begin(), pool.begin() + vars);
      for (std::size_t j = vars; j < pool.size(); ++j) {
        if (rng.flip()) keep.push_back(pool[j]);
      }
      pool = std::move(keep);
      mgr.gc();
      ASSERT_EQ(mgr.check_invariants(), "")
          << "seed " << seed << " after gc of round " << round;
      if (round % 10 == 9) {
        (void)mgr.reorder_sift();
        ASSERT_EQ(mgr.check_invariants(), "")
            << "seed " << seed << " after sifting in round " << round;
      }
    }
    EXPECT_GE(rehashes, 4u) << "seed " << seed << ": too few rehashes";
  }
}

TEST(BddGc, EqualFunctionsShareOneNodeAcrossRehashes) {
  // A misfiled slot would hide older nodes of its bucket and let
  // make_node create duplicates: rebuilding a function would then
  // yield a different id. Canonicity must survive every growth step.
  BddConfig cfg;
  cfg.initial_capacity = 16;
  BddManager mgr(cfg);
  std::vector<Bdd> parts;
  for (unsigned v = 0; v + 1 < 14; ++v) {
    parts.push_back(mgr.var(v) & mgr.var(v + 1));
  }
  Bdd f = mgr.zero();
  for (const Bdd& p : parts) f |= p;
  Bdd g = mgr.zero();
  for (unsigned v = 0; v + 1 < 14; ++v) g |= mgr.var(v) & mgr.var(v + 1);
  EXPECT_EQ(f, g);
  EXPECT_EQ(mgr.check_invariants(), "");
}

TEST(BddGc, SlotCountStaysWithinPeakLiveUnderChurn) {
  BddManager mgr;
  Rng rng(11);
  const unsigned vars = 12;
  std::vector<Bdd> base;
  for (unsigned v = 0; v < vars; ++v) base.push_back(mgr.var(v));
  for (int cycle = 0; cycle < 50; ++cycle) {
    {
      // Garbage of varying size: some cycles build far more than others.
      std::vector<Bdd> pool = base;
      const int ops = 20 + static_cast<int>(rng.below(400));
      for (int i = 0; i < ops; ++i) random_op(mgr, pool, rng, vars);
      if (cycle % 3 == 0) base.push_back(pool.back());  // some survive
    }
    mgr.gc();
    // Slots only grow when no free slot is left, i.e. when every slot
    // is live: the table never exceeds the live peak plus the terminal.
    ASSERT_LE(mgr.node_slot_count(), mgr.stats().peak_live_nodes + 1)
        << "cycle " << cycle;
    ASSERT_EQ(mgr.check_invariants(), "") << "cycle " << cycle;
  }
  EXPECT_LE(mgr.stats().peak_node_slots, mgr.stats().peak_live_nodes + 1);
  EXPECT_GE(mgr.stats().peak_node_slots, mgr.node_slot_count());
}

TEST(BddGc, TrailingDeadSlotsAreTrimmed) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  {
    Bdd parity = mgr.zero();
    for (unsigned v = 0; v < 16; ++v) parity ^= mgr.var(v);
    EXPECT_GT(mgr.node_slot_count(), 30u);
  }
  mgr.gc();
  // Only the terminal and the three projections below the garbage.
  EXPECT_EQ(mgr.node_slot_count(), 4u);
  EXPECT_EQ(mgr.live_node_count(), 3u);
  EXPECT_EQ(mgr.check_invariants(), "");
}

TEST(BddGc, FreeSlotsAreReusedLowestIdFirst) {
  BddManager mgr;
  const Bdd a = mgr.var(0);    // slot 1, edge 2
  Bdd b = mgr.var(1);          // slot 2
  Bdd c = mgr.var(2);          // slot 3
  const Bdd d = mgr.var(3);    // slot 4, edge 8
  ASSERT_EQ(a.id(), 2u);
  ASSERT_EQ(d.id(), 8u);
  c = Bdd();
  b = Bdd();
  mgr.gc();
  EXPECT_EQ(mgr.node_slot_count(), 5u);
  EXPECT_EQ(mgr.var(7).id(), 4u);   // slot 2
  EXPECT_EQ(mgr.var(8).id(), 6u);   // slot 3
  EXPECT_EQ(mgr.var(9).id(), 10u);  // slot 5: free list empty, table grows
  EXPECT_EQ(mgr.check_invariants(), "");
}

TEST(BddGc, CacheEntriesDieWithTheirEpoch) {
  // A cached result whose node was collected must not be returned:
  // the slot may hold an unrelated node by then.
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  NodeId old_id;
  {
    const Bdd t = a & b;
    old_id = t.id();
  }
  mgr.gc();
  const Bdd other = b | c;  // reuses the freed slot
  EXPECT_EQ(other.id(), old_id);
  const Bdd again = a & b;  // must not hit the stale (a & b) entry
  EXPECT_NE(again, other);
  EXPECT_TRUE(again.eval({true, true, false}));
  EXPECT_FALSE(again.eval({true, false, true}));
}

}  // namespace
}  // namespace motsim::bdd
