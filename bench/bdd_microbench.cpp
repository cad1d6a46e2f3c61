// Micro-benchmarks of the OBDD package (google-benchmark): the kernels
// the symbolic fault simulator leans on — AND/XOR/ITE recursion,
// negation and the inverting gates built on it, composition, the
// order-preserving rename used by MOT, quantification, garbage
// collection and the handle registry's copy/move/destroy path.
//
// Report medians, not single samples:
//   bdd_microbench --benchmark_repetitions=5 \
//     --benchmark_report_aggregates_only=true

#include <benchmark/benchmark.h>

#include "bdd/bdd.h"
#include "core/sym_true_value.h"
#include "util/rng.h"

namespace {

using motsim::Rng;
using namespace motsim::bdd;

/// Builds a set of pseudo-random functions of `nvars` variables.
std::vector<Bdd> random_functions(BddManager& mgr, unsigned nvars,
                                  std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bdd> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bdd f = mgr.var(static_cast<VarIndex>(rng.below(nvars)));
    for (int depth = 0; depth < 10; ++depth) {
      const Bdd v = mgr.var(static_cast<VarIndex>(rng.below(nvars)));
      switch (rng.below(3)) {
        case 0:
          f &= rng.flip() ? v : !v;
          break;
        case 1:
          f |= rng.flip() ? v : !v;
          break;
        default:
          f ^= v;
          break;
      }
    }
    out.push_back(f);
  }
  return out;
}

void BM_BddAnd(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs[i % 64] & fs[(i + 17) % 64]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddAnd);

void BM_BddXor(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs[i % 64] ^ fs[(i + 29) % 64]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddXor);

void BM_BddIte(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.ite(fs[i % 64], fs[(i + 7) % 64], fs[(i + 41) % 64]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddIte);

void BM_BddNot(benchmark::State& state) {
  // Negation alone: a complement-bit flip plus one handle.
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 13);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(!fs[i % 64]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddNot);

void BM_BddNegationHeavy(benchmark::State& state) {
  // The inverting gates of a netlist on BDD operands: NAND, NOR, XNOR
  // and an inverter per item, every operand and result negated.
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 14);
  std::size_t i = 0;
  for (auto _ : state) {
    const Bdd& f = fs[i % 64];
    const Bdd& g = fs[(i + 19) % 64];
    const Bdd nand = !(f & g);
    const Bdd nor = !(!f | g);
    benchmark::DoNotOptimize(!nand.xnor(!nor));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddNegationHeavy);

void BM_BddNandNorChain(benchmark::State& state) {
  // A chain of alternating NAND and NOR gates over n fresh variables,
  // built from a new manager each time.
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    BddManager mgr;
    Bdd f = mgr.var(0);
    for (unsigned v = 1; v < n; ++v) {
      f = v % 2 != 0 ? !(f & mgr.var(v)) : !(f | mgr.var(v));
    }
    benchmark::DoNotOptimize(f.node_count());
  }
}
BENCHMARK(BM_BddNandNorChain)->Arg(64)->Arg(512);

void BM_BddCompose(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.compose(fs[i % 64], static_cast<VarIndex>(i % 24),
                    fs[(i + 13) % 64]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddCompose);

void BM_BddRenameXToY(benchmark::State& state) {
  // The MOT substitution: functions over interleaved x variables are
  // shifted onto the y variables.
  BddManager mgr;
  const motsim::StateVars vars(12);
  mgr.ensure_vars(vars.var_count());
  Rng rng(5);
  std::vector<Bdd> fs;
  for (int i = 0; i < 64; ++i) {
    Bdd f = mgr.var(vars.x(rng.below(12)));
    for (int d = 0; d < 10; ++d) {
      const Bdd v = mgr.var(vars.x(rng.below(12)));
      f = rng.flip() ? (f & v) : (f ^ v);
    }
    fs.push_back(f);
  }
  const auto mapping = vars.x_to_y_mapping();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.rename(fs[i % 64], mapping));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddRenameXToY);

void BM_BddExists(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 6);
  const std::vector<VarIndex> half{0, 2, 4, 6, 8, 10};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.exists(fs[i % 64], half));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddExists);

void BM_BddParity(benchmark::State& state) {
  // Linear-size worst case of the unique table: n-variable parity.
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    BddManager mgr;
    Bdd p = mgr.zero();
    for (unsigned v = 0; v < n; ++v) p ^= mgr.var(v);
    benchmark::DoNotOptimize(p.node_count());
  }
}
BENCHMARK(BM_BddParity)->Arg(16)->Arg(64)->Arg(256);

void BM_BddGc(benchmark::State& state) {
  BddManager mgr;
  const auto keep = random_functions(mgr, 24, 32, 7);
  Rng rng(8);
  for (auto _ : state) {
    // Produce garbage, then collect.
    for (int i = 0; i < 50; ++i) {
      const Bdd t = keep[rng.below(32)] ^ keep[rng.below(32)];
      benchmark::DoNotOptimize(t.id());
    }
    mgr.gc();
  }
}
BENCHMARK(BM_BddGc);

void BM_HandleChurn(benchmark::State& state) {
  // Handle traffic without BDD work: copies into a growing vector
  // (which reallocates, moving every handle), move-assignments inside
  // it, and destruction while it shrinks. Each item is one handle
  // operation on the manager's registry.
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 12);
  std::vector<Bdd> v;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 256; ++i) v.push_back(fs[i % 64]);
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) v[i] = std::move(v[i + 1]);
    while (!v.empty()) v.pop_back();
    v.shrink_to_fit();
    benchmark::DoNotOptimize(mgr.handle_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (256 + 128 + 256));
}
BENCHMARK(BM_HandleChurn);

void BM_BddAndExists(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 10);
  const std::vector<VarIndex> half{1, 3, 5, 7, 9, 11};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.and_exists(fs[i % 64], fs[(i + 11) % 64], half));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddAndExists);

void BM_BddConstrain(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    const Bdd& c = fs[(i + 23) % 64];
    if (!c.is_zero()) {
      benchmark::DoNotOptimize(mgr.constrain(fs[i % 64], c));
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddConstrain);

void BM_BddSift(benchmark::State& state) {
  // Sift the adversarial pairwise AND-OR function from the blocked
  // order; n pairs.
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    BddManager mgr;
    Bdd f = mgr.zero();
    for (unsigned i = 0; i < n; ++i) f |= mgr.var(i) & mgr.var(n + i);
    benchmark::DoNotOptimize(mgr.reorder_sift(8.0));
  }
}
BENCHMARK(BM_BddSift)->Arg(4)->Arg(8);

void BM_BddSatCount(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.sat_count(fs[i % 64], 24));
    ++i;
  }
}
BENCHMARK(BM_BddSatCount);

}  // namespace

BENCHMARK_MAIN();
