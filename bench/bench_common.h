#ifndef MOTSIM_BENCH_BENCH_COMMON_H
#define MOTSIM_BENCH_BENCH_COMMON_H

// Shared plumbing for the paper-table reproduction harnesses.
//
// Every harness prints our measurements side by side with the numbers
// transcribed from the paper (SPARCstation 10, 1995). Absolute values
// are not comparable — the circuits are synthetic stand-ins and the
// host is ~3 decades newer — the *shape* (who wins, where the MOT
// strategies add coverage, where ID_X-red pays off) is the
// reproduction target; see EXPERIMENTS.md.
//
// Environment:
//   MOTSIM_FULL=1      run the complete roster (including the giants)
//   MOTSIM_VECTORS=n   override the random-sequence length (default 200)
//   MOTSIM_SEED=n      override the workload seed
//   MOTSIM_SIM3_BACKEND=event|bitpar  X01 engine (default bitpar)

#include <cstdio>
#include <string>

#include "bench_data/registry.h"
#include "util/env.h"
#include "util/strings.h"

namespace motsim::bench {

inline bool full_mode() { return env_flag("MOTSIM_FULL"); }

inline std::size_t vector_count() {
  return static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 200));
}

inline std::uint64_t workload_seed() {
  return static_cast<std::uint64_t>(env_int("MOTSIM_SEED", 1995));
}

/// Default circuit-size cutoff (by target gate count) when not in full
/// mode; keeps a whole-suite run in the minutes range.
inline bool include_circuit(const BenchmarkInfo& info,
                            std::size_t quick_gate_cutoff) {
  if (info.spec.name == "s27") return false;  // not in the paper's tables
  if (full_mode()) return true;
  return info.spec.target_gates <= quick_gate_cutoff;
}

/// "123" or "-" for missing reference values.
inline std::string ref_int(int v) {
  return v < 0 ? "-" : std::to_string(v);
}

/// "1.58" or "-" for missing reference times.
inline std::string ref_time(double v) {
  return v < 0 ? "-" : format_fixed(v, 2);
}

/// Number plus the paper's asterisk (three-valued fallback happened).
inline std::string starred(std::size_t v, bool star) {
  return (star ? "*" : "") + std::to_string(v);
}

inline void print_preamble(const char* table, const char* what) {
  std::printf("=== %s — %s ===\n", table, what);
  std::printf(
      "(ours vs paper; absolute numbers are not comparable — synthetic "
      "circuits, modern host.\n %s)\n\n",
      full_mode() ? "full roster"
                  : "reduced roster; set MOTSIM_FULL=1 for everything");
}

}  // namespace motsim::bench

#endif  // MOTSIM_BENCH_BENCH_COMMON_H
