#ifndef MOTSIM_ANALYSIS_SGRAPH_H
#define MOTSIM_ANALYSIS_SGRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "faults/fault.h"

namespace motsim {

/// Synchronization depth that is never reached: the flip-flop (or
/// output, or fault) sits in or downstream of a nontrivial s-graph SCC,
/// so no finite number of frames makes its value independent of the
/// unknown power-up state.
inline constexpr std::uint32_t kInfDepth = 0xFFFFFFFFu;

/// Flip-flop dependency graph (s-graph) analysis — static pass 6
/// (docs/ANALYSIS.md).
///
/// Vertices are the circuit's flip-flops (indexed by dff position); an
/// edge u -> v exists when FF u's present-state output lies in the
/// frame-local combinational support of FF v's next-state input. The
/// SCC condensation of this graph decides, per flip-flop, whether the
/// unknown power-up value can persist forever (nontrivial SCC, or
/// downstream of one) or provably flushes out after a fixed number of
/// frames (acyclic region).
///
/// Depth semantics under unknown power-up: with symbolic initial-state
/// variables seeded at frame r (the hybrid reseeds them at every
/// window boundary), a finite-depth flip-flop's present-state value at
/// the start of frame T is a function of primary inputs alone — a
/// constant OBDD under concrete input vectors — whenever
/// T - r >= init_depth. An output's value in frame T is input-only
/// whenever T - r >= its horizon (the max init-depth over its support
/// flip-flops; 0 for purely combinational outputs).
struct SgraphInfo {
  /// Per-FF predecessor lists (dff positions), sorted ascending. The
  /// raw adjacency is kept because the greedy feedback-set estimate
  /// and the lint diagnostics re-walk it.
  std::vector<std::vector<std::uint32_t>> preds;
  /// Per-FF SCC id. Ids follow Tarjan completion order, which is a
  /// reverse topological order of the condensation: an s-graph edge
  /// from SCC A into a different SCC B implies scc_id[B] < scc_id[A].
  std::vector<std::uint32_t> scc_id;
  /// Per-FF: member of a nontrivial SCC (size >= 2 or self-loop).
  std::vector<std::uint8_t> in_nontrivial_scc;
  /// Per-FF: in or downstream of a nontrivial SCC (init_depth is
  /// kInfDepth exactly for these).
  std::vector<std::uint8_t> tainted;
  /// Per-FF synchronization depth: smallest T such that the FF's value
  /// at the start of frame T (relative to the symbolic seeding frame)
  /// is a function of primary inputs only. 1 for an input-only FF,
  /// 1 + max over predecessors otherwise, kInfDepth when tainted.
  std::vector<std::uint32_t> init_depth;
  /// Per-primary-output-position horizon: max init_depth over the
  /// flip-flops in the output's frame-local support (0 if none,
  /// kInfDepth if any support FF is tainted).
  std::vector<std::uint32_t> output_horizon;

  std::size_t scc_count = 0;             ///< total SCCs (= FFs - merged)
  std::size_t nontrivial_scc_count = 0;  ///< SCCs of size >= 2 or self-loop
  std::size_t acyclic_ffs = 0;           ///< FFs with finite init_depth
  std::uint32_t max_finite_init_depth = 0;

  [[nodiscard]] std::size_t ff_count() const noexcept {
    return preds.size();
  }
};

/// Builds the s-graph and everything derived from it. Deterministic —
/// a pure function of the netlist. Requires a finalized netlist.
[[nodiscard]] SgraphInfo build_sgraph(const Netlist& netlist);

/// Per-fault observation horizons powering the symbolic engines'
/// MOT/rMOT -> SOT downgrade (docs/ANALYSIS.md pass 6).
///
/// `horizon[i]` is the max output horizon over the primary outputs in
/// fault i's forward cone of influence (crossing flip-flop
/// boundaries): once the current frame index t satisfies
/// t - epoch >= horizon[i] (epoch = frame at which the engine's
/// symbolic state variables were seeded), every output the fault can
/// ever reach carries a constant fault-free AND constant faulty value,
/// so the per-frame MOT equality products collapse — the full update
/// degenerates to an SOT-style constant comparison plus the shared
/// fault-free frame product, bit-identically by OBDD canonicity.
/// kInfDepth means "never downgrade"; 0 (no output reached, or purely
/// combinational observation) downgrades immediately.
struct SgraphPlan {
  /// Aligned with the fault list the plan was built for.
  std::vector<std::uint32_t> horizon;
  /// Nontrivial SCC count of the underlying s-graph (telemetry).
  std::size_t nontrivial_sccs = 0;

  /// Number of faults with a finite horizon (downgrade candidates).
  [[nodiscard]] std::size_t finite_horizon_count() const noexcept {
    std::size_t n = 0;
    for (const std::uint32_t h : horizon) n += (h != kInfDepth);
    return n;
  }
};

/// Builds a SgraphPlan for `faults` from an already-built SgraphInfo,
/// in one ForwardCondensation pass over the gate graph (O(N+E) for the
/// whole list, analysis/cone.h).
[[nodiscard]] SgraphPlan build_sgraph_plan(const Netlist& netlist,
                                           const SgraphInfo& info,
                                           const std::vector<Fault>& faults);

/// Convenience overload: builds the s-graph itself first. This is what
/// the engines derive on their own when no plan is supplied.
[[nodiscard]] SgraphPlan build_sgraph_plan(const Netlist& netlist,
                                           const std::vector<Fault>& faults);

/// Greedy feedback-set estimate: dff positions whose removal (partial
/// scan) would break every nontrivial SCC, chosen highest-degree-first
/// within the remaining cyclic subgraph (ties to the lowest position).
/// Diagnostics only — an upper bound on the minimum feedback vertex
/// set, never consumed by the engines.
[[nodiscard]] std::vector<std::uint32_t> greedy_feedback_set(
    const SgraphInfo& info);

struct CircuitStats;  // circuit/stats.h

/// Fills the sgraph_* fields of a CircuitStats (sets has_sgraph).
void attach_sgraph(CircuitStats& stats, const Netlist& netlist,
                   const SgraphInfo& info);

/// Compact per-circuit summary ("sgraph: ...") used by the lint CLI.
[[nodiscard]] std::string sgraph_summary(const Netlist& netlist,
                                         const SgraphInfo& info);

}  // namespace motsim

#endif  // MOTSIM_ANALYSIS_SGRAPH_H
