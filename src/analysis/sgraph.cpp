#include "analysis/sgraph.h"

#include <algorithm>
#include <sstream>

#include "analysis/cone.h"
#include "analysis/scc.h"
#include "circuit/stats.h"

namespace motsim {

namespace {

constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;

[[nodiscard]] bool has_self_loop(const SgraphInfo& info, std::uint32_t v) {
  return std::binary_search(info.preds[v].begin(), info.preds[v].end(), v);
}

/// Successor lists derived from the stored predecessor lists.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> successors(
    const SgraphInfo& info) {
  std::vector<std::vector<std::uint32_t>> succ(info.ff_count());
  for (std::uint32_t v = 0; v < info.ff_count(); ++v) {
    for (const std::uint32_t u : info.preds[v]) succ[u].push_back(v);
  }
  return succ;
}

}  // namespace

SgraphInfo build_sgraph(const Netlist& nl) {
  SgraphInfo info;
  const std::size_t n = nl.dff_count();
  info.preds.resize(n);

  // Edge u -> v iff FF u's Q is in the frame-local support of FF v's
  // D input. The backward walk must NOT be seeded at a flip-flop:
  // ConeWalker always expands its seeds, even with cross_dffs=false,
  // so seeding at the FF itself would miss self-loops and seeding at
  // a DFF-typed D fanin would descend through the frame boundary.
  ConeWalker walker(nl);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeIndex d = nl.gate(nl.dffs()[i]).fanins[0];
    if (d == kNoNode) continue;
    if (nl.type(d) == GateType::Dff) {
      info.preds[i].push_back(nl.dff_position(d));
      continue;
    }
    walker.run(ConeDir::Backward, {d}, /*cross_dffs=*/false);
    for (const NodeIndex m : walker.visited()) {
      if (nl.type(m) == GateType::Dff) {
        info.preds[i].push_back(nl.dff_position(m));
      }
    }
    std::sort(info.preds[i].begin(), info.preds[i].end());
  }

  const std::vector<std::vector<std::uint32_t>> succ = successors(info);
  std::vector<std::uint8_t> active(n, 1);
  info.scc_count = tarjan_scc(static_cast<std::uint32_t>(n), succ, active,
                              info.scc_id);

  // Nontrivial SCCs: size >= 2, or a single vertex with a self-loop.
  std::vector<std::uint32_t> scc_size(info.scc_count, 0);
  for (std::uint32_t v = 0; v < n; ++v) scc_size[info.scc_id[v]] += 1;
  std::vector<std::uint8_t> scc_nontrivial(info.scc_count, 0);
  info.in_nontrivial_scc.assign(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (scc_size[info.scc_id[v]] >= 2 || has_self_loop(info, v)) {
      scc_nontrivial[info.scc_id[v]] = 1;
    }
  }
  for (std::uint32_t c = 0; c < info.scc_count; ++c) {
    info.nontrivial_scc_count += scc_nontrivial[c];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    info.in_nontrivial_scc[v] = scc_nontrivial[info.scc_id[v]];
  }

  // Taint: in or downstream of a nontrivial SCC. BFS along successors.
  info.tainted.assign(n, 0);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (info.in_nontrivial_scc[v]) {
      info.tainted[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const std::uint32_t w : succ[queue[head]]) {
      if (!info.tainted[w]) {
        info.tainted[w] = 1;
        queue.push_back(w);
      }
    }
  }

  // Synchronization depths over the untainted (acyclic) region:
  // init_depth(v) = 1 + max over predecessors (max over none = 0),
  // by Kahn topological order. A tainted predecessor would imply v is
  // tainted, so untainted vertices see only untainted predecessors.
  info.init_depth.assign(n, kInfDepth);
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<std::uint32_t> best(n, 0);
  queue.clear();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (info.tainted[v]) continue;
    indeg[v] = static_cast<std::uint32_t>(info.preds[v].size());
    if (indeg[v] == 0) queue.push_back(v);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    info.init_depth[u] = 1 + best[u];
    info.max_finite_init_depth =
        std::max(info.max_finite_init_depth, info.init_depth[u]);
    ++info.acyclic_ffs;
    for (const std::uint32_t w : succ[u]) {
      if (info.tainted[w]) continue;
      best[w] = std::max(best[w], info.init_depth[u]);
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }

  // Per-output-position horizons: max init-depth over the output's
  // frame-local support flip-flops. Same seeding caveat as above when
  // the output net IS a flip-flop.
  info.output_horizon.resize(nl.output_count());
  for (std::size_t j = 0; j < nl.output_count(); ++j) {
    const NodeIndex o = nl.outputs()[j];
    std::uint32_t h = 0;
    if (nl.type(o) == GateType::Dff) {
      h = info.init_depth[nl.dff_position(o)];
    } else {
      walker.run(ConeDir::Backward, {o}, /*cross_dffs=*/false);
      for (const NodeIndex m : walker.visited()) {
        if (nl.type(m) == GateType::Dff) {
          h = std::max(h, info.init_depth[nl.dff_position(m)]);
        }
      }
    }
    info.output_horizon[j] = h;
  }

  return info;
}

SgraphPlan build_sgraph_plan(const Netlist& nl, const SgraphInfo& info,
                             const std::vector<Fault>& faults) {
  SgraphPlan plan;
  plan.nontrivial_sccs = info.nontrivial_scc_count;
  plan.horizon.reserve(faults.size());

  // A fault's horizon is the max output horizon over its forward cone
  // of influence, crossing flip-flop boundaries (observation over any
  // number of frames). Every node of one SCC of the gate graph shares
  // that cone, so one condensation DP answers for all nodes at once.
  // Positions of one output net share a support, hence a horizon.
  std::vector<std::uint32_t> net_horizon(nl.node_count(), 0);
  for (std::size_t j = 0; j < nl.output_count(); ++j) {
    const NodeIndex o = nl.outputs()[j];
    net_horizon[o] = std::max(net_horizon[o], info.output_horizon[j]);
  }
  const std::vector<std::uint32_t> reach_horizon =
      ForwardCondensation(nl).max_over_reach(net_horizon);

  for (const Fault& f : faults) {
    // Malformed site: never downgrade.
    plan.horizon.push_back(f.site.node < nl.node_count()
                               ? reach_horizon[f.site.node]
                               : kInfDepth);
  }
  return plan;
}

SgraphPlan build_sgraph_plan(const Netlist& nl,
                             const std::vector<Fault>& faults) {
  return build_sgraph_plan(nl, build_sgraph(nl), faults);
}

std::vector<std::uint32_t> greedy_feedback_set(const SgraphInfo& info) {
  const std::uint32_t n = static_cast<std::uint32_t>(info.ff_count());
  const std::vector<std::vector<std::uint32_t>> succ = successors(info);
  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint32_t> scc_id;
  std::vector<std::uint32_t> result;

  for (;;) {
    tarjan_scc(n, succ, active, scc_id);
    std::vector<std::uint32_t> scc_size;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!active[v]) continue;
      if (scc_id[v] >= scc_size.size()) scc_size.resize(scc_id[v] + 1, 0);
      scc_size[scc_id[v]] += 1;
    }
    // Highest total degree within the remaining cyclic subgraph; ties
    // go to the lowest dff position (first hit wins below).
    std::uint32_t pick = kUnvisited;
    std::size_t pick_degree = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const bool self_loop =
          active[v] && has_self_loop(info, v);
      const bool cyclic = scc_size[scc_id[v]] >= 2 || self_loop;
      if (!cyclic) continue;
      std::size_t degree = 0;
      for (const std::uint32_t u : info.preds[v]) {
        degree += active[u] && scc_id[u] == scc_id[v];
      }
      for (const std::uint32_t w : succ[v]) {
        degree += active[w] && scc_id[w] == scc_id[v];
      }
      if (pick == kUnvisited || degree > pick_degree) {
        pick = v;
        pick_degree = degree;
      }
    }
    if (pick == kUnvisited) break;
    active[pick] = 0;
    result.push_back(pick);
  }
  return result;
}

void attach_sgraph(CircuitStats& stats, const Netlist& nl,
                   const SgraphInfo& info) {
  (void)nl;
  stats.has_sgraph = true;
  stats.sgraph_sccs = info.scc_count;
  stats.sgraph_nontrivial_sccs = info.nontrivial_scc_count;
  stats.sgraph_acyclic_ffs = info.acyclic_ffs;
  stats.sgraph_max_init_depth = info.max_finite_init_depth;
  stats.sgraph_feedback_estimate = greedy_feedback_set(info).size();
}

std::string sgraph_summary(const Netlist& nl, const SgraphInfo& info) {
  std::uint32_t max_finite_horizon = 0;
  std::size_t inf_outputs = 0;
  for (const std::uint32_t h : info.output_horizon) {
    if (h == kInfDepth) {
      ++inf_outputs;
    } else {
      max_finite_horizon = std::max(max_finite_horizon, h);
    }
  }
  std::ostringstream os;
  os << "sgraph: " << nl.dff_count() << " FFs, " << info.scc_count
     << " SCCs (" << info.nontrivial_scc_count << " nontrivial), "
     << info.acyclic_ffs << " acyclic, max init depth "
     << info.max_finite_init_depth << ", max finite output horizon "
     << max_finite_horizon << " (" << inf_outputs
     << " unbounded outputs), feedback estimate "
     << greedy_feedback_set(info).size();
  return os.str();
}

}  // namespace motsim
