#ifndef MOTSIM_ANALYSIS_SCC_H
#define MOTSIM_ANALYSIS_SCC_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace motsim {

/// Marks a vertex no SCC id was assigned to (inactive vertices).
inline constexpr std::uint32_t kNoScc = 0xFFFFFFFFu;

/// Iterative Tarjan over the vertices 0..n-1 whose `active` flag is
/// set, following `succ[v]` — any range with size() and operator[]
/// (successor lists, a CSR adjacency). Fills scc_id (kNoScc for inactive
/// vertices) and returns the number of SCCs. Ids follow completion
/// order, a reverse topological order of the condensation: an edge
/// from SCC A into a different SCC B implies id(B) < id(A), so a DP
/// over ids in increasing order sees every successor SCC finished.
/// Shared by the s-graph (flip-flop graph) and the gate-graph forward
/// condensation (analysis/cone.h).
template <class Successors>
std::uint32_t tarjan_scc(std::uint32_t n, const Successors& succ,
                         const std::vector<std::uint8_t>& active,
                         std::vector<std::uint32_t>& scc_id) {
  std::vector<std::uint32_t> index(n, kNoScc);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  std::uint32_t scc_count = 0;
  scc_id.assign(n, kNoScc);

  for (std::uint32_t root = 0; root < n; ++root) {
    if (!active[root] || index[root] != kNoScc) continue;
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    call.push_back({root, 0});
    while (!call.empty()) {
      const std::uint32_t v = call.back().v;
      const auto& out = succ[v];
      if (call.back().edge < out.size()) {
        const std::uint32_t w = out[call.back().edge++];
        if (!active[w]) continue;
        if (index[w] == kNoScc) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        call.pop_back();
        if (!call.empty()) {
          low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
        if (low[v] == index[v]) {
          for (;;) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc_id[w] = scc_count;
            if (w == v) break;
          }
          ++scc_count;
        }
      }
    }
  }
  return scc_count;
}

}  // namespace motsim

#endif  // MOTSIM_ANALYSIS_SCC_H
