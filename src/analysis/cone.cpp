#include "analysis/cone.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

#include "analysis/scc.h"

namespace motsim {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

/// Signature key of an observation point: an output position as-is, a
/// flip-flop position tagged in the high word.
std::uint64_t observation_key(std::size_t position, bool is_dff) noexcept {
  return is_dff ? (std::uint64_t{1} << 32) | position : position;
}

/// Divergence origin of a fault: the node whose output first carries a
/// faulty value. A branch fault's effect exists only inside the gate it
/// enters, so the gate node is the origin (a D-pin branch diverges at
/// the flip-flop's Q, which IS the flip-flop node).
NodeIndex divergence_origin(const Fault& fault) noexcept {
  return fault.site.node;
}

}  // namespace

NodeIndex activation_node(const Netlist& netlist, const Fault& fault) {
  const NodeIndex site = fault.site.node;
  if (site >= netlist.node_count()) return kNoNode;
  if (fault.site.is_stem()) return site;
  const auto& fanins = netlist.gate(site).fanins;
  if (fault.site.pin >= fanins.size()) return kNoNode;
  return fanins[fault.site.pin];
}

NodeAdjacency::NodeAdjacency(const Netlist& netlist, ConeDir dir) {
  if (!netlist.finalized()) {
    throw std::logic_error("NodeAdjacency requires a finalized netlist");
  }
  const std::size_t n = netlist.node_count();
  offset_.assign(n + 1, 0);
  for (NodeIndex i = 0; i < n; ++i) {
    if (dir == ConeDir::Forward) {
      for (const FanoutRef& fo : netlist.fanouts(i)) edges_.push_back(fo.node);
    } else {
      for (const NodeIndex f : netlist.gate(i).fanins) {
        if (f != kNoNode) edges_.push_back(f);
      }
    }
    offset_[i + 1] = static_cast<std::uint32_t>(edges_.size());
  }
}

ConeWalker::ConeWalker(const Netlist& netlist)
    : netlist_(&netlist),
      fwd_(netlist, ConeDir::Forward),
      bwd_(netlist, ConeDir::Backward) {
  mark_.assign(netlist.node_count(), 0);
}

void ConeWalker::run(ConeDir dir, const NodeIndex* seeds, std::size_t count,
                     bool cross_dffs) {
  if (++gen_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0u);
    gen_ = 1;
  }
  visited_.clear();

  const NodeAdjacency& adj = dir == ConeDir::Forward ? fwd_ : bwd_;

  for (std::size_t i = 0; i < count; ++i) {
    const NodeIndex s = seeds[i];
    if (s == kNoNode || mark_[s] == gen_) continue;
    mark_[s] = gen_;
    visited_.push_back(s);
  }
  const std::size_t seeded = visited_.size();

  // BFS over the visited_ vector itself (it doubles as the queue).
  for (std::size_t head = 0; head < visited_.size(); ++head) {
    const NodeIndex n = visited_[head];
    if (!cross_dffs && head >= seeded &&
        netlist_->type(n) == GateType::Dff) {
      // Flip-flop boundary: marked, not expanded (seeds always are).
      continue;
    }
    for (const NodeIndex m : adj[n]) {
      if (mark_[m] != gen_) {
        mark_[m] = gen_;
        visited_.push_back(m);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ForwardCondensation
// ---------------------------------------------------------------------------

ForwardCondensation::ForwardCondensation(const Netlist& netlist)
    : netlist_(&netlist), fwd_(netlist, ConeDir::Forward) {
  const auto n = static_cast<std::uint32_t>(netlist.node_count());
  scc_count_ = tarjan_scc(n, fwd_, std::vector<std::uint8_t>(n, 1), scc_id_);
  member_offset_.assign(scc_count_ + 1, 0);
  for (NodeIndex v = 0; v < n; ++v) ++member_offset_[scc_id_[v] + 1];
  for (std::uint32_t c = 0; c < scc_count_; ++c) {
    member_offset_[c + 1] += member_offset_[c];
  }
  members_.resize(n);
  std::vector<std::uint32_t> fill(member_offset_.begin(),
                                  member_offset_.end() - 1);
  for (NodeIndex v = 0; v < n; ++v) members_[fill[scc_id_[v]]++] = v;
}

std::vector<std::uint32_t> ForwardCondensation::max_over_reach(
    const std::vector<std::uint32_t>& own) const {
  std::vector<std::uint32_t> per_scc(scc_count_, 0);
  for (std::uint32_t c = 0; c < scc_count_; ++c) {
    std::uint32_t best = 0;
    for (std::uint32_t k = member_offset_[c]; k < member_offset_[c + 1]; ++k) {
      const NodeIndex v = members_[k];
      best = std::max(best, own[v]);
      // Other successor SCCs have smaller ids, so their values are
      // final; this SCC's own entry is still 0.
      for (const NodeIndex w : fwd_[v]) {
        best = std::max(best, per_scc[scc_id_[w]]);
      }
    }
    per_scc[c] = best;
  }
  std::vector<std::uint32_t> out(scc_id_.size());
  for (std::size_t v = 0; v < out.size(); ++v) out[v] = per_scc[scc_id_[v]];
  return out;
}

std::vector<std::uint64_t> ForwardCondensation::observation_signatures(
    const std::vector<NodeIndex>& origins) const {
  const Netlist& nl = *netlist_;
  const std::size_t outputs = nl.output_count();
  const std::size_t bits = outputs + nl.dff_count();
  const std::size_t words = (bits + 63) / 64;

  // One observation bitset per SCC: output positions first, then
  // flip-flop positions, so ascending bit order is the hash order.
  std::vector<std::uint64_t> reach(std::size_t{scc_count_} * words, 0);
  auto set_bit = [&](NodeIndex node, std::size_t bit) {
    reach[scc_id_[node] * words + bit / 64] |= std::uint64_t{1} << (bit % 64);
  };
  for (std::size_t j = 0; j < outputs; ++j) set_bit(nl.outputs()[j], j);
  for (std::size_t j = 0; j < nl.dff_count(); ++j) {
    set_bit(nl.dffs()[j], outputs + j);
  }
  for (std::uint32_t c = 0; c < scc_count_; ++c) {
    std::uint64_t* const dst = reach.data() + c * words;
    for (std::uint32_t k = member_offset_[c]; k < member_offset_[c + 1]; ++k) {
      for (const NodeIndex w : fwd_[members_[k]]) {
        const std::uint32_t d = scc_id_[w];
        if (d == c) continue;
        const std::uint64_t* const src = reach.data() + d * words;
        for (std::size_t i = 0; i < words; ++i) dst[i] |= src[i];
      }
    }
  }

  std::vector<std::uint64_t> hash_of(scc_count_, 0);
  std::vector<std::uint8_t> hashed(scc_count_, 0);
  std::vector<std::uint64_t> out;
  out.reserve(origins.size());
  for (const NodeIndex origin : origins) {
    if (origin >= nl.node_count()) {  // kNoNode included
      out.push_back(kFnvOffset);
      continue;
    }
    const std::uint32_t c = scc_id_[origin];
    if (!hashed[c]) {
      std::uint64_t h = kFnvOffset;
      for (std::size_t i = 0; i < words; ++i) {
        for (std::uint64_t w = reach[c * words + i]; w != 0; w &= w - 1) {
          const std::size_t bit = i * 64 + std::countr_zero(w);
          const bool is_dff = bit >= outputs;
          h = fnv1a_u64(
              h, observation_key(is_dff ? bit - outputs : bit, is_dff));
        }
      }
      hash_of[c] = h;
      hashed[c] = 1;
    }
    out.push_back(hash_of[c]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ConeAnalysis
// ---------------------------------------------------------------------------

ConeAnalysis::ConeAnalysis(const Netlist& netlist)
    : netlist_(&netlist), walker_(netlist) {}

ConeSummary ConeAnalysis::fault_cone(const Fault& fault) {
  const Netlist& nl = *netlist_;
  ConeSummary s;

  walker_.run(ConeDir::Forward, {divergence_origin(fault)});
  s.forward_size = walker_.visited().size();

  // Signature over the observation set, position-indexed so two faults
  // match exactly when they can influence the same outputs/flip-flops.
  std::uint64_t h = kFnvOffset;
  const auto& outputs = nl.outputs();
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    if (!walker_.reached(outputs[j])) continue;
    ++s.outputs_reached;
    h = fnv1a_u64(h, observation_key(j, false));
  }
  const auto& dffs = nl.dffs();
  for (std::size_t j = 0; j < dffs.size(); ++j) {
    if (!walker_.reached(dffs[j])) continue;
    ++s.dffs_reached;
    h = fnv1a_u64(h, observation_key(j, true));
  }
  s.signature = h;

  const NodeIndex act = activation_node(nl, fault);
  if (act != kNoNode) {
    walker_.run(ConeDir::Backward, {act});
    s.support_size = walker_.visited().size();
  }
  return s;
}

std::vector<ConeCluster> ConeAnalysis::cluster_faults(
    const std::vector<Fault>& faults) {
  std::vector<ConeCluster> clusters;
  std::unordered_map<std::uint64_t, std::size_t> by_signature;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ConeSummary s = fault_cone(faults[i]);
    const auto [it, inserted] =
        by_signature.try_emplace(s.signature, clusters.size());
    if (inserted) {
      clusters.push_back(ConeCluster{s.signature, {}, s});
    }
    clusters[it->second].fault_indices.push_back(i);
  }
  return clusters;
}

std::vector<std::size_t> cluster_live_order(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::vector<std::size_t>& live) {
  std::vector<NodeIndex> origins;
  origins.reserve(live.size());
  for (const std::size_t g : live) {
    origins.push_back(divergence_origin(faults[g]));
  }
  const std::vector<std::uint64_t> sigs =
      ForwardCondensation(netlist).observation_signatures(origins);
  // Group by signature, preserving the first-occurrence order of the
  // signatures and the relative order of members; a stable partition,
  // never a sort, so the result is reproducible byte for byte.
  std::vector<std::size_t> order;
  order.reserve(live.size());
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> members;
  std::vector<std::uint64_t> signature_order;
  for (std::size_t k = 0; k < live.size(); ++k) {
    auto [it, inserted] = members.try_emplace(sigs[k]);
    if (inserted) signature_order.push_back(sigs[k]);
    it->second.push_back(live[k]);
  }
  for (const std::uint64_t sig : signature_order) {
    const std::vector<std::size_t>& m = members[sig];
    order.insert(order.end(), m.begin(), m.end());
  }
  return order;
}

}  // namespace motsim
