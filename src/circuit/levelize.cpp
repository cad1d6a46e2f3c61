#include "circuit/levelize.h"

#include <stdexcept>

namespace motsim {

EventQueue::EventQueue(const Netlist& netlist) : netlist_(&netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("EventQueue requires a finalized netlist");
  }
  buckets_.resize(netlist.max_level() + 1);
  nonempty_.assign((buckets_.size() + 63) / 64, 0);
  cursor_ = static_cast<std::uint32_t>(nonempty_.size());
  queued_.assign(netlist.node_count(), 0);
}

void EventQueue::clear() {
  for (std::uint32_t w = cursor_; pending_ != 0; ++w) {
    for (std::uint64_t bits = nonempty_[w]; bits != 0; bits &= bits - 1) {
      std::vector<NodeIndex>& bucket =
          buckets_[(w << 6) + std::countr_zero(bits)];
      for (const NodeIndex n : bucket) queued_[n] = 0;
      pending_ -= bucket.size();
      bucket.clear();
    }
    nonempty_[w] = 0;
  }
  cursor_ = static_cast<std::uint32_t>(nonempty_.size());  // next push lowers it
}

std::vector<std::vector<NodeIndex>> nodes_by_level(const Netlist& netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("nodes_by_level requires a finalized netlist");
  }
  std::vector<std::vector<NodeIndex>> levels(netlist.max_level() + 1);
  for (NodeIndex n = 0; n < netlist.node_count(); ++n) {
    levels[netlist.level(n)].push_back(n);
  }
  return levels;
}

}  // namespace motsim
