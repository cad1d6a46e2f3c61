#ifndef MOTSIM_CIRCUIT_LEVELIZE_H
#define MOTSIM_CIRCUIT_LEVELIZE_H

#include <bit>
#include <cstdint>
#include <vector>

#include "circuit/netlist.h"

namespace motsim {

/// Level-bucketed event queue for event-driven simulation.
///
/// Both the three-valued and the symbolic fault simulators propagate
/// fault effects in level order: a node must be (re)evaluated only
/// after all of its possibly-divergent fanins. The queue holds each
/// node at most once (a `queued` bitmap suppresses duplicates) and
/// pops nodes level by level, last pushed first within a level.
///
/// A second bitmap, one bit per level, marks the non-empty buckets, so
/// finding the next level costs one countr_zero per 64 levels instead
/// of a step per empty bucket; the roster's deepest circuits have
/// thousands of levels and a fault's cone touches few of them.
class EventQueue {
 public:
  explicit EventQueue(const Netlist& netlist);

  /// Schedules `node` for evaluation; duplicates are ignored.
  void push(NodeIndex node) {
    if (queued_[node]) return;
    queued_[node] = 1;
    const std::uint32_t level = netlist_->level(node);
    buckets_[level].push_back(node);
    const std::uint32_t word = level >> 6;
    nonempty_[word] |= std::uint64_t{1} << (level & 63);
    if (word < cursor_) cursor_ = word;
    ++pending_;
  }

  /// Pops the lowest-level pending node; kNoNode when empty.
  [[nodiscard]] NodeIndex pop() {
    if (pending_ == 0) return kNoNode;
    while (nonempty_[cursor_] == 0) ++cursor_;
    std::uint64_t& bits = nonempty_[cursor_];
    std::vector<NodeIndex>& bucket =
        buckets_[(cursor_ << 6) + std::countr_zero(bits)];
    const NodeIndex node = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) bits &= bits - 1;  // drops the lowest set bit
    queued_[node] = 0;
    --pending_;
    return node;
  }

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

  /// Forgets all pending events (e.g. after a fault is detected and
  /// dropped mid-propagation). Visits only the non-empty levels.
  void clear();

 private:
  const Netlist* netlist_;
  std::vector<std::vector<NodeIndex>> buckets_;  ///< one per level
  std::vector<std::uint64_t> nonempty_;  ///< bit l set iff bucket l non-empty
  std::vector<std::uint8_t> queued_;
  std::size_t pending_ = 0;
  /// Every set bit of nonempty_ lies in this word or above; starts
  /// (and restarts after clear()) past the end.
  std::uint32_t cursor_ = 0;
};

/// Nodes grouped by combinational level (level 0 = frame inputs);
/// useful for full-pass evaluations.
[[nodiscard]] std::vector<std::vector<NodeIndex>> nodes_by_level(
    const Netlist& netlist);

}  // namespace motsim

#endif  // MOTSIM_CIRCUIT_LEVELIZE_H
