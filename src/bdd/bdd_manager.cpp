#include <algorithm>
#include <cassert>
#include <utility>

#include "bdd/bdd.h"
#include "util/stopwatch.h"

namespace motsim::bdd {

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

VarIndex Bdd::top_var() const {
  assert(mgr_ != nullptr);
  return mgr_->var_of(id_);
}

Bdd Bdd::high() const {
  assert(mgr_ != nullptr && !is_const());
  return Bdd(mgr_, mgr_->high_of(id_));
}

Bdd Bdd::low() const {
  assert(mgr_ != nullptr && !is_const());
  return Bdd(mgr_, mgr_->low_of(id_));
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->apply_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->apply_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->apply_xor(*this, rhs); }
Bdd Bdd::operator!() const { return mgr_->apply_not(*this); }
Bdd Bdd::xnor(const Bdd& rhs) const { return mgr_->apply_xnor(*this, rhs); }
Bdd Bdd::implies(const Bdd& rhs) const { return mgr_->apply_or(!*this, rhs); }

std::size_t Bdd::node_count() const {
  assert(mgr_ != nullptr);
  return mgr_->node_count(*this);
}

// ---------------------------------------------------------------------------
// BddManager: construction, node table, unique table, GC
// ---------------------------------------------------------------------------

namespace {

/// 64-bit avalanche mixer (Murmur3 finalizer) for unique-table hashing.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

BddManager::BddManager(const BddConfig& config)
    : hard_node_limit_(config.hard_node_limit),
      auto_gc_floor_(config.auto_gc_floor),
      next_gc_at_(config.auto_gc_floor) {
  const std::size_t cap = std::max<std::size_t>(config.initial_capacity, 16);
  nodes_.reserve(cap);
  used_.reserve(cap);

  // The terminal (constant false) occupies slot 0 and is never
  // collected.
  nodes_.push_back(Node{kTerminalVar, kFalseId, kFalseId, 0});
  used_.push_back(kUsed);

  buckets_.assign(round_up_pow2(cap), 0);

  cache_.assign(std::size_t{1} << config.cache_size_log2, CacheEntry{});
  cache_mask_ = cache_.size() - 1;
}

BddManager::~BddManager() {
  // Handles must not outlive the manager; detach any stragglers so
  // their destructors do not touch freed memory.
  while (handles_head_ != nullptr) {
    Bdd* h = handles_head_;
    h->mgr_ = nullptr;
    handles_head_ = h->reg_next_;
    if (handles_head_ != nullptr) handles_head_->reg_prev_ = nullptr;
    h->reg_prev_ = h->reg_next_ = nullptr;
  }
}

std::size_t BddManager::bucket_of(VarIndex var, NodeId lo,
                                  NodeId hi) const noexcept {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(var) << 40) ^
      (static_cast<std::uint64_t>(lo) << 20) ^ static_cast<std::uint64_t>(hi);
  return static_cast<std::size_t>(mix64(key)) & (buckets_.size() - 1);
}

NodeId BddManager::make_node(VarIndex var, NodeId lo, NodeId hi) {
  // OBDD reduction rule: equal children collapse to the child.
  if (lo == hi) return lo;

  assert(var2level_[var] < level_of(lo) && var2level_[var] < level_of(hi) &&
         "children must be below the node in the variable order");

  // Canonical form: the stored low edge is plain. A complemented one is
  // moved onto the returned edge, since !ite(v, h, l) == ite(v, !h, !l).
  const NodeId c = lo & 1u;
  lo ^= c;
  hi ^= c;
  const std::size_t bucket = bucket_of(var, lo, hi);
  for (NodeId n = buckets_[bucket]; n != 0; n = nodes_[n].next) {
    const Node& node = nodes_[n];
    if (node.var == var && node.lo == lo && node.hi == hi) {
      ++stats_.unique_hits;
      return edge_of(n) | c;
    }
  }
  return edge_of(allocate_slot(var, lo, hi)) | c;
}

NodeId BddManager::allocate_slot(VarIndex var, NodeId lo, NodeId hi) {
  // The limit counts the terminal with the live nodes.
  if (live_count_ + 1 >= hard_node_limit_) throw BddOverflow(hard_node_limit_);

  // Grow the unique table before the load factor reaches 1. This must
  // happen before the new slot is marked used: rehash() files every
  // used slot, and the new slot's stale body would be linked into the
  // wrong chain.
  if (live_count_ + 2 > buckets_.size()) {
    rehash(buckets_.size() * 2);
  }

  NodeId id;
  if (free_head_ != 0) {
    id = free_head_;
    free_head_ = nodes_[id].next;
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{});
    used_.push_back(0);
    stats_.peak_node_slots = std::max(stats_.peak_node_slots, nodes_.size());
  }
  used_[id] = kUsed;
  ++live_count_;
  ++stats_.nodes_created;
  stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, live_count_);

  const std::size_t bucket = bucket_of(var, lo, hi);
  nodes_[id] = Node{var, lo, hi, buckets_[bucket]};
  buckets_[bucket] = id;
  return id;
}

void BddManager::rehash(std::size_t new_bucket_count) {
  buckets_.assign(round_up_pow2(new_bucket_count), 0);
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (!used_[id]) continue;
    Node& node = nodes_[id];
    const std::size_t bucket = bucket_of(node.var, node.lo, node.hi);
    node.next = buckets_[bucket];
    buckets_[bucket] = id;
  }
}

Bdd BddManager::var(VarIndex index) {
  ensure_vars(index + 1);
  return Bdd(this, make_node(index, kFalseId, kTrueId));
}

Bdd BddManager::nvar(VarIndex index) { return !var(index); }

void BddManager::ensure_vars(VarIndex count) {
  while (num_vars_ < count) {
    // New variables enter at the bottom of the order.
    var2level_.push_back(num_vars_);
    level2var_.push_back(num_vars_);
    ++num_vars_;
  }
}

void BddManager::mark_reachable(NodeId root) {
  // Iterative DFS over slots; BDDs can be deep on wide circuits. Slots
  // are marked when pushed, so the stack never exceeds the live node
  // count. The terminal is pre-marked and stops the walk.
  root = slot_of(root);
  if (used_[root] & kMarked) return;
  used_[root] |= kMarked;
  gc_stack_.push_back(root);
  while (!gc_stack_.empty()) {
    const Node& node = nodes_[gc_stack_.back()];
    gc_stack_.pop_back();
    for (const NodeId child : {slot_of(node.lo), slot_of(node.hi)}) {
      if (used_[child] & kMarked) continue;
      used_[child] |= kMarked;
      gc_stack_.push_back(child);
    }
  }
}

void BddManager::gc() {
  const Stopwatch gc_timer;
  ++stats_.gc_runs;
  const std::size_t live_before = live_count_;

  used_[0] |= kMarked;
  for (const Bdd* h = handles_head_; h != nullptr; h = h->reg_next_) {
    mark_reachable(h->id_);
  }

  // Sweep from the top down: rebuild the unique table from marked
  // nodes, drop the dead slots above the highest survivor, and thread
  // every dead slot below it onto the free list in ascending id order.
  free_head_ = 0;
  live_count_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
  std::size_t slots = 1;  // one past the highest surviving slot
  for (std::size_t i = nodes_.size(); i-- > 1;) {
    const NodeId id = static_cast<NodeId>(i);
    if (used_[id] & kMarked) {
      used_[id] = kUsed;
      if (slots == 1) slots = i + 1;
      Node& node = nodes_[id];
      const std::size_t bucket = bucket_of(node.var, node.lo, node.hi);
      node.next = buckets_[bucket];
      buckets_[bucket] = id;
      ++live_count_;
    } else {
      used_[id] = 0;
      if (slots == 1) continue;
      nodes_[id].next = free_head_;
      free_head_ = id;
    }
  }
  used_[0] = kUsed;
  nodes_.resize(slots);
  used_.resize(slots);

  // Cached results may reference collected nodes; a new epoch
  // invalidates them all. On wrap-around the stale stamps could match
  // again, so the table is cleared once.
  if (++cache_epoch_ == 0) {
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    cache_epoch_ = 1;
  }

  stats_.gc_reclaimed_nodes += live_before - live_count_;
  next_gc_at_ = std::max(auto_gc_floor_, live_count_ * 2);
  stats_.gc_seconds += gc_timer.elapsed_seconds();
}

void BddManager::maybe_auto_gc() {
  if (live_count_ >= next_gc_at_) gc();
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

bool BddManager::cache_lookup(Op op, NodeId f, NodeId g, NodeId h,
                              NodeId& out) {
  ++stats_.cache_lookups;
  const std::uint64_t key =
      mix64((static_cast<std::uint64_t>(op) << 56) ^
            (static_cast<std::uint64_t>(f) << 34) ^
            (static_cast<std::uint64_t>(g) << 12) ^ h);
  const CacheEntry& e = cache_[key & cache_mask_];
  if (e.epoch == cache_epoch_ && e.op == op && e.f == f && e.g == g &&
      e.h == h) {
    ++stats_.cache_hits;
    out = e.result;
    return true;
  }
  return false;
}

void BddManager::cache_insert(Op op, NodeId f, NodeId g, NodeId h,
                              NodeId result) {
  const std::uint64_t key =
      mix64((static_cast<std::uint64_t>(op) << 56) ^
            (static_cast<std::uint64_t>(f) << 34) ^
            (static_cast<std::uint64_t>(g) << 12) ^ h);
  cache_[key & cache_mask_] = CacheEntry{f, g, h, result, cache_epoch_, op};
}

// ---------------------------------------------------------------------------
// Invariant checker
// ---------------------------------------------------------------------------

std::string BddManager::check_invariants() const {
  const std::size_t n = nodes_.size();
  if (used_.size() != n || n < 1) return "node table and flags disagree";
  if (used_[0] != kUsed) return "terminal slot not marked used";
  auto slot = [](std::size_t id) { return "slot " + std::to_string(id); };

  // 0 = not seen, 1 = in a unique-table chain, 2 = on the free list.
  std::vector<std::uint8_t> seen(n, 0);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (NodeId id = buckets_[b]; id != 0; id = nodes_[id].next) {
      if (id >= n) {
        return "bucket " + std::to_string(b) + " links out-of-range " +
               slot(id);
      }
      if (used_[id] != kUsed) return "unused " + slot(id) + " in a chain";
      if (seen[id] != 0) return slot(id) + " in two chains or a cycle";
      seen[id] = 1;
      const Node& node = nodes_[id];
      if (bucket_of(node.var, node.lo, node.hi) != b) {
        return slot(id) + " misfiled in bucket " + std::to_string(b);
      }
      for (NodeId o = node.next; o != 0 && o < n && seen[o] == 0;
           o = nodes_[o].next) {
        const Node& other = nodes_[o];
        if (other.var == node.var && other.lo == node.lo &&
            other.hi == node.hi) {
          return slot(id) + " and " + slot(o) + " are the same node";
        }
      }
    }
  }

  std::size_t used_count = 0;
  for (std::size_t id = 1; id < n; ++id) {
    if (used_[id] == 0) continue;
    if (used_[id] != kUsed) return slot(id) + " has stale flags";
    if (seen[id] != 1) return "used " + slot(id) + " is in no chain";
    const Node& node = nodes_[id];
    if (node.var >= num_vars_) return slot(id) + " has no variable";
    if (node.lo & 1u) return slot(id) + " has a complemented low edge";
    if (node.lo == node.hi) return slot(id) + " has equal children";
    for (const NodeId child : {node.lo, node.hi}) {
      if (slot_of(child) >= n || used_[slot_of(child)] == 0) {
        return slot(id) + " has an unused child";
      }
      if (level_of(child) <= var2level_[node.var]) {
        return slot(id) + " has a child above it in the order";
      }
    }
    ++used_count;
  }
  if (used_count != live_count_) {
    return std::to_string(used_count) + " used slots but live count " +
           std::to_string(live_count_);
  }

  std::size_t free_count = 0;
  for (NodeId id = free_head_; id != 0; id = nodes_[id].next) {
    if (id >= n) return "free list links out-of-range " + slot(id);
    if (used_[id] != 0) return "free list holds used " + slot(id);
    if (seen[id] != 0) return "free list revisits " + slot(id);
    seen[id] = 2;
    ++free_count;
  }
  if (free_count != n - 1 - used_count) {
    return "free list holds " + std::to_string(free_count) + " of " +
           std::to_string(n - 1 - used_count) + " unused slots";
  }

  // The handle registry: a well-linked list of handles of this manager,
  // each naming a used slot, as long as handle_count() says. The walk
  // stops one past the expected length, so a cycle cannot hang it.
  std::size_t handles = 0;
  const Bdd* prev = nullptr;
  for (const Bdd* h = handles_head_; h != nullptr; h = h->reg_next_) {
    if (++handles > handle_counter_) {
      return "registry holds more than " + std::to_string(handle_counter_) +
             " handles";
    }
    if (h->reg_prev_ != prev) return "registry back link broken";
    if (h->mgr_ != this) return "registry holds a foreign handle";
    if (slot_of(h->id_) >= n || used_[slot_of(h->id_)] == 0) {
      return "handle names unused " + slot(slot_of(h->id_));
    }
    prev = h;
  }
  if (handles != handle_counter_) {
    return "registry holds " + std::to_string(handles) +
           " handles but handle count " + std::to_string(handle_counter_);
  }
  return {};
}

}  // namespace motsim::bdd
