#ifndef MOTSIM_BDD_BDD_H
#define MOTSIM_BDD_BDD_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace motsim::bdd {

/// A complemented edge into the manager's node table (Brace, Rudell and
/// Bryant, DAC 1990): `slot << 1 | complement`. The edge denotes the
/// function of node `slot`, negated when the low bit is set, so
/// negation is `id ^ 1`. Slot 0 is the one terminal, the constant
/// false: kFalseId is its plain edge and kTrueId its complement. Every
/// internal node stores an uncomplemented low edge, which keeps the
/// representation canonical.
using NodeId = std::uint32_t;

inline constexpr NodeId kFalseId = 0;
inline constexpr NodeId kTrueId = 1;

/// Variable index (stable identity). The *initial* order equals
/// creation order — variable 0 closest to the root — and the
/// simulators rely on that default (they interleave the fault-free and
/// faulty initial-state variables x_1,y_1,x_2,y_2,... so the MOT
/// rename x_i -> y_i is order-preserving). The manager additionally
/// supports dynamic reordering (set_variable_order / reorder_sift),
/// which permutes the var <-> level maps while preserving every
/// handle's function; do not reorder in the middle of a fault
/// simulation that uses rename's order-preserving fast path.
using VarIndex = std::uint32_t;

/// Sentinel variable index of the terminal nodes; orders below every
/// real variable.
inline constexpr VarIndex kTerminalVar = 0xFFFFFFFFu;

class BddManager;

/// Thrown by node-creating operations when the manager's hard node
/// limit is exceeded. The hybrid fault simulator catches this to
/// trigger its three-valued fallback window (the paper's 30,000-node
/// space limit).
class BddOverflow : public std::runtime_error {
 public:
  explicit BddOverflow(std::size_t limit)
      : std::runtime_error("BDD node limit exceeded (" +
                           std::to_string(limit) + " nodes)") {}
};

/// Tuning knobs for a BddManager.
struct BddConfig {
  /// Initial node table capacity (grows on demand).
  std::size_t initial_capacity = 1u << 12;
  /// log2 of the number of computed-cache entries.
  unsigned cache_size_log2 = 16;
  /// Hard cap on live nodes plus the terminal; creating a node beyond
  /// it throws BddOverflow. SIZE_MAX disables the cap.
  std::size_t hard_node_limit = static_cast<std::size_t>(-1);
  /// Automatic garbage collection runs (at public-operation entry)
  /// once the live-node count exceeds this floor and has doubled since
  /// the previous collection.
  std::size_t auto_gc_floor = 1u << 16;
};

/// Operation counters, exposed for the micro-benchmarks, the tests and
/// the telemetry layer (obs/telemetry.h maps them to bdd.* metrics).
struct BddStats {
  std::uint64_t nodes_created = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t gc_runs = 0;
  /// Nodes freed across all gc() sweeps.
  std::uint64_t gc_reclaimed_nodes = 0;
  std::size_t peak_live_nodes = 0;
  /// Wall seconds spent inside reorder_sift / set_variable_order.
  double reorder_seconds = 0;
  /// Wall seconds spent inside gc(), including the collections that
  /// reordering runs.
  double gc_seconds = 0;
  /// High-water mark of the node table's slot count (the terminal
  /// included). gc() trims trailing dead slots, so this tracks the
  /// live-node peak instead of growing with churn.
  std::size_t peak_node_slots = 1;
};

/// RAII handle to a BDD function.
///
/// A Bdd registers itself with its manager; garbage collection keeps
/// every node reachable from a registered handle. A handle is a
/// manager pointer, a node id and two links of the manager's intrusive
/// registry list. Its special members are inline and cheap: a copy
/// links one list entry; a move hands the source's list position to
/// the target, so the registry is touched in O(1) without unlinking
/// and relinking; assignment between handles of one manager only
/// rewrites the node id. The manager must outlive all of its handles.
///
/// Boolean structure is exposed through operators:
///   `f & g`, `f | g`, `f ^ g`, `!f`, `f.xnor(g)`, `f.implies(g)`.
/// Equality (`==`) is *functional* equality — canonical OBDDs make it
/// a constant-time id comparison.
class Bdd {
 public:
  /// Null handle, not attached to any manager.
  Bdd() noexcept = default;
  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True for a default-constructed (detached) handle.
  [[nodiscard]] bool is_null() const noexcept { return mgr_ == nullptr; }
  /// True if this is the constant-false function.
  [[nodiscard]] bool is_zero() const noexcept {
    return mgr_ != nullptr && id_ == kFalseId;
  }
  /// True if this is the constant-true function.
  [[nodiscard]] bool is_one() const noexcept {
    return mgr_ != nullptr && id_ == kTrueId;
  }
  /// True if this is either constant.
  [[nodiscard]] bool is_const() const noexcept {
    return mgr_ != nullptr && id_ <= kTrueId;
  }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] BddManager* manager() const noexcept { return mgr_; }

  /// Index of the topmost (root) variable; kTerminalVar for constants.
  [[nodiscard]] VarIndex top_var() const;

  /// Cofactors with respect to the root variable. Requires !is_const().
  [[nodiscard]] Bdd high() const;  ///< root variable = 1 branch
  [[nodiscard]] Bdd low() const;   ///< root variable = 0 branch

  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator!() const;
  [[nodiscard]] Bdd xnor(const Bdd& rhs) const;
  [[nodiscard]] Bdd implies(const Bdd& rhs) const;

  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

  /// Functional equality (same manager and same canonical node).
  friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
    return a.mgr_ == b.mgr_ && a.id_ == b.id_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) noexcept {
    return !(a == b);
  }

  /// Evaluates under a complete assignment (index = variable).
  [[nodiscard]] bool eval(const std::vector<bool>& assignment) const;

  /// Number of distinct internal node slots of this function (the
  /// terminal not counted; a node reached through both edge polarities
  /// counts once).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, NodeId id) noexcept;

  void attach(BddManager* mgr, NodeId id) noexcept;
  void detach() noexcept;
  /// Takes over `other`'s manager, node and registry position, leaving
  /// `other` null. Requires this handle to be null.
  void steal(Bdd& other) noexcept;

  BddManager* mgr_ = nullptr;
  NodeId id_ = kFalseId;
  // Intrusive doubly-linked registry used by mark-and-sweep GC.
  Bdd* reg_prev_ = nullptr;
  Bdd* reg_next_ = nullptr;
};

/// Manager owning the node table, the unique table and the computed
/// cache.
///
/// THREAD-OWNERSHIP CONTRACT (relied on by core/parallel_sym_sim):
/// a BddManager and every Bdd handle attached to it are single-
/// threaded *by design* — no operation takes a lock, the handle
/// registry is an unsynchronized intrusive list, and GC walks it
/// concurrently with nothing. The rules:
///
///   1. One manager is owned by exactly one thread at a time; all
///      operations on it and on its handles (including Bdd copy/move/
///      destruction, which touch the registry) must run on that
///      thread.
///   2. Handles never cross manager boundaries; to move a function to
///      another thread's manager, rebuild it there via transfer().
///   3. Distinct managers on distinct threads never synchronize and
///      are therefore freely concurrent — the fault-sharded parallel
///      driver runs one private manager per worker chunk and merges
///      only plain (non-BDD) results.
///
/// Ownership may migrate between threads only across a happens-before
/// edge with no operations in flight (e.g. a thread-pool task finishes
/// with the manager quiescent before another task picks it up).
class BddManager {
 public:
  explicit BddManager(const BddConfig& config = {});
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- constants and variables -------------------------------------

  [[nodiscard]] Bdd zero() { return Bdd(this, kFalseId); }
  [[nodiscard]] Bdd one() { return Bdd(this, kTrueId); }
  [[nodiscard]] Bdd constant(bool b) { return b ? one() : zero(); }

  /// Projection function of variable `index`; extends the variable
  /// universe as needed.
  [[nodiscard]] Bdd var(VarIndex index);
  /// Negated projection function of variable `index`.
  [[nodiscard]] Bdd nvar(VarIndex index);

  /// Number of variables created so far.
  [[nodiscard]] VarIndex var_count() const noexcept { return num_vars_; }

  /// Ensures variables [0, count) exist.
  void ensure_vars(VarIndex count);

  // ---- variable order -------------------------------------------------

  /// Level (distance from the root, 0 = first) of a variable.
  [[nodiscard]] VarIndex level_of_var(VarIndex v) const {
    return var2level_[v];
  }
  /// Variable sitting at `level`.
  [[nodiscard]] VarIndex var_at_level(VarIndex level) const {
    return level2var_[level];
  }

  /// Swaps the variables at `level` and `level+1` in place (Rudell's
  /// adjacent exchange). Every handle keeps its NodeId and function;
  /// the computed cache stays valid because node identities denote
  /// unchanged functions. Rewritten nodes keep an uncomplemented low
  /// edge.
  void swap_adjacent_levels(VarIndex level);

  /// Imposes a full order: `order[i]` is the variable at level i (a
  /// permutation of [0, var_count())). Implemented as a sequence of
  /// adjacent swaps.
  void set_variable_order(const std::vector<VarIndex>& order);

  /// Rudell sifting: moves each variable (most populous first) to its
  /// locally best level. `max_growth` bounds intermediate blow-up as a
  /// factor of the starting size (e.g. 1.2 allows 20% growth during a
  /// single variable's sweep). Returns the live node count afterwards.
  std::size_t reorder_sift(double max_growth = 1.2);

  // ---- boolean operations ------------------------------------------

  /// Flips the complement bit: creates no node and never collects.
  [[nodiscard]] Bdd apply_not(const Bdd& f);
  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xnor(const Bdd& f, const Bdd& g);
  /// If-then-else: f ? g : h.
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// Cofactor: f with variable `v` fixed to `value`.
  [[nodiscard]] Bdd restrict_var(const Bdd& f, VarIndex v, bool value);

  /// Generalized cofactor (Coudert-Madre constrain): a function that
  /// agrees with f on every assignment satisfying c and is typically
  /// smaller than f. Requires c != 0 (throws std::invalid_argument).
  /// Key identity: constrain(f, c) & c == f & c.
  [[nodiscard]] Bdd constrain(const Bdd& f, const Bdd& c);

  /// Functional composition: f with variable `v` replaced by g.
  [[nodiscard]] Bdd compose(const Bdd& f, VarIndex v, const Bdd& g);

  /// Simultaneous variable renaming. `mapping[old] = new`; identity
  /// entries may be omitted by passing mapping.size() < var_count().
  /// The mapping must be order-preserving on the support of `f`
  /// (checked; throws std::invalid_argument otherwise) — the fast path
  /// the simulators rely on for the MOT x->y substitution.
  [[nodiscard]] Bdd rename(const Bdd& f, const std::vector<VarIndex>& mapping);

  /// Existential quantification over the given variables.
  [[nodiscard]] Bdd exists(const Bdd& f, const std::vector<VarIndex>& vars);
  /// Relational product: exists vars . (f & g), computed in one
  /// recursion without materializing the conjunction — the workhorse
  /// of symbolic image computation (core/symbolic_fsm.h).
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g,
                               const std::vector<VarIndex>& vars);
  /// Universal quantification over the given variables.
  [[nodiscard]] Bdd forall(const Bdd& f, const std::vector<VarIndex>& vars);

  // ---- analysis -----------------------------------------------------

  /// Variables the function actually depends on, ascending.
  [[nodiscard]] std::vector<VarIndex> support(const Bdd& f);

  /// Number of satisfying assignments over `nvars` variables
  /// (defaults to the whole universe).
  [[nodiscard]] double sat_count(const Bdd& f, VarIndex nvars);
  [[nodiscard]] double sat_count(const Bdd& f) {
    return sat_count(f, num_vars_);
  }

  /// One satisfying assignment (per-variable 0/1/-1 = don't-care), or
  /// nullopt for the zero function.
  [[nodiscard]] std::optional<std::vector<std::int8_t>> pick_one(
      const Bdd& f);

  /// DAG size of a single function (internal nodes only).
  [[nodiscard]] std::size_t node_count(const Bdd& f) const;
  /// Shared DAG size of a set of functions — the paper's Table IV
  /// measures this for the symbolic output sequence.
  [[nodiscard]] std::size_t node_count(std::span<const Bdd> fs) const;

  /// Live (reachable-or-not-yet-collected) internal nodes in the
  /// manager; the quantity the hybrid simulator compares against the
  /// space limit.
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_count_;
  }

  /// Current unique-table bucket count; live_node_count() divided by
  /// this is the table's load factor (telemetry reports both).
  [[nodiscard]] std::size_t unique_bucket_count() const noexcept {
    return buckets_.size();
  }

  /// Current node-table slot count, the terminal included: live nodes
  /// plus the free slots below the highest live one.
  [[nodiscard]] std::size_t node_slot_count() const noexcept {
    return nodes_.size();
  }

  /// Checks the node-table invariants: every unique-table chain entry
  /// is a used slot that hashes to its bucket, every used slot sits in
  /// exactly one chain, no chain holds two equal nodes, every used slot
  /// has an uncomplemented low edge, two distinct children and children
  /// that are used slots below it in the order, the free list
  /// holds exactly the unused slots, the used-slot count equals
  /// live_node_count(), and the handle registry is a doubly-linked list
  /// of handle_count() handles of this manager, each naming a used
  /// slot. Returns an empty string when they hold, else a description
  /// of the first violation. Linear time; for tests.
  [[nodiscard]] std::string check_invariants() const;

  /// Graphviz dump of one function, for debugging and docs.
  [[nodiscard]] std::string to_dot(const Bdd& f, const std::string& name);

  /// Rebuilds `f` (a function of THIS manager) inside `target` with an
  /// arbitrary variable mapping — including order-changing ones, which
  /// rename() rejects. Expansion happens through target.ite, so the
  /// result is canonical under the target's order. The managers may be
  /// the same object (then this is a general, slower rename).
  [[nodiscard]] static Bdd transfer(const Bdd& f, BddManager& target,
                                    const std::vector<VarIndex>& mapping);

  // ---- memory management ---------------------------------------------

  /// Mark-and-sweep collection from all registered handles. Safe to
  /// call at any quiescent point (never called implicitly during an
  /// operation's recursion). Dead slots are reused lowest id first;
  /// trailing dead slots are released, so the sweep is bounded by the
  /// highest live slot.
  void gc();

  /// Sets/clears the hard node cap (see BddConfig::hard_node_limit).
  void set_hard_node_limit(std::size_t limit) noexcept {
    hard_node_limit_ = limit;
  }
  [[nodiscard]] std::size_t hard_node_limit() const noexcept {
    return hard_node_limit_;
  }

  [[nodiscard]] const BddStats& stats() const noexcept { return stats_; }

  /// Number of currently registered handles (tests use this to verify
  /// RAII bookkeeping).
  [[nodiscard]] std::size_t handle_count() const noexcept {
    return handle_counter_;
  }

  /// Root variable of the function an edge denotes (kTerminalVar for
  /// the constants).
  [[nodiscard]] VarIndex var_of(NodeId n) const noexcept {
    return nodes_[slot_of(n)].var;
  }
  /// Cofactors of the function an edge denotes with respect to its root
  /// variable; the edge's complement bit is pushed onto both.
  [[nodiscard]] NodeId low_of(NodeId n) const noexcept {
    return nodes_[slot_of(n)].lo ^ (n & 1u);
  }
  [[nodiscard]] NodeId high_of(NodeId n) const noexcept {
    return nodes_[slot_of(n)].hi ^ (n & 1u);
  }

 private:
  friend class Bdd;

  struct Node {
    VarIndex var;
    NodeId lo;    ///< edge, never complemented
    NodeId hi;    ///< edge, possibly complemented
    NodeId next;  ///< unique-table chain / free-list link (a slot, 0 = end)
  };

  static constexpr NodeId slot_of(NodeId e) noexcept { return e >> 1; }
  static constexpr NodeId edge_of(NodeId slot) noexcept { return slot << 1; }
  static constexpr NodeId regular(NodeId e) noexcept { return e & ~1u; }

  enum class Op : std::uint8_t {
    Invalid = 0,
    And,
    Xor,
    Ite,
    Restrict0,
    Restrict1,
    Constrain,
    Compose,
    Exists,
    Forall,
  };

  /// A computed-cache entry is valid only while its epoch equals
  /// cache_epoch_; gc() bumps the epoch instead of clearing the table.
  struct CacheEntry {
    NodeId f = 0, g = 0, h = 0, result = 0;
    std::uint32_t epoch = 0;
    Op op = Op::Invalid;
  };

  // used_ flags.
  static constexpr std::uint8_t kUsed = 1;    ///< slot holds a node
  static constexpr std::uint8_t kMarked = 2;  ///< reached by gc()'s mark

  /// Level of an edge's root variable; the terminal sinks below
  /// everything.
  [[nodiscard]] VarIndex level_of(NodeId n) const {
    const VarIndex v = nodes_[slot_of(n)].var;
    return v == kTerminalVar ? kTerminalVar : var2level_[v];
  }

  /// Cofactors of edge `e` with respect to `top`, a variable not below
  /// e's root: e itself twice unless e's root is `top`.
  void cofactors(NodeId e, VarIndex top, NodeId& lo, NodeId& hi) const {
    const Node& n = nodes_[slot_of(e)];
    if (n.var != top) {
      lo = hi = e;
      return;
    }
    lo = n.lo ^ (e & 1u);
    hi = n.hi ^ (e & 1u);
  }

  // Node construction. make_node moves a complemented low edge onto the
  // returned edge; allocate_slot takes an uncomplemented low edge and
  // returns the new slot.
  NodeId make_node(VarIndex var, NodeId lo, NodeId hi);
  NodeId allocate_slot(VarIndex var, NodeId lo, NodeId hi);
  void rehash(std::size_t new_bucket_count);
  [[nodiscard]] std::size_t bucket_of(VarIndex var, NodeId lo,
                                      NodeId hi) const noexcept;

  // Computed cache.
  [[nodiscard]] bool cache_lookup(Op op, NodeId f, NodeId g, NodeId h,
                                  NodeId& out);
  void cache_insert(Op op, NodeId f, NodeId g, NodeId h, NodeId result);

  // Recursive operation kernels (no auto-GC inside).
  NodeId and_rec(NodeId f, NodeId g);
  NodeId or_rec(NodeId f, NodeId g) { return and_rec(f ^ 1u, g ^ 1u) ^ 1u; }
  NodeId xor_rec(NodeId f, NodeId g);
  NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  NodeId restrict_rec(NodeId f, VarIndex v, bool value);
  NodeId constrain_rec(NodeId f, NodeId c);
  NodeId compose_rec(NodeId f, VarIndex v, NodeId g);
  NodeId quant_rec(NodeId f, const std::vector<VarIndex>& vars,
                   std::size_t idx, bool existential,
                   std::unordered_map<NodeId, NodeId>& memo);
  NodeId and_exists_rec(NodeId f, NodeId g,
                        const std::vector<VarIndex>& vars, std::size_t idx,
                        std::unordered_map<std::uint64_t, NodeId>& memo);

  // Registry management (called by Bdd; defined below).
  void register_handle(Bdd* h) noexcept;
  void unregister_handle(Bdd* h) noexcept;

  void maybe_auto_gc();
  void mark_reachable(NodeId root);

  // Node storage, indexed by slot.
  std::vector<Node> nodes_;
  std::vector<std::uint8_t> used_;  ///< per-slot kUsed / kMarked flags
  std::vector<NodeId> buckets_;     ///< unique table of slots (power of two)
  NodeId free_head_ = 0;            ///< head of free-slot list (0 = none)
  std::size_t live_count_ = 0;
  VarIndex num_vars_ = 0;
  std::vector<VarIndex> var2level_;
  std::vector<VarIndex> level2var_;

  // Computed cache.
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  std::uint32_t cache_epoch_ = 1;  ///< 0 marks never-written entries

  std::vector<NodeId> gc_stack_;  ///< mark DFS stack of slots, reused

  // Handle registry.
  Bdd* handles_head_ = nullptr;
  std::size_t handle_counter_ = 0;

  // Policy.
  std::size_t hard_node_limit_;
  std::size_t auto_gc_floor_;
  std::size_t next_gc_at_;

  BddStats stats_;
};

// ---- inline handle and registry operations ------------------------------

inline void BddManager::register_handle(Bdd* h) noexcept {
  h->reg_prev_ = nullptr;
  h->reg_next_ = handles_head_;
  if (handles_head_ != nullptr) handles_head_->reg_prev_ = h;
  handles_head_ = h;
  ++handle_counter_;
}

inline void BddManager::unregister_handle(Bdd* h) noexcept {
  if (h->reg_prev_ != nullptr) {
    h->reg_prev_->reg_next_ = h->reg_next_;
  } else {
    handles_head_ = h->reg_next_;
  }
  if (h->reg_next_ != nullptr) h->reg_next_->reg_prev_ = h->reg_prev_;
  h->reg_prev_ = h->reg_next_ = nullptr;
  --handle_counter_;
}

inline void Bdd::attach(BddManager* mgr, NodeId id) noexcept {
  mgr_ = mgr;
  id_ = id;
  if (mgr_ != nullptr) mgr_->register_handle(this);
}

inline void Bdd::detach() noexcept {
  if (mgr_ != nullptr) {
    mgr_->unregister_handle(this);
    mgr_ = nullptr;
    id_ = kFalseId;
  }
}

inline void Bdd::steal(Bdd& other) noexcept {
  mgr_ = other.mgr_;
  id_ = other.id_;
  if (mgr_ == nullptr) return;
  reg_prev_ = other.reg_prev_;
  reg_next_ = other.reg_next_;
  if (reg_prev_ != nullptr) {
    reg_prev_->reg_next_ = this;
  } else {
    mgr_->handles_head_ = this;
  }
  if (reg_next_ != nullptr) reg_next_->reg_prev_ = this;
  other.mgr_ = nullptr;
  other.id_ = kFalseId;
  other.reg_prev_ = other.reg_next_ = nullptr;
}

inline Bdd::Bdd(BddManager* mgr, NodeId id) noexcept { attach(mgr, id); }

inline Bdd::Bdd(const Bdd& other) noexcept { attach(other.mgr_, other.id_); }

inline Bdd::Bdd(Bdd&& other) noexcept { steal(other); }

inline Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (mgr_ == other.mgr_) {
    id_ = other.id_;  // also covers self-assignment
  } else {
    detach();
    attach(other.mgr_, other.id_);
  }
  return *this;
}

inline Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr && mgr_ == other.mgr_) {
    id_ = other.id_;
    other.detach();
  } else {
    detach();
    steal(other);
  }
  return *this;
}

inline Bdd::~Bdd() { detach(); }

}  // namespace motsim::bdd

#endif  // MOTSIM_BDD_BDD_H
