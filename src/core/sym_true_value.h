#ifndef MOTSIM_CORE_SYM_TRUE_VALUE_H
#define MOTSIM_CORE_SYM_TRUE_VALUE_H

#include <vector>

#include "analysis/static_xred.h"
#include "bdd/bdd.h"
#include "circuit/netlist.h"
#include "logic/val3.h"

namespace motsim {

/// Placement of the x (fault-free) and y (faulty) initial-state
/// variables in the OBDD order.
enum class VarLayout : unsigned char {
  /// x_0, y_0, x_1, y_1, ... — the paper's choice. The MOT detection
  /// function is a conjunction of [o(x) == o(y)] terms; with the two
  /// copies interleaved these near-equality relations stay linear in
  /// the number of memory elements.
  Interleaved,
  /// x_0..x_{m-1}, y_0..y_{m-1}. Same API, same results, but the
  /// equality-like structure of D(x,y) can blow up exponentially —
  /// measured by bench/ablation_var_order.
  Blocked,
};

/// Variable plan for symbolic simulation.
///
/// Each memory element i gets two BDD variables: x_i encodes the
/// unknown initial state of the fault-free machine, y_i the unknown
/// initial state of the faulty machine (used by the full MOT
/// strategy). Under either layout the substitution x_i -> y_i is
/// order-preserving, so BddManager::rename's linear fast path applies;
/// the layouts differ (dramatically) in the size of the MOT detection
/// functions.
class StateVars {
 public:
  explicit StateVars(std::size_t dff_count,
                     VarLayout layout = VarLayout::Interleaved)
      : m_(dff_count), layout_(layout) {}

  [[nodiscard]] std::size_t dff_count() const noexcept { return m_; }
  [[nodiscard]] VarLayout layout() const noexcept { return layout_; }

  /// BDD variable index of x_i / y_i.
  [[nodiscard]] bdd::VarIndex x(std::size_t i) const {
    return static_cast<bdd::VarIndex>(
        layout_ == VarLayout::Interleaved ? 2 * i : i);
  }
  [[nodiscard]] bdd::VarIndex y(std::size_t i) const {
    return static_cast<bdd::VarIndex>(
        layout_ == VarLayout::Interleaved ? 2 * i + 1 : m_ + i);
  }

  /// Total number of variables used by the plan.
  [[nodiscard]] bdd::VarIndex var_count() const {
    return static_cast<bdd::VarIndex>(2 * m_);
  }

  /// Order-preserving mapping sending every x_i to y_i (identity on
  /// the y variables), for BddManager::rename.
  [[nodiscard]] std::vector<bdd::VarIndex> x_to_y_mapping() const;

  /// All x variables / all y variables, ascending.
  [[nodiscard]] std::vector<bdd::VarIndex> x_vars() const;
  [[nodiscard]] std::vector<bdd::VarIndex> y_vars() const;

 private:
  std::size_t m_;
  VarLayout layout_ = VarLayout::Interleaved;
};

/// Evaluates one combinational gate over BDD operands.
/// `get(i)` must return the i-th operand.
template <typename Getter>
[[nodiscard]] bdd::Bdd eval_gate_sym(bdd::BddManager& mgr, GateType type,
                                     std::size_t arity, Getter get) {
  using bdd::Bdd;
  switch (type) {
    case GateType::Const0:
      return mgr.zero();
    case GateType::Const1:
      return mgr.one();
    case GateType::Buf:
      return get(0);
    case GateType::Not:
      return !get(0);
    // The accumulations start from operand 0. Applying the identity
    // constant first would create no node, and since a finalized
    // netlist gives these gates at least two fanins, the auto-GC check
    // it would add sees the live set of the next apply's check.
    case GateType::And:
    case GateType::Nand: {
      Bdd acc = get(0);
      for (std::size_t i = 1; i < arity && !acc.is_zero(); ++i) {
        acc &= get(i);
      }
      return type == GateType::Nand ? !acc : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      Bdd acc = get(0);
      for (std::size_t i = 1; i < arity && !acc.is_one(); ++i) {
        acc |= get(i);
      }
      return type == GateType::Nor ? !acc : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Bdd acc = get(0);
      for (std::size_t i = 1; i < arity; ++i) acc ^= get(i);
      return type == GateType::Xnor ? !acc : acc;
    }
    default:
      throw std::logic_error("eval_gate_sym: not a combinational gate");
  }
}

/// Symbolic true-value (fault-free) simulator.
///
/// The present state starts fully symbolic (flip-flop i carries the
/// projection of x_i); each step() applies one *binary* input vector
/// and evaluates the combinational network over OBDDs, yielding every
/// lead's value as a function of the unknown initial state — the
/// "symbolic true value simulation" of Section IV.A.
class SymTrueValueSim {
 public:
  /// The manager must outlive the simulator. `vars` supplies the
  /// variable plan (use the same plan for the fault simulator).
  SymTrueValueSim(const Netlist& netlist, bdd::BddManager& mgr,
                  const StateVars& vars);

  /// Resets the present state to fully symbolic (bit i = x_i).
  void reset_symbolic();

  /// Overrides the present state with arbitrary functions (one per
  /// flip-flop). Used by the hybrid simulator when re-entering the
  /// symbolic mode after a three-valued window.
  void set_state(std::vector<bdd::Bdd> state);

  /// Three-valued view of the present state: constants map to 0/1,
  /// anything symbolic to X. Used when *leaving* symbolic mode.
  [[nodiscard]] std::vector<Val3> state_as_val3() const;

  /// Releases every held function (state and per-node values) so a
  /// garbage collection can reclaim the nodes; call set_state or
  /// reset_symbolic before the next step().
  void release();

  /// Ties provably-constant internal nets: a tied node's value is set
  /// to the constant OBDD instead of being evaluated. Sound only for
  /// every-frame constants (ImplicationEngine::tied_constants); by OBDD
  /// canonicity the evaluated function of such a net IS that constant,
  /// so tying changes no function — it only skips building and
  /// discarding the intermediate apply() results. Frame-input entries
  /// must be Unknown; pass an empty vector to untie. Throws
  /// std::invalid_argument on a size mismatch.
  void set_tied_constants(std::vector<ConstVal> tied);

  /// Applies one input vector (binary values only; X throws
  /// std::invalid_argument) and returns the output functions.
  std::vector<bdd::Bdd> step(const std::vector<Val3>& inputs);

  /// Per-node functions of the most recent frame.
  [[nodiscard]] const std::vector<bdd::Bdd>& values() const noexcept {
    return values_;
  }
  /// Present-state functions (after the last step's latch).
  [[nodiscard]] const std::vector<bdd::Bdd>& state() const noexcept {
    return state_;
  }
  /// Output functions of the most recent frame.
  [[nodiscard]] std::vector<bdd::Bdd> outputs() const;

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }
  [[nodiscard]] bdd::BddManager& manager() const noexcept { return *mgr_; }
  [[nodiscard]] const StateVars& vars() const noexcept { return vars_; }

 private:
  const Netlist* netlist_;
  bdd::BddManager* mgr_;
  StateVars vars_;
  std::vector<bdd::Bdd> values_;
  std::vector<bdd::Bdd> state_;
  std::vector<ConstVal> tied_;  ///< empty = nothing tied
};

}  // namespace motsim

#endif  // MOTSIM_CORE_SYM_TRUE_VALUE_H
