// Boolean operation kernels of the OBDD package: AND / XOR / ITE /
// cofactor, over complemented edges. NOT flips an edge's low bit and OR
// is De Morgan over AND, so neither has a recursion of its own. Each
// kernel is a classic depth-first recursion with terminal-case
// short-circuits and memoization through the manager's computed cache.
// Automatic garbage collection runs only at the public entry points —
// never inside a recursion, where intermediate NodeIds live solely on
// the call stack.

#include <algorithm>
#include <cassert>

#include "bdd/bdd.h"

namespace motsim::bdd {

namespace {
/// Orders a commutative operand pair canonically so (f,g) and (g,f)
/// share one cache entry.
inline void canonicalize(NodeId& f, NodeId& g) {
  if (f > g) std::swap(f, g);
}
}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

Bdd BddManager::apply_not(const Bdd& f) {
  assert(f.manager() == this);
  return Bdd(this, f.id() ^ 1u);
}

Bdd BddManager::apply_and(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return Bdd(this, and_rec(f.id(), g.id()));
}

Bdd BddManager::apply_or(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return Bdd(this, or_rec(f.id(), g.id()));
}

Bdd BddManager::apply_xor(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return Bdd(this, xor_rec(f.id(), g.id()));
}

Bdd BddManager::apply_xnor(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return Bdd(this, xor_rec(f.id(), g.id()) ^ 1u);
}

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  assert(f.manager() == this && g.manager() == this && h.manager() == this);
  maybe_auto_gc();
  return Bdd(this, ite_rec(f.id(), g.id(), h.id()));
}

Bdd BddManager::restrict_var(const Bdd& f, VarIndex v, bool value) {
  assert(f.manager() == this);
  ensure_vars(v + 1);  // the level lookup below must stay in bounds
  maybe_auto_gc();
  return Bdd(this, restrict_rec(f.id(), v, value));
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

NodeId BddManager::and_rec(NodeId f, NodeId g) {
  if (f == g) return f;
  if (f == (g ^ 1u) || f == kFalseId || g == kFalseId) return kFalseId;
  if (f == kTrueId) return g;
  if (g == kTrueId) return f;
  canonicalize(f, g);

  NodeId cached;
  if (cache_lookup(Op::And, f, g, 0, cached)) return cached;

  const VarIndex top = level2var_[std::min(level_of(f), level_of(g))];
  NodeId f0, f1, g0, g1;
  cofactors(f, top, f0, f1);
  cofactors(g, top, g0, g1);

  const NodeId lo = and_rec(f0, g0);
  const NodeId hi = and_rec(f1, g1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::And, f, g, 0, result);
  return result;
}

NodeId BddManager::xor_rec(NodeId f, NodeId g) {
  if (f == g) return kFalseId;
  if (f == (g ^ 1u)) return kTrueId;
  if (f <= kTrueId) return g ^ f;  // 0 ^ g == g, 1 ^ g == !g
  if (g <= kTrueId) return f ^ g;
  // Negation commutes out of XOR: compute on the plain pair.
  const NodeId c = (f ^ g) & 1u;
  f = regular(f);
  g = regular(g);
  canonicalize(f, g);

  NodeId cached;
  if (cache_lookup(Op::Xor, f, g, 0, cached)) return cached ^ c;

  const VarIndex top = level2var_[std::min(level_of(f), level_of(g))];
  NodeId f0, f1, g0, g1;
  cofactors(f, top, f0, f1);
  cofactors(g, top, g0, g1);

  const NodeId lo = xor_rec(f0, g0);
  const NodeId hi = xor_rec(f1, g1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::Xor, f, g, 0, result);
  return result ^ c;
}

NodeId BddManager::ite_rec(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrueId) return g;
  if (f == kFalseId) return h;
  // An operand equal to f or !f is a constant under f's branches.
  if (g == f) {
    g = kTrueId;
  } else if (g == (f ^ 1u)) {
    g = kFalseId;
  }
  if (h == f) {
    h = kFalseId;
  } else if (h == (f ^ 1u)) {
    h = kTrueId;
  }
  if (g == h) return g;
  if (g == kTrueId && h == kFalseId) return f;
  if (g == kFalseId && h == kTrueId) return f ^ 1u;
  // Two-operand forms share the AND and XOR caches.
  if (g == kTrueId) return or_rec(f, h);
  if (g == kFalseId) return and_rec(f ^ 1u, h);
  if (h == kFalseId) return and_rec(f, g);
  if (h == kTrueId) return or_rec(f ^ 1u, g);
  if (g == (h ^ 1u)) return xor_rec(f, h);

  // Normal form: a plain f (ite(!f, g, h) == ite(f, h, g)) and a plain
  // g (ite(f, !g, !h) == !ite(f, g, h)).
  if (f & 1u) {
    f ^= 1u;
    std::swap(g, h);
  }
  const NodeId c = g & 1u;
  g ^= c;
  h ^= c;

  NodeId cached;
  if (cache_lookup(Op::Ite, f, g, h, cached)) return cached ^ c;

  const VarIndex top =
      level2var_[std::min(level_of(f), std::min(level_of(g), level_of(h)))];
  NodeId f0, f1, g0, g1, h0, h1;
  cofactors(f, top, f0, f1);
  cofactors(g, top, g0, g1);
  cofactors(h, top, h0, h1);

  const NodeId lo = ite_rec(f0, g0, h0);
  const NodeId hi = ite_rec(f1, g1, h1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::Ite, f, g, h, result);
  return result ^ c;
}

NodeId BddManager::restrict_rec(NodeId f, VarIndex v, bool value) {
  if (f <= kTrueId) return f;
  // Cofactoring commutes with negation: compute on the plain edge.
  const NodeId c = f & 1u;
  f ^= c;
  // Copied (not referenced): the recursion below can reallocate the
  // node table.
  const Node n = nodes_[slot_of(f)];
  if (var2level_[n.var] > var2level_[v]) return f ^ c;  // f is below v
  if (n.var == v) return (value ? n.hi : n.lo) ^ c;

  const Op op = value ? Op::Restrict1 : Op::Restrict0;
  NodeId cached;
  if (cache_lookup(op, f, v, 0, cached)) return cached ^ c;

  const NodeId lo = restrict_rec(n.lo, v, value);
  const NodeId hi = restrict_rec(n.hi, v, value);
  const NodeId result = make_node(n.var, lo, hi);
  cache_insert(op, f, v, 0, result);
  return result ^ c;
}

}  // namespace motsim::bdd

namespace motsim::bdd {

Bdd BddManager::constrain(const Bdd& f, const Bdd& c) {
  assert(f.manager() == this && c.manager() == this);
  if (c.is_zero()) {
    throw std::invalid_argument("constrain: care set must be non-empty");
  }
  maybe_auto_gc();
  return Bdd(this, constrain_rec(f.id(), c.id()));
}

NodeId BddManager::constrain_rec(NodeId f, NodeId c) {
  // Coudert-Madre generalized cofactor. Precondition: c != 0.
  if (c == kTrueId || f <= kTrueId) return f;
  if (f == c) return kTrueId;
  if (f == (c ^ 1u)) return kFalseId;
  // constrain(!f, c) == !constrain(f, c): compute on the plain f. The
  // care set keeps its polarity.
  const NodeId neg = f & 1u;
  f ^= neg;

  NodeId cached;
  if (cache_lookup(Op::Constrain, f, c, 0, cached)) return cached ^ neg;

  const VarIndex top = level2var_[std::min(level_of(f), level_of(c))];
  NodeId f0, f1, c0, c1;
  cofactors(f, top, f0, f1);
  cofactors(c, top, c0, c1);

  NodeId result;
  if (c0 == kFalseId) {
    // The care set forces top = 1: project onto that branch.
    result = constrain_rec(f1, c1);
  } else if (c1 == kFalseId) {
    result = constrain_rec(f0, c0);
  } else {
    const NodeId lo = constrain_rec(f0, c0);
    const NodeId hi = constrain_rec(f1, c1);
    result = make_node(top, lo, hi);
  }
  cache_insert(Op::Constrain, f, c, 0, result);
  return result ^ neg;
}

}  // namespace motsim::bdd
