// Structural analysis of BDDs: support, satisfying-assignment count,
// witness extraction, DAG size and Graphviz export.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.h"

namespace motsim::bdd {

bool Bdd::eval(const std::vector<bool>& assignment) const {
  assert(mgr_ != nullptr);
  NodeId n = id_;
  while (n > kTrueId) {
    const VarIndex v = mgr_->var_of(n);
    const bool bit = v < assignment.size() ? assignment[v] : false;
    n = bit ? mgr_->high_of(n) : mgr_->low_of(n);
  }
  return n == kTrueId;
}

std::vector<VarIndex> BddManager::support(const Bdd& f) {
  assert(f.manager() == this);
  std::unordered_set<NodeId> seen;
  std::vector<std::uint8_t> in_support(num_vars_, 0);
  std::vector<NodeId> stack{slot_of(f.id())};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (n == 0 || !seen.insert(n).second) continue;
    in_support[nodes_[n].var] = 1;
    stack.push_back(slot_of(nodes_[n].lo));
    stack.push_back(slot_of(nodes_[n].hi));
  }
  std::vector<VarIndex> out;
  for (VarIndex v = 0; v < num_vars_; ++v) {
    if (in_support[v]) out.push_back(v);
  }
  return out;
}

double BddManager::sat_count(const Bdd& f, VarIndex nvars) {
  assert(f.manager() == this);
  // density(e) = satisfying fraction of the full cube below e's root,
  // memoized per slot; a complemented edge denotes 1 - density.
  std::unordered_map<NodeId, double> density;
  auto rec = [&](auto&& self, NodeId e) -> double {
    if (e <= kTrueId) return e == kTrueId ? 1.0 : 0.0;
    const NodeId n = slot_of(e);
    double d;
    if (auto it = density.find(n); it != density.end()) {
      d = it->second;
    } else {
      const Node& node = nodes_[n];
      d = 0.5 * (self(self, node.lo) + self(self, node.hi));
      density.emplace(n, d);
    }
    return (e & 1u) != 0 ? 1.0 - d : d;
  };
  return rec(rec, f.id()) * std::pow(2.0, static_cast<double>(nvars));
}

std::optional<std::vector<std::int8_t>> BddManager::pick_one(const Bdd& f) {
  assert(f.manager() == this);
  if (f.id() == kFalseId) return std::nullopt;
  // Every non-constant edge is satisfiable, so the walk never
  // backtracks: take the high branch unless it is constant false.
  std::vector<std::int8_t> assignment(num_vars_, -1);
  NodeId n = f.id();
  while (n > kTrueId) {
    const VarIndex v = var_of(n);
    const NodeId hi = high_of(n);
    if (hi != kFalseId) {
      assignment[v] = 1;
      n = hi;
    } else {
      assignment[v] = 0;
      n = low_of(n);
    }
  }
  return assignment;
}

std::size_t BddManager::node_count(const Bdd& f) const {
  const Bdd fs[] = {f};
  return node_count(std::span<const Bdd>(fs));
}

std::size_t BddManager::node_count(std::span<const Bdd> fs) const {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> stack;
  for (const Bdd& f : fs) {
    if (!f.is_null()) stack.push_back(slot_of(f.id()));
  }
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (n == 0 || !seen.insert(n).second) continue;
    ++count;
    stack.push_back(slot_of(nodes_[n].lo));
    stack.push_back(slot_of(nodes_[n].hi));
  }
  return count;
}

std::string BddManager::to_dot(const Bdd& f, const std::string& name) {
  assert(f.manager() == this);
  // One box for the terminal (constant 0). Low edges are dashed and
  // never complemented; a complemented high or root edge is drawn with
  // an open-dot arrowhead. The root edge enters from a point node.
  auto style = [](NodeId e) {
    return (e & 1u) != 0 ? " [arrowhead=odot]" : "";
  };
  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n";
  os << "  rankdir=TB;\n";
  os << "  root [shape=point];\n";
  os << "  node0 [label=\"0\", shape=box];\n";
  os << "  root -> node" << slot_of(f.id()) << style(f.id()) << ";\n";
  std::unordered_set<NodeId> seen{0};
  std::vector<NodeId> stack{slot_of(f.id())};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    const Node& node = nodes_[n];
    os << "  node" << n << " [label=\"x" << node.var
       << "\", shape=circle];\n";
    os << "  node" << n << " -> node" << slot_of(node.lo)
       << " [style=dashed];\n";
    os << "  node" << n << " -> node" << slot_of(node.hi) << style(node.hi)
       << ";\n";
    stack.push_back(slot_of(node.lo));
    stack.push_back(slot_of(node.hi));
  }
  os << "}\n";
  return os.str();
}

}  // namespace motsim::bdd
