// Reproduction of the paper's Fig. 3 example (Section IV):
//
//   A one-flip-flop machine where a stuck-at-0 fault on the second
//   primary input is invisible to the SOT strategy — the output is
//   never a constant — but the MOT detection function
//
//       D(x,y) = [o(x,1) == o^f(y,1)] * [o(x,2) == o^f(y,2)]
//              = [x == !y] * [x == y]
//              = 0
//
//   vanishes, so every pair of initial states is distinguished and the
//   fault is detected (Lemma 1).
//
// The program builds the circuit, prints the symbolic output functions
// of both machines frame by frame, and runs all three strategies.

#include <cstdio>

#include "core/hybrid_sim.h"
#include "core/sym_true_value.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"

using namespace motsim;

namespace {

/// o = XNOR(i2, s); next s = XOR(i1, s); built from AND/OR/NOT gates.
Netlist build_fig3(Fault& fault_out) {
  Netlist nl("fig3");
  const NodeIndex i1 = nl.add_input("i1");
  const NodeIndex i2 = nl.add_input("i2");
  const NodeIndex s = nl.add_dff(kNoNode, "s");
  const NodeIndex ni2 = nl.add_gate(GateType::Not, {i2}, "ni2");
  const NodeIndex ns = nl.add_gate(GateType::Not, {s}, "ns");
  const NodeIndex a1 = nl.add_gate(GateType::And, {i2, s}, "a1");
  const NodeIndex a2 = nl.add_gate(GateType::And, {ni2, ns}, "a2");
  const NodeIndex o = nl.add_gate(GateType::Or, {a1, a2}, "o");
  const NodeIndex ni1 = nl.add_gate(GateType::Not, {i1}, "ni1");
  const NodeIndex b1 = nl.add_gate(GateType::And, {i1, ns}, "b1");
  const NodeIndex b2 = nl.add_gate(GateType::And, {ni1, s}, "b2");
  const NodeIndex d = nl.add_gate(GateType::Or, {b1, b2}, "d");
  nl.set_fanins(s, {d});
  nl.mark_output(o);
  nl.finalize();
  fault_out = Fault{FaultSite{i2, kStemPin}, false};  // i2 stuck-at-0
  return nl;
}

const char* describe(const bdd::Bdd& f, const bdd::Bdd& x,
                     const bdd::Bdd& nx) {
  if (f.is_zero()) return "0";
  if (f.is_one()) return "1";
  if (f == x) return "x";
  if (f == nx) return "!x";
  return "<other>";
}

}  // namespace

int main() {
  Fault fault;
  const Netlist nl = build_fig3(fault);
  const TestSequence seq = sequence_from_strings({"11", "10"});

  std::printf("Fig. 3 circuit: o = XNOR(i2, s), next(s) = XOR(i1, s)\n");
  std::printf("fault: %s, test sequence: (i1 i2) = 11, 10\n\n",
              fault_name(nl, fault).c_str());

  // Symbolic fault-free outputs o(x, t).
  bdd::BddManager mgr;
  const StateVars vars(1);
  SymTrueValueSim good(nl, mgr, vars);
  const bdd::Bdd x = mgr.var(vars.x(0));
  const bdd::Bdd nx = !x;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const auto outs = good.step(seq[t]);
    std::printf("o(x,%zu)  = %s\n", t + 1, describe(outs[0], x, nx));
  }

  // Concrete faulty responses for both initial states show o^f(y,1) =
  // !y and o^f(y,2) = y.
  const auto seq2 = to_bool_sequence(seq);
  for (bool y : {false, true}) {
    Sim2 faulty(nl, fault);
    const auto resp = faulty.run({y}, seq2);
    std::printf("o^f(y=%d) = (%d, %d)\n", y ? 1 : 0, resp[0][0] ? 1 : 0,
                resp[1][0] ? 1 : 0);
  }

  std::printf("\nD(x,y) = [x == !y] * [x == y] == 0  =>  MOT detects.\n\n");

  const std::vector<Fault> faults{fault};
  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim sim(
        nl, faults, HybridConfig{.strategy = s, .node_limit = kNoNodeLimit});
    const auto r = sim.run(seq);
    std::printf("%-4s: %s\n", to_cstring(s),
                r.detected_count == 1 ? "DETECTED" : "not detected");
  }
  return 0;
}
