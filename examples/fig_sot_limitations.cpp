// The SOT limitations of the paper's Figs. 1 and 2.
//
// Fig. 1: with an unknown initial state the single-observation-time
// strategy demands one (output, time) point where the fault-free
// response is a constant b and the faulty response the constant !b.
// Output functions that stay state-dependent make that impossible even
// when the machines are clearly different.
//
// Fig. 2: initializing the *fault-free* machine does not help — the
// faulty machine may simply refuse to initialize (here: the
// synchronizing input is the faulty lead itself).

#include <cstdio>

#include "core/hybrid_sim.h"
#include "core/sym_true_value.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"

using namespace motsim;

namespace {

/// Fig. 2 machine: next s = AND(i1, s)  (i1 = 0 clears the state),
/// o = XNOR(i2, s). The fault pins the AND's i1-pin to 1, so the
/// faulty machine never clears.
Netlist build_fig2(Fault& fault_out) {
  Netlist nl("fig2");
  const NodeIndex i1 = nl.add_input("i1");
  const NodeIndex i2 = nl.add_input("i2");
  const NodeIndex s = nl.add_dff(kNoNode, "s");
  const NodeIndex d = nl.add_gate(GateType::And, {i1, s}, "d");
  nl.set_fanins(s, {d});
  const NodeIndex ni2 = nl.add_gate(GateType::Not, {i2}, "ni2");
  const NodeIndex ns = nl.add_gate(GateType::Not, {s}, "ns");
  const NodeIndex a1 = nl.add_gate(GateType::And, {i2, s}, "a1");
  const NodeIndex a2 = nl.add_gate(GateType::And, {ni2, ns}, "a2");
  const NodeIndex o = nl.add_gate(GateType::Or, {a1, a2}, "o");
  nl.mark_output(o);
  nl.finalize();
  fault_out = Fault{FaultSite{d, 0}, true};
  return nl;
}

void run_all(const Netlist& nl, const Fault& fault, const TestSequence& seq,
             const char* label) {
  std::printf("%s\n", label);
  const std::vector<Fault> faults{fault};
  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim sim(
        nl, faults, HybridConfig{.strategy = s, .node_limit = kNoNodeLimit});
    const auto r = sim.run(seq);
    std::printf("  %-4s: %s\n", to_cstring(s),
                r.detected_count == 1 ? "DETECTED" : "not detected");
  }
}

}  // namespace

int main() {
  // ---- Fig. 1: plain SOT blindness --------------------------------------
  // The Fig. 3 machine under the sequence of Fig. 1 ((1,0), (1,0)):
  // the stuck-at-0 on i2 matches the applied value, the responses of
  // the two machines coincide as functions of the initial state — no
  // strategy detects it, and SOT is structurally blind because no
  // output is ever constant.
  {
    Netlist nl("fig1");
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
    const Fault fault{FaultSite{i2, kStemPin}, false};

    run_all(nl, fault, sequence_from_strings({"10", "10"}),
            "Fig. 1 — sequence (1,0),(1,0): SOT blind (every strategy "
            "fails here)");
    run_all(nl, fault, sequence_from_strings({"11", "10"}),
            "      — the Fig. 3 sequence (1,1),(1,0) fixes it for MOT:");
  }

  // ---- Fig. 2: initialization does not save SOT --------------------------
  {
    Fault fault;
    const Netlist nl = build_fig2(fault);
    const TestSequence seq = sequence_from_strings({"01", "01"});

    // Show that the fault-free machine does synchronize.
    bdd::BddManager mgr;
    SymTrueValueSim good(nl, mgr, StateVars(1));
    good.step(seq[0]);
    std::printf(
        "\nFig. 2 — after vector (i1 i2) = 01 the fault-free state is "
        "'%c' (initialized),\n",
        to_char(good.state_as_val3()[0]));
    std::printf(
        "         but the faulty machine keeps its unknown state "
        "(i1-pin stuck-at-1):\n");
    run_all(nl, fault, seq,
            "         undetectable under every strategy — Definition 2 "
            "genuinely fails:");
  }

  return 0;
}
