#include "store/fingerprint.h"

#include <cstdio>

namespace motsim {

void Fnv1a64::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Fnv1a64::update(const std::string& s) noexcept {
  // Length prefix keeps concatenated strings unambiguous ("ab","c" vs
  // "a","bc").
  update_u64(s.size());
  update(s.data(), s.size());
}

void Fnv1a64::update_u64(std::uint64_t v) noexcept {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  update(bytes, 8);
}

std::uint64_t fingerprint_netlist(const Netlist& netlist) {
  Fnv1a64 h;
  h.update(netlist.name());
  h.update_u64(netlist.node_count());
  for (NodeIndex n = 0; n < netlist.node_count(); ++n) {
    const Gate& g = netlist.gate(n);
    h.update_u64(static_cast<std::uint64_t>(g.type));
    h.update(g.name);
    h.update_u64(g.fanins.size());
    for (NodeIndex f : g.fanins) h.update_u64(f);
  }
  h.update_u64(netlist.inputs().size());
  for (NodeIndex n : netlist.inputs()) h.update_u64(n);
  h.update_u64(netlist.outputs().size());
  for (NodeIndex n : netlist.outputs()) h.update_u64(n);
  h.update_u64(netlist.dffs().size());
  for (NodeIndex n : netlist.dffs()) h.update_u64(n);
  return h.digest();
}

std::uint64_t fingerprint_faults(const std::vector<Fault>& faults) {
  Fnv1a64 h;
  h.update_u64(faults.size());
  for (const Fault& f : faults) {
    h.update_u64(f.site.node);
    h.update_u64(f.site.pin);
    h.update_u64(f.stuck_value ? 1 : 0);
  }
  return h.digest();
}

std::uint64_t fingerprint_options(const SimOptions& options) {
  // Enumerates configuration fields explicitly: observer fields
  // (options.telemetry, like the seed-independent threads count) are
  // deliberately NOT hashed — attaching telemetry must never change a
  // store's identity or block a resume.
  Fnv1a64 h;
  // Fingerprint schema version. Analysis-on runs moved to version 3
  // when the implication engine joined stage 0 (it can add
  // StaticUntestable INIT records an older reader would reject), so
  // only analysis-on stores were invalidated; analysis-off stores
  // hash exactly as before. Symbolic runs moved up by 2 (to 4 and 5)
  // when the BDD package switched to complement edges: node counts
  // decide where fallback windows open, so a store written with the
  // plain-node package would resume with other verdicts. X01-only
  // runs hash exactly as before.
  h.update_u64((options.analysis ? 3 : 2) + (options.run_symbolic ? 2 : 0));
  h.update_u64(options.analysis ? 1 : 0);
  h.update_u64(options.run_xred ? 1 : 0);
  // The sim3 backend is excluded by contract — both backends are
  // bit-identical, so a store written under one must validate (and
  // resume) under the other. The constant keeps the slot the retired
  // parallel_sim3 flag occupied, so existing fingerprints stay valid.
  h.update_u64(0);
  // options.trim is excluded for the same reason: trimming is
  // bit-identical by construction, so a store written trimmed must
  // validate (and resume) untrimmed and vice versa. The manifest still
  // records the flag (opt_trim) because the parallel shard PARTITION —
  // not the results — depends on the cluster reorder it enables.
  // options.sgraph is excluded on the identical argument (the MOT/rMOT
  // downgrade is bit-identical by OBDD canonicity); the manifest
  // records opt_sgraph because the partition also folds the horizon
  // ordering in.
  h.update_u64(options.run_symbolic ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(options.strategy));
  h.update_u64(static_cast<std::uint64_t>(options.layout));
  h.update_u64(options.node_limit);
  h.update_u64(options.fallback_frames);
  h.update_u64(options.hard_limit_factor);
  h.update_u64(options.checkpoint_interval);
  h.update_u64(options.chunk_size);
  h.update_u64(options.bdd_initial_capacity);
  h.update_u64(options.bdd_cache_size_log2);
  h.update_u64(options.bdd_auto_gc_floor);
  return h.digest();
}

std::uint64_t fingerprint_sequence(const TestSequence& sequence) {
  Fnv1a64 h;
  h.update_u64(sequence.size());
  for (const auto& frame : sequence) {
    h.update_u64(frame.size());
    for (Val3 v : frame) h.update_u64(static_cast<std::uint64_t>(v));
  }
  return h.digest();
}

std::string fingerprint_to_hex(std::uint64_t fp) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buffer, 16);
}

}  // namespace motsim
