#ifndef MOTSIM_CORE_PARALLEL_SYM_SIM_H
#define MOTSIM_CORE_PARALLEL_SYM_SIM_H

#include <cstddef>
#include <vector>

#include "core/checkpoint.h"
#include "core/hybrid_sim.h"
#include "logic/val3.h"

namespace motsim {

/// Default shard size of the parallel driver: small enough to load-
/// balance a handful of workers on a ~1k-fault list, large enough that
/// the per-shard fixed cost (BDD manager + symbolic true-value
/// simulation of the whole sequence) stays amortized.
inline constexpr std::size_t kDefaultChunkSize = 64;

/// Fault-sharded run of a configured engine (docs/PARALLEL.md).
///
/// Each faulty machine's D̃ evolves independently, so this driver cuts
/// the engine's live faults into chunks of `chunk_size` (0 =
/// kDefaultChunkSize), runs one HybridFaultSim per chunk with its own
/// private bdd::BddManager, and lets `threads` workers (0 = one per
/// hardware thread) drain the chunks. Every shard takes the engine's
/// configuration, initial statuses, tied constants, telemetry and
/// plans, sliced to its faults; `node_limit` therefore applies per
/// shard. The engine's progress and checkpoint sinks see every shard,
/// serialized through one mutex, in the engine's fault indices and
/// global chunk numbers. The first shard exception (a throwing sink
/// included) is rethrown after the workers stop.
///
/// The partition: the live faults in fault-list order, grouped by
/// shared cone of influence when config.trim is on (cluster_live_order,
/// analysis/cone.h), then stably sorted by s-graph observation horizon
/// when config.sgraph is on, so shard-mates share their fault-free
/// evaluation, MOT equality products and downgrade frame (docs/
/// DESIGN.md). It depends on the netlist, fault list, initial statuses,
/// `chunk_size` and the two flags — never on `threads` — so the merged
/// result is bit-identical for any thread count, fallback windows
/// included. It matches the unsharded engine.run() whenever neither
/// runs a fallback window; under memory pressure the window schedules
/// differ and coverage may differ, sound in both.
///
/// `resume`: per-chunk snapshots from an earlier run's checkpoint sink
/// (at most one per chunk). Each is validated against the recomputed
/// partition before any shard runs; a mismatch, or an engine carrying
/// its own set_resume snapshot, throws std::invalid_argument.
///
/// No witnesses: set_collect_witnesses is not forwarded to the shards.
///
/// The merged HybridResult holds per-fault status/detect_frame in the
/// engine's fault order, counters summed over shards (each shard walks
/// the whole sequence, so frame counters scale with the shard count),
/// the max peak_live_nodes and the OR of used_fallback.
[[nodiscard]] HybridResult run_sharded(
    const HybridFaultSim& engine,
    const std::vector<std::vector<Val3>>& sequence, std::size_t threads,
    std::size_t chunk_size, std::vector<ChunkCheckpoint> resume = {});

}  // namespace motsim

#endif  // MOTSIM_CORE_PARALLEL_SYM_SIM_H
