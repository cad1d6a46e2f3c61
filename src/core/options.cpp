#include "core/options.h"

#include "core/pipeline.h"

namespace motsim {

namespace {

/// Hard sanity ceiling on worker threads: far above any real machine,
/// low enough to catch a garbage value (e.g. a negative int cast to
/// size_t) before it allocates thousands of BDD managers.
constexpr std::size_t kMaxThreads = 1024;

}  // namespace

Expected<SimOptions, std::string> SimOptions::validate() const {
  using Err = Unexpected<std::string>;
  if (node_limit == 0) {
    return Err{"node_limit must be positive"};
  }
  if (fallback_frames == 0) {
    return Err{"fallback_frames must be positive"};
  }
  if (hard_limit_factor == 0) {
    return Err{"hard_limit_factor must be positive"};
  }
  if (threads > kMaxThreads) {
    return Err{"threads must be at most " + std::to_string(kMaxThreads) +
               " (0 = one per hardware thread)"};
  }
  if (bdd_initial_capacity < 2) {
    return Err{"bdd_initial_capacity must be at least 2"};
  }
  if (bdd_cache_size_log2 < 4 || bdd_cache_size_log2 > 30) {
    return Err{"bdd_cache_size_log2 must be in [4, 30]"};
  }
  switch (strategy) {
    case Strategy::Sot:
    case Strategy::Rmot:
    case Strategy::Mot:
      break;
    default:
      return Err{"strategy is not a valid Strategy value"};
  }
  switch (layout) {
    case VarLayout::Interleaved:
    case VarLayout::Blocked:
      break;
    default:
      return Err{"layout is not a valid VarLayout value"};
  }
  switch (sim3_backend) {
    case Sim3Backend::Event:
    case Sim3Backend::BitPar:
      break;
    default:
      return Err{"sim3_backend is not a valid Sim3Backend value"};
  }
  return *this;
}

HybridConfig SimOptions::to_hybrid_config() const {
  HybridConfig c;
  c.strategy = strategy;
  c.layout = layout;
  c.node_limit = node_limit;
  c.fallback_frames = fallback_frames;
  c.hard_limit_factor = hard_limit_factor;
  c.checkpoint_interval = checkpoint_interval;
  c.bdd.initial_capacity = bdd_initial_capacity;
  c.bdd.cache_size_log2 = bdd_cache_size_log2;
  c.bdd.auto_gc_floor = bdd_auto_gc_floor;
  // The BDD hard limit is derived by the hybrid simulator from
  // node_limit * hard_limit_factor.
  c.sim3_backend = sim3_backend;
  c.trim = trim;
  c.sgraph = sgraph;
  return c;
}

PipelineConfig SimOptions::to_pipeline_config() const {
  PipelineConfig c;
  c.analysis = analysis;
  c.run_xred = run_xred;
  c.sim3_backend = sim3_backend;
  c.run_symbolic = run_symbolic;
  c.threads = threads;
  c.chunk_size = chunk_size;
  c.hybrid = to_hybrid_config();
  c.telemetry = telemetry;
  return c;
}

}  // namespace motsim
