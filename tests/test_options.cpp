// The unified SimOptions surface (core/options.h): validation,
// round-trips to/from the legacy nested configs, and the Expected
// error carrier.

#include <gtest/gtest.h>

#include "bench_data/s27.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/expected.h"
#include "util/rng.h"

namespace motsim {
namespace {

// ---------------------------------------------------------------------------
// Expected
// ---------------------------------------------------------------------------

TEST(Expected, ValueState) {
  Expected<int, std::string> e(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(static_cast<bool>(e));
  EXPECT_EQ(*e, 7);
  EXPECT_EQ(e.value_or(9), 7);
}

TEST(Expected, ErrorState) {
  Expected<int, std::string> e = make_unexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(9), 9);
  EXPECT_THROW((void)e.value(), std::logic_error);
}

// ---------------------------------------------------------------------------
// SimOptions::validate
// ---------------------------------------------------------------------------

TEST(SimOptions, DefaultsAreValid) {
  const SimOptions o;
  const auto checked = o.validate();
  ASSERT_TRUE(checked.has_value()) << checked.error();
  EXPECT_EQ(*checked, o);  // no normalization today
}

TEST(SimOptions, RejectsZeroLimits) {
  SimOptions o;
  o.node_limit = 0;
  EXPECT_FALSE(o.validate().has_value());

  o = SimOptions{};
  o.fallback_frames = 0;
  EXPECT_FALSE(o.validate().has_value());

  o = SimOptions{};
  o.hard_limit_factor = 0;
  EXPECT_FALSE(o.validate().has_value());
}

TEST(SimOptions, RejectsAbsurdThreadCounts) {
  SimOptions o;
  o.threads = 1025;
  const auto checked = o.validate();
  ASSERT_FALSE(checked.has_value());
  EXPECT_NE(checked.error().find("threads"), std::string::npos);

  o.threads = 0;  // 0 is valid: one worker per hardware thread
  EXPECT_TRUE(o.validate().has_value());
}

TEST(SimOptions, RejectsBadBddTuning) {
  SimOptions o;
  o.bdd_cache_size_log2 = 2;
  EXPECT_FALSE(o.validate().has_value());
  o.bdd_cache_size_log2 = 31;
  EXPECT_FALSE(o.validate().has_value());
  o.bdd_cache_size_log2 = 16;
  o.bdd_initial_capacity = 1;
  EXPECT_FALSE(o.validate().has_value());
}

TEST(SimOptions, RejectsCorruptEnums) {
  SimOptions o;
  o.strategy = static_cast<Strategy>(250);
  EXPECT_FALSE(o.validate().has_value());
  o = SimOptions{};
  o.layout = static_cast<VarLayout>(250);
  EXPECT_FALSE(o.validate().has_value());
  o = SimOptions{};
  o.sim3_backend = static_cast<Sim3Backend>(7);
  const auto checked = o.validate();
  ASSERT_FALSE(checked.has_value());
  EXPECT_NE(checked.error().find("sim3_backend"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

TEST(SimOptions, HybridConfigMapping) {
  SimOptions o;
  o.strategy = Strategy::Rmot;
  o.layout = VarLayout::Blocked;
  o.node_limit = 1234;
  o.fallback_frames = 5;
  o.hard_limit_factor = 3;
  o.bdd_cache_size_log2 = 18;

  const HybridConfig h = o.to_hybrid_config();
  EXPECT_EQ(h.strategy, Strategy::Rmot);
  EXPECT_EQ(h.layout, VarLayout::Blocked);
  EXPECT_EQ(h.node_limit, 1234u);
  EXPECT_EQ(h.fallback_frames, 5u);
  EXPECT_EQ(h.hard_limit_factor, 3u);
  EXPECT_EQ(h.bdd.cache_size_log2, 18u);
}

TEST(SimOptions, PipelineConfigMapping) {
  SimOptions o;
  o.analysis = true;
  o.run_xred = false;
  o.sim3_backend = Sim3Backend::Event;
  o.run_symbolic = false;
  o.strategy = Strategy::Sot;
  o.checkpoint_interval = 9;
  o.trim = false;
  o.sgraph = false;
  o.threads = 4;
  o.chunk_size = 32;
  o.bdd_initial_capacity = 1u << 10;
  o.bdd_auto_gc_floor = 1u << 12;

  const PipelineConfig p = o.to_pipeline_config();
  EXPECT_TRUE(p.analysis);
  EXPECT_FALSE(p.run_xred);
  EXPECT_EQ(p.sim3_backend, Sim3Backend::Event);
  EXPECT_EQ(p.hybrid.sim3_backend, Sim3Backend::Event);
  EXPECT_FALSE(p.run_symbolic);
  EXPECT_EQ(p.threads, 4u);
  EXPECT_EQ(p.chunk_size, 32u);
  EXPECT_EQ(p.hybrid.strategy, Strategy::Sot);
  EXPECT_EQ(p.hybrid.checkpoint_interval, 9u);
  EXPECT_FALSE(p.hybrid.trim);
  EXPECT_FALSE(p.hybrid.sgraph);
  EXPECT_EQ(p.hybrid.bdd.initial_capacity, 1u << 10);
  EXPECT_EQ(p.hybrid.bdd.auto_gc_floor, 1u << 12);
}

TEST(SimOptions, DefaultsMatchLegacyDefaults) {
  // A default SimOptions must reproduce the legacy default configs
  // exactly — that is the compatibility contract.
  const PipelineConfig legacy;
  const PipelineConfig converted = SimOptions{}.to_pipeline_config();
  EXPECT_EQ(converted.run_xred, legacy.run_xred);
  EXPECT_EQ(converted.sim3_backend, legacy.sim3_backend);
  EXPECT_EQ(converted.run_symbolic, legacy.run_symbolic);
  EXPECT_EQ(converted.threads, legacy.threads);
  EXPECT_EQ(converted.hybrid.strategy, legacy.hybrid.strategy);
  EXPECT_EQ(converted.hybrid.node_limit, legacy.hybrid.node_limit);
  EXPECT_EQ(converted.hybrid.fallback_frames, legacy.hybrid.fallback_frames);
  EXPECT_EQ(converted.hybrid.bdd.cache_size_log2,
            legacy.hybrid.bdd.cache_size_log2);
}

// ---------------------------------------------------------------------------
// run_pipeline(SimOptions)
// ---------------------------------------------------------------------------

TEST(SimOptions, PipelineOverloadMatchesLegacyPath) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  Rng rng(11);
  const TestSequence seq = random_sequence(nl, 48, rng);

  SimOptions o;
  o.strategy = Strategy::Mot;
  const PipelineResult via_options = run_pipeline(nl, faults.faults(), seq, o);
  const PipelineResult via_legacy =
      run_pipeline(nl, faults.faults(), seq, o.to_pipeline_config());
  EXPECT_EQ(via_options.status, via_legacy.status);
  EXPECT_EQ(via_options.detect_frame, via_legacy.detect_frame);
}

TEST(SimOptions, PipelineOverloadThrowsOnInvalid) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  const TestSequence seq = sequence_from_strings({"0000"});
  SimOptions o;
  o.node_limit = 0;
  EXPECT_THROW((void)run_pipeline(nl, faults.faults(), seq, o),
               std::invalid_argument);
}

}  // namespace
}  // namespace motsim
