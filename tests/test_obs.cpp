// The telemetry subsystem (src/obs/): metrics-registry correctness
// under concurrent writers, histogram bucket semantics, trace-JSON
// well-formedness, and the engine-level invariants of an instrumented
// pipeline run — including that attaching a Telemetry context never
// changes what the engines compute, for any thread count.
//
// tools/run_tsan.sh runs this binary under ThreadSanitizer; keep every
// test here TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_data/registry.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "core/progress.h"
#include "faults/collapse.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "store/campaign.h"
#include "store/fingerprint.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace motsim {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (syntax only) for the
// round-trip assertions on the renderers. Recursive descent over the
// full grammar; no value model is built.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool well_formed() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_well_formed(const std::string& text) {
  return JsonChecker(text).well_formed();
}

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(json_well_formed("{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}"));
  EXPECT_FALSE(json_well_formed("{\"a\": }"));
  EXPECT_FALSE(json_well_formed("[1, 2"));
  EXPECT_FALSE(json_well_formed("{} extra"));
}

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(Counter, ConcurrentIncrementsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (int j = 0; j < kIncrements; ++j) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAddAndConcurrentUpdateMax) {
  obs::Gauge g;
  g.set(2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Gauge peak;
  std::vector<std::thread> threads;
  for (int i = 1; i <= 8; ++i) {
    threads.emplace_back([&peak, i] {
      for (int j = 0; j < 1000; ++j) peak.update_max(i * 1.0 + j * 1e-6);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(peak.value(), 8.0 + 999 * 1e-6);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundsAreInclusiveUpperLimits) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (le semantics: boundary is inclusive)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(5.0);  // bucket 2
  h.observe(5.1);  // overflow
  const std::vector<std::uint64_t> want{2, 2, 1, 1};
  EXPECT_EQ(h.bucket_counts(), want);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 5.1, 1e-12);
}

TEST(Histogram, UnsortedBoundsAreSortedOnConstruction) {
  obs::Histogram h({5.0, 1.0, 2.0});
  const std::vector<double> want{1.0, 2.0, 5.0};
  EXPECT_EQ(h.bounds(), want);
  h.observe(1.5);
  const std::vector<std::uint64_t> counts{0, 1, 0, 0};
  EXPECT_EQ(h.bucket_counts(), counts);
}

TEST(Histogram, ConcurrentObservesKeepCountConsistent) {
  obs::Histogram h({0.25, 0.5, 0.75});
  constexpr int kThreads = 4;
  constexpr int kObs = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h, i] {
      for (int j = 0; j < kObs; ++j) h.observe((i * 0.25) + 0.1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  std::uint64_t total = 0;
  for (std::uint64_t b : h.bucket_counts()) total += b;
  EXPECT_EQ(total, h.count());
}

// ---------------------------------------------------------------------------
// Histogram quantiles (Prometheus histogram_quantile-compatible
// interpolation; shared by motsim_load and the serve telemetry digest)
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, InterpolatesLinearlyInsideTheBucket) {
  // 100 observations uniformly inside (1, 2]: rank q*100 falls at
  // fraction q of that bucket, so p50 = 1.5 under linear
  // interpolation; p90 = 1.9.
  obs::Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  EXPECT_NEAR(h.quantile(0.50), 1.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.90), 1.9, 1e-9);
}

TEST(HistogramQuantile, SpansBucketsByCumulativeRank) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);  // bucket (0,1]
  for (int i = 0; i < 50; ++i) h.observe(3.0);  // bucket (2,4]
  // p25 is halfway into the first bucket, p75 halfway into the third.
  EXPECT_NEAR(h.quantile(0.25), 0.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.75), 3.0, 1e-9);
  // The boundary rank resolves to the first bucket's upper edge.
  EXPECT_NEAR(h.quantile(0.50), 1.0, 1e-9);
}

TEST(HistogramQuantile, OverflowClampsToHighestFiniteBound) {
  obs::Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(100.0);  // all overflow
  EXPECT_NEAR(h.quantile(0.5), 2.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.99), 2.0, 1e-9);
}

TEST(HistogramQuantile, EmptyAndClampedInputs) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.observe(1.5);
  EXPECT_NEAR(h.quantile(-1.0), h.quantile(0.0), 1e-12);  // clamped
  EXPECT_NEAR(h.quantile(2.0), h.quantile(1.0), 1e-12);
}

TEST(HistogramQuantile, SnapshotQuantileMatchesLiveHistogram) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("q.test", {0.1, 1.0, 10.0});
  for (int i = 0; i < 37; ++i) h.observe(0.05);
  for (int i = 0; i < 63; ++i) h.observe(5.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_NEAR(snap.histograms[0].quantile(0.5), h.quantile(0.5), 1e-12);
  EXPECT_NEAR(snap.histograms[0].quantile(0.99), h.quantile(0.99), 1e-12);
}

TEST(HistogramQuantile, JsonCarriesPercentileFields) {
  obs::MetricsRegistry reg;
  reg.histogram("lat.seconds", {0.1, 1.0}).observe(0.05);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Registry, NamesAreStableAndSnapshotIsOrdered) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  EXPECT_EQ(&reg.counter("a.first"), &reg.counter("a.first"));
  reg.gauge("m.mid").set(7.5);
  // Bounds bind on first creation; later bounds are ignored.
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  reg.histogram("h", {99.0}).observe(0.5);

  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a.first");
  EXPECT_EQ(s.counters[1].first, "z.last");
  EXPECT_EQ(s.counters[1].second, 3u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 7.5);
  ASSERT_EQ(s.histograms.size(), 1u);
  const std::vector<double> bounds{1.0, 2.0};
  EXPECT_EQ(s.histograms[0].bounds, bounds);
  EXPECT_EQ(s.histograms[0].count, 2u);
}

TEST(Registry, SnapshotUnderConcurrentIncrementsIsExactAfterJoin) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 6;
  constexpr int kIncrements = 5000;
  std::atomic<bool> stop{false};
  // A reader thread snapshotting concurrently must never crash or see
  // torn registry structure (the values themselves are racy until the
  // writers quiesce — that is the documented contract).
  std::thread reader([&reg, &stop] {
    while (!stop.load()) {
      const obs::MetricsSnapshot s = reg.snapshot();
      for (const auto& [name, v] : s.counters) {
        (void)name;
        (void)v;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&reg] {
      for (int j = 0; j < kIncrements; ++j) {
        reg.counter("shared").add();
        reg.gauge("peak").update_max(j);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, kIncrements - 1);
}

TEST(Registry, JsonRendererRoundTripParses) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(json_well_formed(reg.snapshot().to_json()));  // empty

  reg.counter("bdd.apply_cache_hits").add(42);
  reg.gauge("hybrid.symbolic_seconds").set(1.25);
  reg.histogram("store.event_write_seconds", {1e-4, 1e-2}).observe(3e-3);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"bdd.apply_cache_hits\": 42"), std::string::npos);
}

TEST(Registry, PrometheusRendererExpandsHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("bdd.gc_runs").add(2);
  obs::Histogram& h = reg.histogram("parallel.shard_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE bdd_gc_runs counter"), std::string::npos);
  EXPECT_NE(text.find("bdd_gc_runs 2"), std::string::npos);
  // Cumulative le buckets: 1 <= 0.1, 2 <= 1.0, 3 <= +Inf.
  EXPECT_NE(text.find("parallel_shard_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("parallel_shard_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("parallel_shard_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("parallel_shard_seconds_count 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SpanTracer
// ---------------------------------------------------------------------------

TEST(Trace, ChromeJsonIsWellFormedAndEscaped) {
  obs::SpanTracer tracer;
  {
    auto outer = tracer.span("stage.symbolic");
    auto inner = tracer.span("weird \"name\"\\with\nescapes");
  }
  tracer.instant("event.fault_detected");
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Trace, EventsRecordNestingAndThreads) {
  obs::SpanTracer tracer;
  {
    auto outer = tracer.span("outer");
    { auto inner = tracer.span("inner"); }
  }
  std::thread other([&tracer] { auto s = tracer.span("worker"); });
  other.join();

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // RAII closes inner first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[2].name, "worker");
  EXPECT_LE(events[1].start_seconds, events[0].start_seconds);
  EXPECT_GE(events[1].duration_seconds, events[0].duration_seconds);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_NE(events[2].tid, events[0].tid);
}

TEST(Trace, MovedFromSpanDoesNotDoubleRecord) {
  obs::SpanTracer tracer;
  {
    auto a = tracer.span("once");
    auto b = std::move(a);
    a.close();  // moved-from: no-op
  }
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(Trace, PhaseSummaryAggregatesByName) {
  obs::SpanTracer tracer;
  { auto s = tracer.span("stage.sim3"); }
  { auto s = tracer.span("stage.sim3"); }
  tracer.instant("marker");  // instants do not appear in the table
  const std::string table = tracer.phase_summary();
  EXPECT_NE(table.find("stage.sim3"), std::string::npos);
  EXPECT_EQ(table.find("marker"), std::string::npos);
  std::istringstream lines(table);
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_NE(row.find("2"), std::string::npos);  // count column
}

// ---------------------------------------------------------------------------
// ThreadPool statistics
// ---------------------------------------------------------------------------

TEST(ThreadPoolStats, CountsTasksAndQueueDepth) {
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.submit([] {});
  }
  pool.wait_idle();
  const ThreadPoolStats s = pool.stats();
  EXPECT_EQ(s.tasks_executed, 32u);
  EXPECT_GE(s.max_queue_depth, 1u);
  EXPECT_GE(s.busy_seconds, 0.0);
  EXPECT_GE(s.idle_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// SimOptions / fingerprint: telemetry is an observer, not identity
// ---------------------------------------------------------------------------

TEST(Options, TelemetryExcludedFromEqualityAndFingerprint) {
  obs::Telemetry telemetry;
  SimOptions with, without;
  with.telemetry = &telemetry;
  EXPECT_TRUE(with == without);
  EXPECT_EQ(fingerprint_options(with), fingerprint_options(without));
}

// ---------------------------------------------------------------------------
// Instrumented pipeline runs
// ---------------------------------------------------------------------------

struct PipelineRun {
  explicit PipelineRun(std::size_t frames = 48) : nl(make_benchmark("s298")),
                                                  faults(nl) {
    Rng rng(7);
    seq = random_sequence(nl, frames, rng);
  }
  Netlist nl;
  CollapsedFaultList faults;
  TestSequence seq;
};

double gauge_value(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "gauge not found: " << name;
  return 0;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& s,
                            const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

TEST(PipelineTelemetry, ModeSecondsAndPeakNodesInvariants) {
  const PipelineRun w;
  obs::Telemetry telemetry;
  SimOptions opts;
  opts.node_limit = 120;  // small enough to force fallback windows
  opts.fallback_frames = 4;
  opts.telemetry = &telemetry;
  const PipelineResult r =
      run_pipeline(w.nl, w.faults.faults(), w.seq, opts);
  ASSERT_TRUE(r.used_fallback)
      << "node_limit did not force a fallback window; scenario is vacuous";

  const obs::MetricsSnapshot s = telemetry.metrics.snapshot();
  const double sym = gauge_value(s, "hybrid.symbolic_seconds");
  const double fb = gauge_value(s, "hybrid.fallback_seconds");
  EXPECT_GT(sym, 0.0);
  EXPECT_GT(fb, 0.0);
  // The two mode timers partition the frame loop of the symbolic
  // stage: their sum can never exceed the stage's wall clock, and the
  // part they miss (setup, seeding, result merge) is bounded.
  const double total = gauge_value(s, "pipeline.symbolic_seconds");
  EXPECT_LE(sym + fb, total + 1e-6);
  EXPECT_NEAR(sym + fb, total, 0.5);

  // Frame counters partition the simulated frames.
  const std::uint64_t frames =
      counter_value(s, "hybrid.symbolic_frames") +
      counter_value(s, "hybrid.three_valued_frames");
  EXPECT_GT(frames, 0u);
  EXPECT_LE(frames, w.seq.size());
  EXPECT_GT(counter_value(s, "hybrid.fallback_windows"), 0u);

  // The space limit of the paper: the manager enforces the hard cap
  // before creating a node, so the recorded peak must respect it.
  const double peak = gauge_value(s, "bdd.peak_live_nodes");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(opts.node_limit *
                                      opts.hard_limit_factor));

  // GC time is part of the (serial) symbolic stage, and the node table
  // holds at least the live peak plus the terminal.
  const double gc_seconds = gauge_value(s, "bdd.gc_seconds");
  EXPECT_GT(gc_seconds, 0.0);
  EXPECT_LE(gc_seconds, total + 1e-6);
  EXPECT_GE(gauge_value(s, "bdd.node_slots"), peak + 1);

  // The apply cache saw traffic and hits never exceed lookups.
  EXPECT_LE(counter_value(s, "bdd.apply_cache_hits"),
            counter_value(s, "bdd.apply_cache_lookups"));
  EXPECT_GT(counter_value(s, "bdd.apply_cache_lookups"), 0u);
}

TEST(PipelineTelemetry, ResultsBitIdenticalWithTelemetryAcrossThreads) {
  const PipelineRun w;
  SimOptions base;
  base.node_limit = 120;  // exercise fallback windows too
  base.fallback_frames = 4;
  const PipelineResult reference =
      run_pipeline(w.nl, w.faults.faults(), w.seq, base);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    obs::Telemetry telemetry;
    SimOptions opts = base;
    opts.threads = threads;
    opts.telemetry = &telemetry;
    const PipelineResult observed =
        run_pipeline(w.nl, w.faults.faults(), w.seq, opts);
    EXPECT_EQ(observed.status, reference.status) << "threads=" << threads;
    EXPECT_EQ(observed.detect_frame, reference.detect_frame)
        << "threads=" << threads;
    EXPECT_EQ(observed.x_redundant, reference.x_redundant);
    // The parallel driver reported its shards.
    if (threads > 1) {
      const obs::MetricsSnapshot s = telemetry.metrics.snapshot();
      EXPECT_GT(counter_value(s, "parallel.shards"), 0u);
      EXPECT_GT(counter_value(s, "parallel.pool_tasks"), 0u);
    }
  }
}

TEST(PipelineTelemetry, StageCallbacksFireInOrder) {
  class StageRecorder final : public ProgressSink {
   public:
    void on_stage(const char* name, double seconds) override {
      names.push_back(name);
      EXPECT_GE(seconds, 0.0);
    }
    std::vector<std::string> names;
  };

  const PipelineRun w(16);
  StageRecorder recorder;
  SimOptions opts;
  (void)run_pipeline(w.nl, w.faults.faults(), w.seq, opts, &recorder);
  const std::vector<std::string> want{"stage.xred", "stage.sim3",
                                      "stage.symbolic"};
  EXPECT_EQ(recorder.names, want);

  // A sink that overrides nothing must keep compiling and be usable —
  // the default on_stage body is empty.
  ProgressSink plain;
  plain.on_stage("stage.sim3", 0.0);
}

TEST(PipelineTelemetry, TraceContainsStagesWindowsAndShards) {
  const PipelineRun w;
  obs::Telemetry telemetry;
  SimOptions opts;
  opts.node_limit = 120;
  opts.fallback_frames = 4;
  opts.threads = 2;
  opts.telemetry = &telemetry;
  (void)run_pipeline(w.nl, w.faults.faults(), w.seq, opts);

  const std::string json = telemetry.tracer.to_chrome_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"stage.symbolic\""), std::string::npos);
  EXPECT_NE(json.find("\"symbolic\""), std::string::npos);
  EXPECT_NE(json.find("\"fallback_window\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
}

/// Spans named `name`, in recording order.
std::vector<obs::TraceEvent> spans_named(const obs::Telemetry& telemetry,
                                         const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : telemetry.tracer.events()) {
    if (e.name == name && !e.instant) out.push_back(e);
  }
  return out;
}

TEST(PipelineTelemetry, PlanSpansNestInsideTheSymbolicStage) {
  // Serial and sharded: the pipeline builds both plans itself (the
  // trimming plan from the analysis stage's implication engine), the
  // parallel driver adds its shard order under plan.trim.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const PipelineRun w(16);
    obs::Telemetry telemetry;
    SimOptions opts;
    opts.analysis = true;
    opts.threads = threads;
    opts.telemetry = &telemetry;
    (void)run_pipeline(w.nl, w.faults.faults(), w.seq, opts);

    const std::vector<obs::TraceEvent> stage =
        spans_named(telemetry, "stage.symbolic");
    ASSERT_EQ(stage.size(), 1u);
    const double begin = stage[0].start_seconds;
    const double end = begin + stage[0].duration_seconds;
    for (const char* name : {"plan.trim", "plan.sgraph"}) {
      const std::vector<obs::TraceEvent> plans = spans_named(telemetry, name);
      ASSERT_FALSE(plans.empty()) << name << " threads=" << threads;
      for (const obs::TraceEvent& p : plans) {
        EXPECT_GE(p.start_seconds, begin) << name;
        EXPECT_LE(p.start_seconds + p.duration_seconds, end) << name;
      }
    }
  }
}

TEST(PipelineTelemetry, HybridEngineNamesThePlansItBuilds) {
  const PipelineRun w(8);
  obs::Telemetry telemetry;
  HybridFaultSim sim(w.nl, w.faults.faults(), HybridConfig{});
  sim.set_telemetry(&telemetry);
  (void)sim.run(w.seq);
  EXPECT_EQ(spans_named(telemetry, "plan.trim").size(), 1u);
  EXPECT_EQ(spans_named(telemetry, "plan.sgraph").size(), 1u);
}

// ---------------------------------------------------------------------------
// Campaign event stream: wall-clock "t" fields
// ---------------------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("motsim_obs_" + tag + "_" +
               std::to_string(
                   ::testing::UnitTest::GetInstance()->random_seed())))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::vector<std::string> read_lines(const std::string& file) {
  std::ifstream in(file);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Extracts the `"t":<seconds>` field of one events.jsonl record.
double t_of(const std::string& line) {
  const std::size_t at = line.find("\"t\":");
  EXPECT_NE(at, std::string::npos) << "record without t field: " << line;
  if (at == std::string::npos) return -1;
  return std::stod(line.substr(at + 4));
}

TEST(CampaignTelemetry, EventRecordsCarryMonotonicTimestamps) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 32, rng);

  TempDir tmp("events");
  obs::Telemetry telemetry;
  SimOptions opts;
  opts.checkpoint_interval = 8;
  opts.telemetry = &telemetry;
  const auto res = run_campaign(nl, faults.faults(), seq, opts, tmp.path);
  ASSERT_TRUE(res.has_value()) << res.error();

  const std::vector<std::string> lines =
      read_lines(tmp.path + "/events.jsonl");
  ASSERT_GE(lines.size(), 3u);  // run_start, >=1 checkpoint, run_complete
  double last = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    const double t = t_of(line);
    EXPECT_GE(t, last) << "timestamps must be non-decreasing: " << line;
    last = t;
  }
  // The tracer saw the same events on the same clock.
  const std::string trace = telemetry.tracer.to_chrome_json();
  EXPECT_NE(trace.find("\"event.checkpoint\""), std::string::npos);
  EXPECT_NE(trace.find("\"event.run_complete\""), std::string::npos);
}

TEST(CampaignTelemetry, EventsHaveTimestampsEvenWithoutTelemetry) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList faults(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 16, rng);

  TempDir tmp("notele");
  SimOptions opts;
  opts.checkpoint_interval = 8;
  const auto res = run_campaign(nl, faults.faults(), seq, opts, tmp.path);
  ASSERT_TRUE(res.has_value()) << res.error();
  for (const std::string& line : read_lines(tmp.path + "/events.jsonl")) {
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
  }
}

// ---------------------------------------------------------------------------
// histogram_quantile: the degenerate inputs motsim_load and the serve
// digest feed it must all have defined results (regression for the
// empty-histogram divide and the short-buckets out-of-range read).
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, DegenerateInputsAreDefined) {
  const std::vector<double> bounds{1.0, 2.0, 5.0};

  // Empty bucket vector and all-zero buckets both report 0.
  EXPECT_EQ(obs::histogram_quantile(bounds, {}, 0.5), 0.0);
  EXPECT_EQ(obs::histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  EXPECT_EQ(obs::histogram_quantile({}, {}, 0.5), 0.0);

  // NaN q reports 0 instead of propagating into bucket ranks.
  const double nan_q = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(obs::histogram_quantile(bounds, {1, 2, 3, 0}, nan_q), 0.0);

  // q outside [0, 1] clamps to the endpoints.
  const std::vector<std::uint64_t> buckets{10, 10, 10, 0};
  EXPECT_EQ(obs::histogram_quantile(bounds, buckets, -3.0),
            obs::histogram_quantile(bounds, buckets, 0.0));
  EXPECT_EQ(obs::histogram_quantile(bounds, buckets, 7.0),
            obs::histogram_quantile(bounds, buckets, 1.0));
}

TEST(HistogramQuantile, ShortBucketVectorClampsInsteadOfOverreading) {
  // buckets.size() < bounds.size() + 1: the rank can land past the
  // last provided bucket; the estimate must clamp to the highest
  // finite bound, never index bounds[buckets.size() - 1] off the end.
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  const std::vector<std::uint64_t> short_buckets{1, 1};  // 2 < 4
  const double q99 = obs::histogram_quantile(bounds, short_buckets, 0.99);
  EXPECT_GE(q99, 0.0);
  EXPECT_LE(q99, 5.0);
  const double q0 = obs::histogram_quantile(bounds, short_buckets, 0.0);
  EXPECT_GE(q0, 0.0);
  EXPECT_LE(q0, 5.0);
}

// ---------------------------------------------------------------------------
// Renderer hardening: Prometheus name mapping and JSON id escaping
// ---------------------------------------------------------------------------

TEST(Registry, PrometheusNameMappingKeepsDigitsAndUnderscores) {
  obs::MetricsRegistry reg;
  reg.counter("serve.requests.fault_sim").add(1);
  reg.counter("hybrid.3v_frames").add(2);
  reg.gauge("bdd.live_nodes").set(5);
  reg.histogram("serve.queue.wait_seconds", {0.1}).observe(0.05);
  const std::string text = reg.snapshot().to_prometheus();
  // Dots map to underscores; digits and underscores survive.
  EXPECT_NE(text.find("serve_requests_fault_sim 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hybrid_3v_frames 2"), std::string::npos);
  EXPECT_NE(text.find("bdd_live_nodes 5"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_wait_seconds_count 1"),
            std::string::npos);
  // The dotted originals never leak into the exposition text.
  EXPECT_EQ(text.find("serve.requests.fault_sim"), std::string::npos);
}

TEST(Registry, PrometheusNameMappingReplacesForbiddenCharacters) {
  obs::MetricsRegistry reg;
  reg.counter("weird-name.with spaces").add(3);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("weird_name_with_spaces 3"), std::string::npos)
      << text;
}

TEST(Registry, JsonRendererEscapesHostileMetricIds) {
  obs::MetricsRegistry reg;
  reg.counter("evil\"quote").add(1);
  reg.gauge("back\\slash").set(2.0);
  reg.histogram("newline\nname", {1.0}).observe(0.5);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("evil\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
}

TEST(Registry, JsonLineIsOneWellFormedLine) {
  obs::MetricsRegistry reg;
  reg.counter("a.counter").add(7);
  reg.histogram("h.seconds", {0.1, 1.0}).observe(0.5);
  const std::string line = reg.snapshot().to_json_line();
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_TRUE(json_well_formed(line)) << line;
}

// ---------------------------------------------------------------------------
// Structured logging: level parsing, record formatting, the sink
// ---------------------------------------------------------------------------

TEST(Log, ParseLogLevelNamesAndErrors) {
  using obs::LogLevel;
  EXPECT_EQ(*obs::parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(*obs::parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(*obs::parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(*obs::parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(*obs::parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(*obs::parse_log_level("off"), LogLevel::Off);
  EXPECT_FALSE(obs::parse_log_level("loud").has_value());
  EXPECT_FALSE(obs::parse_log_level("").has_value());
}

TEST(Log, FormatLogRecordIsOneWellFormedJsonLine) {
  std::string out;
  const obs::LogField fields[] = {
      obs::LogField::i64("frame", -3),
      obs::LogField::u64("nodes", 12345),
      obs::LogField::f64("seconds", 0.25),
      obs::LogField::boolean("fallback", true),
      obs::LogField::str("stage", "sym\"bolic\\"),
  };
  obs::format_log_record(out, 1.5, obs::LogLevel::Info, "test.event",
                         "c1-r2", 3, fields, 5, "a \"message\"\nwith\tescapes");
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  const std::string line = out.substr(0, out.size() - 1);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_NE(line.find("\"event\":\"test.event\""), std::string::npos);
  EXPECT_NE(line.find("\"trace\":\"c1-r2\""), std::string::npos);
  EXPECT_NE(line.find("\"frame\":-3"), std::string::npos);
  EXPECT_NE(line.find("\"fallback\":true"), std::string::npos);
}

TEST(Log, FormatLogRecordRendersNonFiniteDoublesAsNull) {
  std::string out;
  const obs::LogField fields[] = {
      obs::LogField::f64("inf", std::numeric_limits<double>::infinity()),
      obs::LogField::f64("nan", std::numeric_limits<double>::quiet_NaN()),
  };
  obs::format_log_record(out, 0.0, obs::LogLevel::Warn, "test.nonfinite",
                         "", 0, fields, 2, "");
  const std::string line = out.substr(0, out.size() - 1);
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_NE(line.find("\"inf\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"nan\":null"), std::string::npos) << line;
}

TEST(Log, LoggerWritesGatedJsonLines) {
  TempDir tmp("log");
  fs::create_directories(tmp.path);
  const std::string file = tmp.path + "/run.log.jsonl";
  auto logger = obs::Logger::open(file, obs::LogLevel::Info);
  ASSERT_TRUE(logger.has_value()) << logger.error();

  obs::Telemetry telemetry;
  telemetry.attach_logger(logger->get());
  obs::log_event(&telemetry, obs::LogLevel::Debug, "gated.out",
                 {obs::LogField::i64("n", 1)});
  obs::log_event(&telemetry, obs::LogLevel::Info, "kept.info",
                 {obs::LogField::str("k", "v")}, "hello");
  obs::log_event(&telemetry, obs::LogLevel::Error, "kept.error");
  telemetry.attach_logger(nullptr);

  const std::vector<std::string> lines = read_lines(file);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"event\":\"kept.info\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"error\""), std::string::npos);
  // The gated record never reached the file but did reach the
  // always-on flight recorder.
  EXPECT_NE(telemetry.recorder.dump().find("gated.out"), std::string::npos);
}

TEST(Log, SetLevelReopensTheGateAtRuntime) {
  TempDir tmp("loglvl");
  fs::create_directories(tmp.path);
  const std::string file = tmp.path + "/lvl.jsonl";
  auto logger = obs::Logger::open(file, obs::LogLevel::Error);
  ASSERT_TRUE(logger.has_value());
  EXPECT_FALSE((*logger)->enabled(obs::LogLevel::Info));
  (*logger)->set_level(obs::LogLevel::Trace);
  EXPECT_TRUE((*logger)->enabled(obs::LogLevel::Trace));
  EXPECT_EQ((*logger)->level(), obs::LogLevel::Trace);
}

TEST(Log, NullTelemetryIsANoOp) {
  // The disabled path of every instrumentation site: must not touch
  // any sink, allocate, or crash.
  obs::log_event(nullptr, obs::LogLevel::Error, "never.seen",
                 {obs::LogField::i64("x", 1)}, "dropped");
  SUCCEED();
}

TEST(Log, OpenLoggerFromPrefersFlagsOverEnvironment) {
  // No flag, no env → no sink, not an error.
  ASSERT_EQ(unsetenv("MOTSIM_LOG"), 0);
  ASSERT_EQ(unsetenv("MOTSIM_LOG_LEVEL"), 0);
  auto none = obs::open_logger_from("", "");
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->get(), nullptr);

  // Unknown level name is an error even with a valid path.
  TempDir tmp("logenv");
  fs::create_directories(tmp.path);
  EXPECT_FALSE(
      obs::open_logger_from(tmp.path + "/x.jsonl", "loudest").has_value());

  // The env variable names a sink when the flag does not.
  const std::string env_file = tmp.path + "/env.jsonl";
  ASSERT_EQ(setenv("MOTSIM_LOG", env_file.c_str(), 1), 0);
  ASSERT_EQ(setenv("MOTSIM_LOG_LEVEL", "warn", 1), 0);
  auto from_env = obs::open_logger_from("", "");
  ASSERT_TRUE(from_env.has_value()) << from_env.error();
  ASSERT_NE(from_env->get(), nullptr);
  EXPECT_EQ((*from_env)->level(), obs::LogLevel::Warn);
  ASSERT_EQ(unsetenv("MOTSIM_LOG"), 0);
  ASSERT_EQ(unsetenv("MOTSIM_LOG_LEVEL"), 0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(Recorder, DumpReturnsNotesOldestFirst) {
  obs::FlightRecorder rec;
  rec.note(std::string("{\"n\":1}"));
  rec.note(std::string("{\"n\":2}\n"));  // trailing newline is stripped
  const std::string dump = rec.dump();
  const std::vector<std::string> lines = [&dump] {
    std::vector<std::string> out;
    std::istringstream in(dump);
    for (std::string l; std::getline(in, l);) out.push_back(l);
    return out;
  }();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"n\":1}");
  EXPECT_EQ(lines[1], "{\"n\":2}");
  EXPECT_EQ(rec.recorded(), 2u);
}

TEST(Recorder, WrapAroundKeepsOnlyTheWindowAndEveryLineValid) {
  obs::FlightRecorder rec;
  const std::size_t total = obs::FlightRecorder::kSlots + 500;
  for (std::size_t i = 0; i < total; ++i) {
    rec.note("{\"seq\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(rec.recorded(), total);

  const std::string dump = rec.dump();
  std::istringstream in(dump);
  std::size_t lines = 0;
  std::string first;
  for (std::string line; std::getline(in, line);) {
    if (lines == 0) first = line;
    EXPECT_TRUE(json_well_formed(line)) << line;
    ++lines;
  }
  EXPECT_LE(lines, obs::FlightRecorder::kSlots);
  EXPECT_GT(lines, obs::FlightRecorder::kSlots / 2);
  // The retained window is the most recent kSlots records: the oldest
  // surviving record is at least seq 500.
  ASSERT_FALSE(first.empty());
  const std::size_t at = first.find("\"seq\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stoull(first.substr(at + 6)), 500u);
}

TEST(Recorder, OversizedRecordBecomesAValidTruncationMarker) {
  obs::FlightRecorder rec;
  const std::string huge =
      "{\"big\":\"" + std::string(obs::FlightRecorder::kPayloadBytes * 2, 'x') +
      "\"}";
  rec.note(huge);
  const std::string dump = rec.dump();
  ASSERT_FALSE(dump.empty());
  const std::string line = dump.substr(0, dump.find('\n'));
  EXPECT_LE(line.size(), obs::FlightRecorder::kPayloadBytes);
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_EQ(line.find(huge), std::string::npos);
}

TEST(Recorder, ConcurrentNotesNeverTearOrCrash) {
  obs::FlightRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kNotes = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kNotes; ++i) {
        rec.note("{\"w\":" + std::to_string(t) + ",\"i\":" +
                 std::to_string(i) + "}");
      }
    });
  }
  // A concurrent reader exercises the dump-vs-note slot locks.
  std::thread reader([&rec] {
    for (int i = 0; i < 50; ++i) (void)rec.dump();
  });
  for (auto& t : threads) t.join();
  reader.join();

  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kThreads) * kNotes);
  std::istringstream in(rec.dump());
  for (std::string line; std::getline(in, line);) {
    EXPECT_TRUE(json_well_formed(line)) << line;
  }
  // Dropped records (contended slots) are counted, never silently lost.
  EXPECT_LE(rec.dropped(), rec.recorded());
}

TEST(Recorder, LogEventsLandInTheRecorderEvenWithoutALogger) {
  obs::Telemetry telemetry;  // no logger attached
  obs::log_event(&telemetry, obs::LogLevel::Trace, "recorder.only",
                 {obs::LogField::u64("k", 9)});
  const std::string dump = telemetry.recorder.dump();
  EXPECT_NE(dump.find("recorder.only"), std::string::npos);
  std::istringstream in(dump);
  for (std::string line; std::getline(in, line);) {
    EXPECT_TRUE(json_well_formed(line)) << line;
  }
}

// ---------------------------------------------------------------------------
// Request-scoped trace ids
// ---------------------------------------------------------------------------

TEST(TraceId, ScopesNestAndRestore) {
  EXPECT_TRUE(obs::current_trace_id().empty());
  {
    obs::ScopedTraceId outer("c1-r1");
    EXPECT_EQ(obs::current_trace_id(), "c1-r1");
    {
      obs::ScopedTraceId inner("c1-r2");
      EXPECT_EQ(obs::current_trace_id(), "c1-r2");
    }
    EXPECT_EQ(obs::current_trace_id(), "c1-r1");
  }
  EXPECT_TRUE(obs::current_trace_id().empty());
}

TEST(TraceId, IsThreadLocal) {
  obs::ScopedTraceId mine("c9-r9");
  std::string seen = "unset";
  std::thread other([&seen] { seen = obs::current_trace_id(); });
  other.join();
  EXPECT_EQ(seen, "");
  EXPECT_EQ(obs::current_trace_id(), "c9-r9");
}

TEST(TraceId, SpansAndLogRecordsCarryTheActiveId) {
  obs::Telemetry telemetry;
  {
    obs::ScopedTraceId scope("c3-r7");
    { auto span = telemetry.tracer.span("handler"); }
    obs::log_event(&telemetry, obs::LogLevel::Info, "traced.event");
  }
  { auto span = telemetry.tracer.span("outside"); }

  const std::vector<obs::TraceEvent> events = telemetry.tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace, "c3-r7");
  EXPECT_TRUE(events[1].trace.empty());

  // Chrome JSON exports the id as an args attribute.
  const std::string chrome = telemetry.tracer.to_chrome_json();
  EXPECT_TRUE(json_well_formed(chrome));
  EXPECT_NE(chrome.find("\"args\":{\"trace\":\"c3-r7\"}"),
            std::string::npos);
  // The recorder's mirror of the log record carries it too.
  EXPECT_NE(telemetry.recorder.dump().find("\"trace\":\"c3-r7\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(Sampler, WritesValidJsonlWithRssAndGauges) {
  TempDir tmp("sampler");
  fs::create_directories(tmp.path);
  const std::string file = tmp.path + "/samples.jsonl";

  obs::Telemetry telemetry;
  telemetry.metrics.gauge("bdd.live_nodes").set(431);
  auto sampler = obs::Sampler::start(telemetry, file, 1);
  ASSERT_TRUE(sampler.has_value()) << sampler.error();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*sampler)->stop();

  const std::vector<std::string> lines = read_lines(file);
  ASSERT_GE(lines.size(), 1u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    EXPECT_NE(line.find("\"rss_bytes\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"bdd.live_nodes\""), std::string::npos) << line;
  }
}

TEST(Sampler, ProcessRssIsPlausible) {
  const std::size_t rss = obs::process_rss_bytes();
  // /proc is available on the platforms this repo targets; a running
  // test binary is at least 1 MiB resident.
  EXPECT_GE(rss, std::size_t{1} << 20);
}

// ---------------------------------------------------------------------------
// Full-stack observability must not change what the engines compute
// ---------------------------------------------------------------------------

TEST(PipelineTelemetry, ResultsBitIdenticalWithFullObservabilityStack) {
  const PipelineRun w;
  SimOptions base;
  base.node_limit = 120;  // exercise fallback windows too
  base.fallback_frames = 4;
  const PipelineResult reference =
      run_pipeline(w.nl, w.faults.faults(), w.seq, base);

  TempDir tmp("fullobs");
  fs::create_directories(tmp.path);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string tag = std::to_string(threads);
    auto logger = obs::Logger::open(tmp.path + "/log" + tag + ".jsonl",
                                    obs::LogLevel::Trace);
    ASSERT_TRUE(logger.has_value()) << logger.error();

    obs::Telemetry telemetry;
    telemetry.attach_logger(logger->get());
    auto sampler =
        obs::Sampler::start(telemetry, tmp.path + "/s" + tag + ".jsonl", 1);
    ASSERT_TRUE(sampler.has_value()) << sampler.error();

    SimOptions opts = base;
    opts.threads = threads;
    opts.telemetry = &telemetry;
    const PipelineResult observed =
        run_pipeline(w.nl, w.faults.faults(), w.seq, opts);
    (*sampler)->stop();
    telemetry.attach_logger(nullptr);

    EXPECT_EQ(observed.status, reference.status) << "threads=" << threads;
    EXPECT_EQ(observed.detect_frame, reference.detect_frame)
        << "threads=" << threads;
    EXPECT_EQ(observed.x_redundant, reference.x_redundant);

    // Every emitted log line is valid JSONL and the stage transitions
    // of the pipeline appear in it.
    const std::vector<std::string> lines =
        read_lines(tmp.path + "/log" + tag + ".jsonl");
    ASSERT_GE(lines.size(), 2u);
    bool saw_stage_end = false;
    for (const std::string& line : lines) {
      EXPECT_TRUE(json_well_formed(line)) << line;
      if (line.find("\"event\":\"pipeline.stage.end\"") !=
          std::string::npos) {
        saw_stage_end = true;
      }
    }
    EXPECT_TRUE(saw_stage_end);
    // The recorder window retained the same stream.
    EXPECT_NE(telemetry.recorder.dump().find("pipeline.stage"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace motsim
