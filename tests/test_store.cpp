// Run-store formats and persistence (store/run_store.h): manifest and
// checkpoint-record round trips, crash recovery of the checkpoint log,
// fingerprint-based store validation and the per-fault JSON report.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "faults/collapse.h"
#include "faults/report.h"
#include "store/campaign.h"
#include "store/fingerprint.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/strings.h"

namespace motsim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("motsim_store_" + tag + "_" +
               std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string sub(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void append_raw(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << data;
}

StoreManifest sample_manifest() {
  StoreManifest m;
  m.circuit = "s27";
  m.inputs = 4;
  m.dffs = 3;
  m.faults = 26;
  m.seed = 0xDEADBEEFCAFEull;
  m.complete = true;
  m.sequence_length = 96;
  m.segment_lengths = {64, 32};
  m.fp_netlist = 0x0123456789ABCDEFull;
  m.fp_faults = 0xFEDCBA9876543210ull;
  m.fp_sequence = 42;
  m.options.analysis = true;
  m.options.strategy = Strategy::Rmot;
  m.options.layout = VarLayout::Blocked;
  m.options.node_limit = 1234;
  m.options.fallback_frames = 5;
  m.options.checkpoint_interval = 16;
  m.options.threads = 4;
  m.options.chunk_size = 32;
  m.options.sim3_backend = Sim3Backend::BitPar;
  m.fp_options = fingerprint_options(m.options);
  return m;
}

TEST(StoreManifest, TextRoundTripPreservesEveryField) {
  const StoreManifest m = sample_manifest();
  const auto r = StoreManifest::from_text(m.to_text());
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_EQ(r->version, m.version);
  EXPECT_EQ(r->circuit, m.circuit);
  EXPECT_EQ(r->inputs, m.inputs);
  EXPECT_EQ(r->dffs, m.dffs);
  EXPECT_EQ(r->faults, m.faults);
  EXPECT_EQ(r->seed, m.seed);
  EXPECT_EQ(r->complete, m.complete);
  EXPECT_EQ(r->sequence_length, m.sequence_length);
  EXPECT_EQ(r->segment_lengths, m.segment_lengths);
  EXPECT_EQ(r->fp_netlist, m.fp_netlist);
  EXPECT_EQ(r->fp_faults, m.fp_faults);
  EXPECT_EQ(r->fp_options, m.fp_options);
  EXPECT_EQ(r->fp_sequence, m.fp_sequence);
  EXPECT_EQ(r->options, m.options);
}

TEST(StoreManifest, LegacyParallelSim3TokenStillParses) {
  // Stores written before the backend enum recorded a boolean flag;
  // it maps onto the equivalent backend.
  StoreManifest m = sample_manifest();
  std::string text = m.to_text();
  const std::string key = "opt_sim3_backend bitpar";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, key.size(), "opt_parallel_sim3 1");
  const auto r = StoreManifest::from_text(text);
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_EQ(r->options.sim3_backend, Sim3Backend::BitPar);

  text.replace(text.find("opt_parallel_sim3 1"),
               std::string("opt_parallel_sim3 1").size(),
               "opt_parallel_sim3 0");
  const auto r0 = StoreManifest::from_text(text);
  ASSERT_TRUE(r0.has_value()) << r0.error();
  EXPECT_EQ(r0->options.sim3_backend, Sim3Backend::Event);
}

TEST(StoreManifest, RejectsBadSim3BackendToken) {
  StoreManifest m = sample_manifest();
  std::string text = m.to_text();
  const std::string key = "opt_sim3_backend bitpar";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, key.size(), "opt_sim3_backend warp");
  EXPECT_FALSE(StoreManifest::from_text(text).has_value());
}

TEST(Fingerprint, Sim3BackendIsExcludedFromOptionsFingerprint) {
  // The backend is a pure performance knob with bit-identical results,
  // so a store written under one backend must validate under the other.
  SimOptions event_opts;
  event_opts.sim3_backend = Sim3Backend::Event;
  SimOptions bitpar_opts;
  bitpar_opts.sim3_backend = Sim3Backend::BitPar;
  EXPECT_EQ(fingerprint_options(event_opts), fingerprint_options(bitpar_opts));

  // ...while fields that do affect results still change the hash.
  SimOptions other = event_opts;
  other.node_limit += 1;
  EXPECT_NE(fingerprint_options(event_opts), fingerprint_options(other));
}

// Options digests of default SimOptions under the fingerprint schema
// of the plain-node BDD package (versions 2 and 3).
constexpr std::uint64_t kPlainNodeX01Digest = 0xfd2661dec891a55aull;
constexpr std::uint64_t kPlainNodeX01AnalysisDigest = 0xcf1cd14fc5d6023aull;
constexpr std::uint64_t kPlainNodeSymbolicDigest = 0x2c88ad91e5bbf2b7ull;
constexpr std::uint64_t kPlainNodeSymbolicAnalysisDigest =
    0xb0f83d91004f5417ull;
/// ... and of default SimOptions with checkpoint_interval 32, the
/// options a default campaign records.
constexpr std::uint64_t kPlainNodeCampaignDigest = 0x0009c6e0400f46d7ull;

TEST(Fingerprint, OnlySymbolicRunsLeftThePlainNodeSchema) {
  // Complement edges move fallback windows, so symbolic stores written
  // with the plain-node package hash differently now; X01-only runs
  // never build a BDD and keep their digests.
  SimOptions o;
  o.run_symbolic = false;
  EXPECT_EQ(fingerprint_options(o), kPlainNodeX01Digest);
  o.analysis = true;
  EXPECT_EQ(fingerprint_options(o), kPlainNodeX01AnalysisDigest);
  o.run_symbolic = true;
  EXPECT_NE(fingerprint_options(o), kPlainNodeSymbolicAnalysisDigest);
  o.analysis = false;
  EXPECT_NE(fingerprint_options(o), kPlainNodeSymbolicDigest);
}

TEST(StoreManifest, RejectsUnknownKeyMissingVersionAndBadSegments) {
  EXPECT_FALSE(StoreManifest::from_text("version 1\nbogus_key 7\n"));
  EXPECT_FALSE(StoreManifest::from_text("circuit s27\n"));  // no version
  EXPECT_FALSE(StoreManifest::from_text("version 9\n"));    // unknown version
  // segment_lengths must sum to sequence_length.
  StoreManifest m = sample_manifest();
  m.segment_lengths = {64, 31};
  EXPECT_FALSE(StoreManifest::from_text(m.to_text()));
}

ChunkCheckpoint sample_checkpoint() {
  ChunkCheckpoint ck;
  ck.chunk = 3;
  ck.frame = 96;
  ck.in_window = true;
  ck.window_left = 2;
  ck.complete = false;
  ck.good_state = {Val3::One, Val3::X, Val3::Zero};
  ck.fault_index = {7, 12, 40};
  ck.status = {FaultStatus::Undetected, FaultStatus::DetectedMot,
               FaultStatus::Undetected};
  ck.detect_frame = {0, 55, 0};
  ck.diff = {{{0, Val3::X}, {2, Val3::One}}, {}, {{1, Val3::Zero}}};
  return ck;
}

void expect_checkpoint_eq(const ChunkCheckpoint& a, const ChunkCheckpoint& b) {
  EXPECT_EQ(a.chunk, b.chunk);
  EXPECT_EQ(a.frame, b.frame);
  EXPECT_EQ(a.in_window, b.in_window);
  EXPECT_EQ(a.window_left, b.window_left);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.good_state, b.good_state);
  EXPECT_EQ(a.fault_index, b.fault_index);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.detect_frame, b.detect_frame);
  EXPECT_EQ(a.diff, b.diff);
}

TEST(CheckpointLine, RoundTrip) {
  const ChunkCheckpoint ck = sample_checkpoint();
  const auto r = parse_checkpoint_line(serialize_checkpoint_line(ck));
  ASSERT_TRUE(r.has_value()) << r.error();
  expect_checkpoint_eq(*r, ck);
}

TEST(CheckpointLine, RoundTripEmptyChunk) {
  ChunkCheckpoint ck;
  ck.complete = true;
  const auto r = parse_checkpoint_line(serialize_checkpoint_line(ck));
  ASSERT_TRUE(r.has_value()) << r.error();
  expect_checkpoint_eq(*r, ck);
}

TEST(CheckpointLine, RejectsCorruption) {
  const std::string good = serialize_checkpoint_line(sample_checkpoint());
  // Truncations anywhere must be caught by the END terminator (or
  // earlier by a failed field parse).
  for (std::size_t cut : {good.size() - 1, good.size() - 4, good.size() / 2,
                          std::size_t{5}}) {
    EXPECT_FALSE(parse_checkpoint_line(good.substr(0, cut)).has_value())
        << "cut at " << cut;
  }
  EXPECT_FALSE(parse_checkpoint_line("").has_value());
  EXPECT_FALSE(parse_checkpoint_line("KCPT 0 0 0 0 0 - 0 END").has_value());
  EXPECT_FALSE(parse_checkpoint_line(good + " tail").has_value());
  // Unknown status token and bad diff syntax.
  EXPECT_FALSE(
      parse_checkpoint_line("CKPT 0 4 0 0 0 1X0 1 7 QQ 0 - END").has_value());
  EXPECT_FALSE(
      parse_checkpoint_line("CKPT 0 4 0 0 0 1X0 1 7 U 0 1: END").has_value());
  EXPECT_FALSE(
      parse_checkpoint_line("CKPT 0 4 0 0 2 1X0 0 END").has_value());
}

// ---- RunStore on disk ------------------------------------------------------

struct StoreFixture {
  StoreFixture() : nl(make_s27()), faults(nl) {
    Rng rng(7);
    seq = random_sequence(nl, 16, rng);
    manifest.circuit = nl.name();
    manifest.inputs = nl.input_count();
    manifest.dffs = nl.dff_count();
    manifest.faults = faults.size();
    manifest.sequence_length = seq.size();
    manifest.segment_lengths = {seq.size()};
    manifest.fp_netlist = fingerprint_netlist(nl);
    manifest.fp_faults = fingerprint_faults(faults.faults());
    manifest.fp_options = fingerprint_options(manifest.options);
    manifest.fp_sequence = fingerprint_sequence(seq);
    initial.assign(faults.size(), FaultStatus::Undetected);
    initial[3] = FaultStatus::XRedundant;
  }
  Netlist nl;
  CollapsedFaultList faults;
  TestSequence seq;
  StoreManifest manifest;
  std::vector<FaultStatus> initial;
};

TEST(RunStore, CreateOpenRoundTripAndDoubleCreateRefused) {
  TempDir tmp("create");
  StoreFixture fx;
  auto store = RunStore::create(tmp.sub("s"), fx.manifest, fx.seq, fx.initial);
  ASSERT_TRUE(store.has_value()) << store.error();

  auto reopened = RunStore::open(tmp.sub("s"));
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  EXPECT_EQ(reopened->manifest().circuit, "s27");
  EXPECT_EQ(reopened->manifest().fp_sequence, fx.manifest.fp_sequence);

  const auto loaded = reopened->load_sequence();
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(*loaded, fx.seq);

  const auto state = reopened->load_state();
  ASSERT_TRUE(state.has_value()) << state.error();
  EXPECT_EQ(state->initial_status, fx.initial);
  EXPECT_TRUE(state->checkpoints.empty());

  const auto again =
      RunStore::create(tmp.sub("s"), fx.manifest, fx.seq, fx.initial);
  ASSERT_FALSE(again.has_value());
  EXPECT_NE(again.error().find("already contains"), std::string::npos);
}

TEST(RunStore, LoadStateKeepsNewestRecordPerChunk) {
  TempDir tmp("newest");
  StoreFixture fx;
  auto store = RunStore::create(tmp.sub("s"), fx.manifest, fx.seq, fx.initial);
  ASSERT_TRUE(store.has_value()) << store.error();

  ChunkCheckpoint a = sample_checkpoint();
  a.chunk = 0;
  a.frame = 8;
  ChunkCheckpoint b = a;
  b.chunk = 1;
  b.frame = 8;
  ChunkCheckpoint a2 = a;
  a2.frame = 16;
  store->append_checkpoint(a);
  store->append_checkpoint(b);
  store->append_checkpoint(a2);

  const auto state = store->load_state();
  ASSERT_TRUE(state.has_value()) << state.error();
  ASSERT_EQ(state->checkpoints.size(), 2u);
  EXPECT_EQ(state->checkpoints[0].chunk, 0u);
  EXPECT_EQ(state->checkpoints[0].frame, 16u);  // newest wins
  EXPECT_EQ(state->checkpoints[1].chunk, 1u);
  EXPECT_EQ(state->checkpoints[1].frame, 8u);
}

TEST(RunStore, TornTrailingLineIsDroppedCorruptionElsewhereIsNot) {
  TempDir tmp("torn");
  StoreFixture fx;
  auto store = RunStore::create(tmp.sub("s"), fx.manifest, fx.seq, fx.initial);
  ASSERT_TRUE(store.has_value()) << store.error();
  ChunkCheckpoint a = sample_checkpoint();
  a.chunk = 0;
  store->append_checkpoint(a);

  // Crash mid-append: an unterminated prefix of a CKPT record. Load
  // must drop it and still deliver the intact checkpoint.
  const std::string torn =
      serialize_checkpoint_line(sample_checkpoint()).substr(0, 30);
  append_raw(store->checkpoints_path(), torn);
  auto state = store->load_state();
  ASSERT_TRUE(state.has_value()) << state.error();
  ASSERT_EQ(state->checkpoints.size(), 1u);
  EXPECT_EQ(state->checkpoints[0].frame, a.frame);

  // A fully-written (newline-terminated) record after the torn one
  // means the corruption is *not* trailing: that store is damaged and
  // loading must fail loudly instead of silently skipping records.
  append_raw(store->checkpoints_path(),
             "\n" + serialize_checkpoint_line(a) + "\n");
  EXPECT_FALSE(store->load_state().has_value());
}

TEST(RunStore, OpenRejectsHandEditedManifest) {
  TempDir tmp("edited");
  StoreFixture fx;
  {
    auto store =
        RunStore::create(tmp.sub("s"), fx.manifest, fx.seq, fx.initial);
    ASSERT_TRUE(store.has_value()) << store.error();
  }
  auto reopened = RunStore::open(tmp.sub("s"));
  ASSERT_TRUE(reopened.has_value());
  append_raw(reopened->manifest_path(), "mystery_field 3\n");
  const auto bad = RunStore::open(tmp.sub("s"));
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().find("mystery_field"), std::string::npos);
}

// ---- campaign-level store validation ---------------------------------------

TEST(CampaignStore, WritesAllArtifactsAndFreezesXred) {
  TempDir tmp("artifacts");
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 24, rng);
  SimOptions opts;
  opts.checkpoint_interval = 8;

  const auto r =
      run_campaign(nl, faults.faults(), seq, opts, tmp.sub("camp"));
  ASSERT_TRUE(r.has_value()) << r.error();
  EXPECT_TRUE(fs::exists(tmp.sub("camp") + "/manifest.txt"));
  EXPECT_TRUE(fs::exists(tmp.sub("camp") + "/sequence.txt"));
  EXPECT_TRUE(fs::exists(tmp.sub("camp") + "/checkpoints.log"));
  EXPECT_TRUE(fs::exists(tmp.sub("camp") + "/events.jsonl"));
  EXPECT_TRUE(fs::exists(tmp.sub("camp") + "/report.json"));

  auto store = RunStore::open(tmp.sub("camp"));
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_TRUE(store->manifest().complete);
  EXPECT_EQ(store->manifest().sequence_length, seq.size());

  // The INIT record froze the ID_X-red verdict.
  const auto state = store->load_state();
  ASSERT_TRUE(state.has_value()) << state.error();
  std::size_t frozen = 0;
  for (FaultStatus s : state->initial_status) {
    if (s == FaultStatus::XRedundant) ++frozen;
  }
  EXPECT_EQ(frozen, r->x_redundant);

  // events.jsonl: one JSON object per line, braces intact.
  std::istringstream events(slurp(tmp.sub("camp") + "/events.jsonl"));
  std::string line;
  std::size_t count = 0;
  while (std::getline(events, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_GE(count, 2u);  // at least run_start + run_complete
  const std::string report = slurp(tmp.sub("camp") + "/report.json");
  EXPECT_NE(report.find("\"summary\""), std::string::npos);
  EXPECT_NE(report.find("\"faults\""), std::string::npos);
}

TEST(CampaignStore, RejectsMismatchedWorkloads) {
  TempDir tmp("mismatch");
  const Netlist s27 = make_s27();
  const CollapsedFaultList f27(s27);
  Rng rng(5);
  const TestSequence seq = random_sequence(s27, 16, rng);
  SimOptions opts;
  ASSERT_TRUE(
      run_campaign(s27, f27.faults(), seq, opts, tmp.sub("camp")).has_value());

  // Different netlist → netlist fingerprint mismatch.
  const Netlist other = make_benchmark("s298");
  const CollapsedFaultList fother(other);
  const auto wrong_nl =
      resume_campaign(other, fother.faults(), tmp.sub("camp"));
  ASSERT_FALSE(wrong_nl.has_value());
  EXPECT_NE(wrong_nl.error().find("different netlist"), std::string::npos);

  // Same netlist, truncated fault list → fault fingerprint mismatch.
  std::vector<Fault> fewer = f27.faults();
  fewer.pop_back();
  const auto wrong_faults = resume_campaign(s27, fewer, tmp.sub("camp"));
  ASSERT_FALSE(wrong_faults.has_value());
  EXPECT_NE(wrong_faults.error().find("different fault list"),
            std::string::npos);

  // Tampered sequence.txt → sequence fingerprint mismatch.
  append_raw(tmp.sub("camp") + "/sequence.txt", "1111\n");
  const auto wrong_seq = resume_campaign(s27, f27.faults(), tmp.sub("camp"));
  ASSERT_FALSE(wrong_seq.has_value());
  EXPECT_NE(wrong_seq.error().find("does not match the manifest"),
            std::string::npos);
}

TEST(CampaignStore, RefusesAStoreOfThePlainNodeSchema) {
  // A store written before complement edges: its manifest carries the
  // old-schema digest of the same options. Resuming it would replay
  // other fallback windows, so it is refused as a different workload.
  TempDir tmp("old_schema");
  const Netlist s27 = make_s27();
  const CollapsedFaultList f27(s27);
  Rng rng(5);
  const TestSequence seq = random_sequence(s27, 16, rng);
  SimOptions opts;
  opts.checkpoint_interval = 32;
  ASSERT_TRUE(
      run_campaign(s27, f27.faults(), seq, opts, tmp.sub("camp")).has_value());
  ASSERT_TRUE(
      resume_campaign(s27, f27.faults(), tmp.sub("camp")).has_value());

  const std::string manifest = tmp.sub("camp") + "/manifest.txt";
  std::string text = slurp(manifest);
  const std::string line =
      "fp_options " + fingerprint_to_hex(fingerprint_options(opts));
  const auto at = text.find(line);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, line.size(),
               "fp_options " + fingerprint_to_hex(kPlainNodeCampaignDigest));
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;

  const auto old = resume_campaign(s27, f27.faults(), tmp.sub("camp"));
  ASSERT_FALSE(old.has_value());
  EXPECT_NE(old.error().find("different workload"), std::string::npos)
      << old.error();
}

TEST(CampaignStore, RefusesXInputsEmptySequencesAndNoSymbolic) {
  TempDir tmp("refuse");
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  SimOptions opts;

  EXPECT_FALSE(
      run_campaign(nl, faults.faults(), {}, opts, tmp.sub("a")).has_value());

  TestSequence with_x = sequence_from_strings({"10X1"});
  EXPECT_FALSE(run_campaign(nl, faults.faults(), with_x, opts, tmp.sub("b"))
                   .has_value());

  Rng rng(1);
  const TestSequence seq = random_sequence(nl, 4, rng);
  SimOptions no_sym;
  no_sym.run_symbolic = false;
  EXPECT_FALSE(run_campaign(nl, faults.faults(), seq, no_sym, tmp.sub("c"))
                   .has_value());
}

TEST(CampaignStore, TooSmallNodeLimitLeavesNoStore) {
  // s298's 14 flip-flops need node_limit >= 2 at the default factor 8;
  // no engine could ever start, so no store may be half-created.
  TempDir tmp("limit");
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 16, rng);
  SimOptions opts;
  opts.node_limit = 1;
  opts.threads = 2;
  const auto res =
      run_campaign(nl, faults.faults(), seq, opts, tmp.sub("camp"));
  ASSERT_FALSE(res.has_value());
  EXPECT_NE(res.error().find("the smallest node_limit that works is 2"),
            std::string::npos)
      << res.error();
  EXPECT_FALSE(fs::exists(tmp.sub("camp")));
}

// ---- fault report ----------------------------------------------------------

TEST(FaultReportJson, EscapesAndValidates) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");

  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
  status[0] = FaultStatus::DetectedMot;
  std::vector<std::uint32_t> frames(faults.size(), 0);
  frames[0] = 9;

  const FaultReport report =
      FaultReport::build(nl, faults.faults(), status, frames);
  ASSERT_EQ(report.entries.size(), faults.size());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"detect_frame\": 9"), std::string::npos);
  EXPECT_NE(json.find("detected(MOT)"), std::string::npos);

  // Size mismatches are precondition violations, not silent truncation.
  status.pop_back();
  EXPECT_THROW((void)FaultReport::build(nl, faults.faults(), status, frames),
               std::invalid_argument);
}

}  // namespace
}  // namespace motsim
