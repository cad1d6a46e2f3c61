// motsim_cli — command-line front end for the fault-simulation
// pipeline and for checkpointed campaigns.
//
//   motsim_cli [options] <circuit>
//
//   <circuit>        roster name (s27, s298, ...) or path to a
//                    .bench file
//   --list           list the benchmark roster and exit
//   --vectors N      random test-sequence length       (default 200)
//   --seed N         workload seed                     (default 1)
//   --strategy S     sot | rmot | mot                  (default mot)
//   --node-limit N   hybrid OBDD space limit           (default 30000)
//   --layout L       interleaved | blocked             (default interleaved)
//   --threads N      symbolic-stage workers; 0 = all
//                    hardware threads                  (default 1)
//   --chunk-size N   faults per parallel shard; 0 = auto
//   --progress       live progress of the symbolic stage on stderr
//   --lint           static analysis first: structurally undetectable
//                    faults are pruned up front (verdict static-X-red)
//   --no-trim        disable execution-redundancy trimming in the
//                    symbolic stage (bit-identical; perf knob only)
//   --no-sgraph      disable the s-graph MOT->SOT downgrade in the
//                    symbolic stage (bit-identical; perf knob only)
//   --no-xred        skip the ID_X-red stage
//   --no-symbolic    three-valued only (pure X01)
//   --sim3-backend B three-valued backend: bitpar | event (default bitpar)
//   --deterministic  compacted sequence instead of random vectors
//   --sync           also run the synchronizing-sequence analysis
//   --show-undetected  list the faults left undetected
//   --stats          structural statistics
//   --reset          insert a synchronous reset before everything
//   --dot FILE       Graphviz export of the netlist
//   --save-seq FILE / --load-seq FILE   sequence file I/O
//   --report-json FILE   full per-fault report as JSON
//
// Observability (docs/OBSERVABILITY.md):
//   --metrics-json FILE  engine metrics snapshot as one JSON object
//   --trace FILE         Chrome trace_event JSON (load in Perfetto or
//                        chrome://tracing)
//
// Campaign mode (docs/CHECKPOINT.md):
//   --store DIR            run as a checkpointed campaign in DIR
//   --resume               continue the campaign persisted in DIR
//   --extend-vectors N     append N random vectors to a completed
//                          campaign and simulate only the extension
//   --checkpoint-interval K  sync/checkpoint every K frames
//                          (campaign default 32; 0 = engine default)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "analysis/sgraph.h"
#include "bench_data/registry.h"
#include "circuit/bench_io.h"
#include "circuit/stats.h"
#include "circuit/transform.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "core/progress.h"
#include "core/symbolic_fsm.h"
#include "faults/collapse.h"
#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "faults/report.h"
#include "store/campaign.h"
#include "store/run_store.h"
#include "tpg/compaction.h"
#include "tpg/sequence_io.h"
#include "tpg/sequences.h"
#include "util/cli_args.h"
#include "util/rng.h"
#include "util/signals.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/version.h"

using namespace motsim;

namespace {

struct Options {
  std::string circuit;
  /// Engine configuration — the unified SimOptions surface; the CLI
  /// flags below map 1:1 onto its fields.
  SimOptions sim;
  std::size_t vectors = 200;
  bool vectors_set = false;
  bool threads_set = false;
  bool sim3_backend_set = false;
  bool progress = false;
  bool deterministic = false;
  bool sync = false;
  bool show_undetected = false;
  bool list = false;
  bool stats = false;
  bool json = false;
  bool add_reset = false;
  std::string dot_file;
  std::string save_seq;
  std::string load_seq;
  std::string report_json;
  std::string metrics_json;
  std::string trace_file;
  std::string log_path;
  std::string log_level;
  std::string sample_file = "motsim_samples.jsonl";
  std::size_t sample_interval_ms = 0;
  std::string store_dir;
  bool resume = false;
  std::size_t extend_vectors = 0;
};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: motsim_cli [options] <circuit>\n"
               "  <circuit>          roster name (try --list) or .bench "
               "file path\n"
               "  --list             list the benchmark roster\n"
               "  --vectors N        random sequence length (default 200)\n"
               "  --seed N           workload seed (default 1)\n"
               "  --strategy S       sot | rmot | mot (default mot)\n"
               "  --node-limit N     hybrid OBDD limit (default 30000)\n"
               "  --layout L         interleaved | blocked\n"
               "  --threads N        symbolic-stage workers; 0 = all "
               "hardware threads\n"
               "  --chunk-size N     faults per parallel shard (0 = auto)\n"
               "  --progress         live symbolic-stage progress on "
               "stderr\n"
               "  --lint             prune statically undetectable faults\n"
               "                     first (see docs/ANALYSIS.md)\n"
               "  --no-trim          disable execution-redundancy trimming\n"
               "                     in the symbolic stage (bit-identical\n"
               "                     results; see docs/ANALYSIS.md)\n"
               "  --no-sgraph        disable the s-graph MOT->SOT downgrade\n"
               "                     in the symbolic stage (bit-identical\n"
               "                     results; see docs/ANALYSIS.md)\n"
               "  --no-xred          skip ID_X-red\n"
               "  --no-symbolic      pure three-valued run\n"
               "  --sim3-backend B   three-valued backend: bitpar (default,\n"
               "                     64 faults/word) or event (serial\n"
               "                     oracle); identical results (see\n"
               "                     docs/SIM3.md)\n"
               "  --deterministic    compacted (targeted) sequence\n"
               "  --sync             synchronizing-sequence analysis\n"
               "  --show-undetected  list undetected faults\n"
               "  --stats            print structural statistics\n"
               "  --reset            insert a synchronous reset first\n"
               "  --dot FILE         write the netlist as Graphviz dot\n"
               "  --json             print the summary as JSON too\n"
               "  --save-seq FILE    save the test sequence\n"
               "  --load-seq FILE    replay a saved sequence instead of\n"
               "                     generating one\n"
               "  --report-json FILE full per-fault report as JSON\n"
               "observability (see docs/OBSERVABILITY.md):\n"
               "  --metrics-json FILE  engine metrics snapshot as JSON\n"
               "  --trace FILE       Chrome trace_event JSON for\n"
               "                     Perfetto / chrome://tracing\n"
               "  --log PATH         structured JSONL log ('-' = stderr;\n"
               "                     also MOTSIM_LOG)\n"
               "  --log-level LVL    trace|debug|info|warn|error|off\n"
               "                     (default info; also MOTSIM_LOG_LEVEL)\n"
               "  --sample-interval N  sample gauges + RSS every N ms\n"
               "                     to --sample-file while running\n"
               "  --sample-file PATH sampler JSONL sink (default\n"
               "                     motsim_samples.jsonl)\n"
               "campaign mode (see docs/CHECKPOINT.md):\n"
               "  --store DIR        checkpointed campaign in DIR\n"
               "  --resume           continue the campaign in --store DIR\n"
               "  --extend-vectors N append N random vectors to a\n"
               "                     completed campaign; only still-live\n"
               "                     faults are re-simulated\n"
               "  --checkpoint-interval K  checkpoint every K frames\n"
               "                     (campaign default 32)\n"
               "  --version          print version and exit\n");
  std::exit(code);
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::fprintf(stderr, "run 'motsim_cli --help' for usage\n");
  std::exit(2);
}

/// Strict unsigned parse via util/cli_args (shared with motsim_lint);
/// any parse problem is fatal with the helper's message.
std::uint64_t parse_u64_flag(const std::string& flag, const std::string& v) {
  const auto r = parse_cli_u64(flag, v);
  if (!r.has_value()) fail(r.error());
  return *r;
}

std::size_t parse_size_flag(const std::string& flag, const std::string& v) {
  const auto r = parse_cli_size(flag, v);
  if (!r.has_value()) fail(r.error());
  return *r;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) fail(a + " expects a value");
      return argv[++i];
    };
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--version") {
      std::printf("%s\n", build_info_string());
      std::exit(0);
    }
    else if (a == "--list") o.list = true;
    else if (a == "--vectors") {
      o.vectors = parse_size_flag(a, next());
      o.vectors_set = true;
    } else if (a == "--seed") o.sim.seed = parse_u64_flag(a, next());
    else if (a == "--node-limit") o.sim.node_limit = parse_size_flag(a, next());
    else if (a == "--threads") {
      o.sim.threads = parse_size_flag(a, next());
      o.threads_set = true;
    } else if (a == "--chunk-size") {
      o.sim.chunk_size = parse_size_flag(a, next());
    } else if (a == "--checkpoint-interval") {
      o.sim.checkpoint_interval = parse_size_flag(a, next());
    } else if (a == "--progress") o.progress = true;
    else if (a == "--strategy") {
      const std::string s = to_lower(next());
      if (s == "sot") o.sim.strategy = Strategy::Sot;
      else if (s == "rmot") o.sim.strategy = Strategy::Rmot;
      else if (s == "mot") o.sim.strategy = Strategy::Mot;
      else fail("--strategy expects sot, rmot or mot, got '" + s + "'");
    } else if (a == "--layout") {
      const std::string s = to_lower(next());
      if (s == "interleaved") o.sim.layout = VarLayout::Interleaved;
      else if (s == "blocked") o.sim.layout = VarLayout::Blocked;
      else fail("--layout expects interleaved or blocked, got '" + s + "'");
    } else if (a == "--lint") o.sim.analysis = true;
    else if (a == "--no-trim") o.sim.trim = false;
    else if (a == "--no-sgraph") o.sim.sgraph = false;
    else if (a == "--no-xred") o.sim.run_xred = false;
    else if (a == "--no-symbolic") o.sim.run_symbolic = false;
    else if (a == "--sim3-backend") {
      const std::string s = to_lower(next());
      const std::optional<Sim3Backend> b = parse_sim3_backend(s);
      if (!b.has_value()) {
        fail("--sim3-backend expects event or bitpar, got '" + s + "'");
      }
      o.sim.sim3_backend = *b;
      o.sim3_backend_set = true;
    }
    else if (a == "--deterministic") o.deterministic = true;
    else if (a == "--sync") o.sync = true;
    else if (a == "--show-undetected") o.show_undetected = true;
    else if (a == "--stats") o.stats = true;
    else if (a == "--json") o.json = true;
    else if (a == "--reset") o.add_reset = true;
    else if (a == "--dot") o.dot_file = next();
    else if (a == "--save-seq") o.save_seq = next();
    else if (a == "--load-seq") o.load_seq = next();
    else if (a == "--report-json") o.report_json = next();
    else if (a == "--metrics-json") o.metrics_json = next();
    else if (a == "--trace") o.trace_file = next();
    else if (a == "--log") o.log_path = next();
    else if (a == "--log-level") o.log_level = next();
    else if (a == "--sample-interval") {
      o.sample_interval_ms = parse_size_flag(a, next());
    } else if (a == "--sample-file") o.sample_file = next();
    else if (a == "--store") o.store_dir = next();
    else if (a == "--resume") o.resume = true;
    else if (a == "--extend-vectors") {
      o.extend_vectors = parse_size_flag(a, next());
      if (o.extend_vectors == 0) {
        fail("--extend-vectors expects a positive vector count");
      }
    } else if (!a.empty() && a[0] == '-') {
      fail("unknown option '" + a + "'");
    } else if (o.circuit.empty()) {
      o.circuit = a;
    } else {
      fail("unexpected argument '" + a + "' (circuit already given: '" +
           o.circuit + "')");
    }
  }
  if (!o.list && o.circuit.empty()) fail("no circuit given");

  // Flag-combination rules: catch contradictions here, with named
  // messages, instead of surprising the user downstream.
  if (o.resume && o.store_dir.empty()) fail("--resume requires --store DIR");
  if (o.extend_vectors != 0 && o.store_dir.empty()) {
    fail("--extend-vectors requires --store DIR");
  }
  if (o.resume && o.extend_vectors != 0) {
    fail("--resume and --extend-vectors are mutually exclusive (resume an "
         "incomplete campaign first, then extend it)");
  }
  if (!o.store_dir.empty() && !o.sim.run_symbolic) {
    fail("--store campaigns require the symbolic engine; drop "
         "--no-symbolic");
  }
  if (o.resume || o.extend_vectors != 0) {
    if (o.vectors_set) {
      fail("--vectors cannot be combined with --resume/--extend-vectors "
           "(the campaign sequence lives in the store)");
    }
    if (o.deterministic) {
      fail("--deterministic cannot be combined with "
           "--resume/--extend-vectors");
    }
    if (!o.load_seq.empty()) {
      fail("--load-seq cannot be combined with --resume/--extend-vectors");
    }
    if (!o.save_seq.empty()) {
      fail("--save-seq cannot be combined with --resume/--extend-vectors "
           "(the sequence is already in the store)");
    }
  }
  return o;
}

/// --progress sink: a line on stderr every few frames plus one per
/// fallback window and per finished pipeline stage. Under --threads N
/// the parallel driver serializes the callbacks, so plain counters
/// suffice. The throughput figure counts every on_frame call, so with
/// fault sharding it is aggregate frames/s across the shards and the
/// ETA (based on the reporting shard's frame index) is approximate.
class StderrProgress final : public ProgressSink {
 public:
  /// `total_frames` sizes the ETA; pass 0 when the sequence length is
  /// not known up front (campaign resume) to omit it.
  explicit StderrProgress(std::size_t total_frames)
      : total_frames_(total_frames) {}

  void on_frame(std::size_t frame, std::size_t live_nodes,
                std::size_t faults_remaining) override {
    ++frames_done_;
    if (frame % 25 != 0) return;
    const double elapsed = timer_.elapsed_seconds();
    const double fps =
        elapsed > 0 ? static_cast<double>(frames_done_) / elapsed : 0.0;
    char rate[64] = "";
    if (fps > 0) {
      std::snprintf(rate, sizeof(rate), ", %.0f frames/s", fps);
    }
    char eta[48] = "";
    if (fps > 0 && total_frames_ > frame) {
      std::snprintf(eta, sizeof(eta), ", ETA %.1f s",
                    static_cast<double>(total_frames_ - frame) / fps);
    }
    std::fprintf(stderr,
                 "[sym] frame %zu: %zu live nodes, %zu faults left, "
                 "%zu detected so far%s%s\n",
                 frame, live_nodes, faults_remaining, detected_, rate, eta);
  }
  void on_fallback_window(std::size_t frame,
                          std::size_t window_frames) override {
    std::fprintf(stderr,
                 "[sym] frame %zu: node limit hit — three-valued window "
                 "of %zu frames\n",
                 frame, window_frames);
  }
  void on_fault_detected(std::size_t /*fault_index*/,
                         std::uint32_t /*frame*/) override {
    ++detected_;
  }
  void on_stage(const char* name, double seconds) override {
    std::fprintf(stderr, "[stage] %-16s %.3f s\n", name, seconds);
  }

 private:
  std::size_t total_frames_;
  Stopwatch timer_;
  std::size_t frames_done_ = 0;
  std::size_t detected_ = 0;
};

/// Flushes --metrics-json / --trace outputs (when requested) and, under
/// --progress, the human-readable telemetry digest. Returns 0 or 1.
int write_telemetry_outputs(const Options& o,
                            const obs::Telemetry* telemetry) {
  if (telemetry == nullptr) return 0;
  if (o.progress) {
    std::fprintf(stderr, "\n--- telemetry ---\n%s",
                 telemetry->summary().c_str());
  }
  if (!o.metrics_json.empty()) {
    if (const auto w = telemetry->write_metrics_json(o.metrics_json);
        !w.has_value()) {
      std::fprintf(stderr, "error: %s\n", w.error().c_str());
      return 1;
    }
    std::printf("wrote metrics to %s\n", o.metrics_json.c_str());
  }
  if (!o.trace_file.empty()) {
    if (const auto w = telemetry->write_trace_json(o.trace_file);
        !w.has_value()) {
      std::fprintf(stderr, "error: %s\n", w.error().c_str());
      return 1;
    }
    std::printf("wrote trace to %s (load in Perfetto or "
                "chrome://tracing)\n",
                o.trace_file.c_str());
  }
  return 0;
}

Netlist load_circuit(const std::string& name) {
  if (find_benchmark(name) != nullptr) return make_benchmark(name);
  std::ifstream file(name);
  if (!file) {
    std::fprintf(stderr,
                 "error: '%s' is neither a roster circuit nor a readable "
                 ".bench file\n",
                 name.c_str());
    std::exit(1);
  }
  return parse_bench(file, name);
}

int write_report_json(const Options& o, const Netlist& nl,
                      const std::vector<Fault>& faults,
                      const std::vector<FaultStatus>& status,
                      const std::vector<std::uint32_t>& detect_frame) {
  if (o.report_json.empty()) return 0;
  const FaultReport report =
      FaultReport::build(nl, faults, status, detect_frame);
  std::ofstream out(o.report_json, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", o.report_json.c_str());
    return 1;
  }
  out << report.to_json();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: I/O error writing '%s'\n",
                 o.report_json.c_str());
    return 1;
  }
  std::printf("wrote per-fault report to %s\n", o.report_json.c_str());
  return 0;
}

void show_undetected(const Netlist& nl, const std::vector<Fault>& faults,
                     const std::vector<FaultStatus>& status) {
  std::printf("\nundetected faults:\n");
  for (const std::string& name :
       faults_with_status(nl, faults, status, FaultStatus::Undetected)) {
    std::printf("  %s\n", name.c_str());
  }
  for (const std::string& name :
       faults_with_status(nl, faults, status, FaultStatus::XRedundant)) {
    std::printf("  %s (X-redundant)\n", name.c_str());
  }
}

void run_sync_analysis(const Netlist& nl) {
  std::printf("\n--- synchronizing-sequence analysis ---\n");
  bdd::BddManager mgr;
  const SymbolicFsm fsm(nl, mgr, StateVars(nl.dff_count()));
  const SyncSearchResult sr = find_synchronizing_sequence(fsm);
  if (sr.found) {
    std::printf("synchronizing sequence of length %zu found "
                "(%zu uncertainty sets explored)\n",
                sr.sequence.size(), sr.explored);
  } else {
    std::printf("no synchronizing sequence within bounds; smallest "
                "uncertainty set: %.0f states\n",
                sr.final_states);
    std::printf("(three-valued simulation will under-approximate badly "
                "on this circuit — use MOT)\n");
  }
}

/// Campaign interrupt point: checkpoint taps run *after* the store
/// persisted the checkpoint, so throwing from here once SIGINT/SIGTERM
/// was seen aborts the campaign with the newest checkpoint safely on
/// disk — `--resume` continues exactly from it.
class InterruptTap final : public CheckpointSink {
 public:
  void on_checkpoint(const ChunkCheckpoint&) override {
    if (stop_requested()) {
      throw std::runtime_error(
          "interrupted by signal (checkpoint flushed)");
    }
  }
};

/// Campaign front end: fresh run, resume, or incremental extension.
int run_campaign_mode(const Options& o, const Netlist& nl,
                      const std::vector<Fault>& faults,
                      const TestSequence& seq,
                      obs::Telemetry* telemetry) {
  StderrProgress progress(seq.size());
  ProgressSink* sink = o.progress ? &progress : nullptr;
  InterruptTap interrupt;
  const std::optional<std::size_t> threads =
      o.threads_set ? std::optional<std::size_t>(o.sim.threads)
                    : std::nullopt;

  Expected<CampaignResult, std::string> res =
      Unexpected<std::string>{"unreachable"};
  const char* mode = "fresh";
  // An explicit --sim3-backend overrides the backend the
  // store recorded (pure perf knob, results identical either way).
  const std::optional<Sim3Backend> backend =
      o.sim3_backend_set ? std::optional<Sim3Backend>(o.sim.sim3_backend)
                         : std::nullopt;
  if (o.resume) {
    mode = "resumed";
    res = resume_campaign(nl, faults, o.store_dir, threads, sink,
                          &interrupt, telemetry, backend);
  } else if (o.extend_vectors != 0) {
    mode = "extended";
    // Extension vectors continue the stored seed's random stream: the
    // generator is replayed past every frame the store already holds,
    // so repeated extensions are reproducible from the manifest alone.
    auto store = RunStore::open(o.store_dir);
    if (!store.has_value()) {
      std::fprintf(stderr, "error: %s\n", store.error().c_str());
      return 1;
    }
    Rng rng(store->manifest().seed);
    (void)random_sequence(nl, store->manifest().sequence_length, rng);
    const TestSequence extra = random_sequence(nl, o.extend_vectors, rng);
    std::printf("extension: %zu random vectors (continuing seed %llu)\n",
                extra.size(),
                static_cast<unsigned long long>(store->manifest().seed));
    res = extend_campaign(nl, faults, extra, o.store_dir, threads, sink,
                          &interrupt, telemetry, backend);
  } else {
    SimOptions opts = o.sim;
    opts.telemetry = telemetry;
    res = run_campaign(nl, faults, seq, opts, o.store_dir, sink,
                       &interrupt);
  }

  if (!res.has_value()) {
    if (stop_requested()) {
      std::fprintf(stderr,
                   "\ninterrupted by signal %d — campaign state through "
                   "the last checkpoint is in %s; continue with "
                   "'motsim_cli --store %s --resume %s'\n",
                   stop_signal(), o.store_dir.c_str(), o.store_dir.c_str(),
                   o.circuit.c_str());
      return 128 + stop_signal();
    }
    std::fprintf(stderr, "error: %s\n", res.error().c_str());
    return 1;
  }
  const CampaignResult& r = *res;
  std::printf("\n--- campaign (%s) in %s ---\n", mode, o.store_dir.c_str());
  std::printf("frames:     %zu total%s\n", r.frames_total,
              r.resumed ? " (continued from checkpoints)" : "");
  std::printf("X-redundant %zu faults (frozen at the base run)\n",
              r.x_redundant);
  if (r.static_x_redundant != 0 || r.static_untestable != 0) {
    std::printf("static:     %zu static-X-red, %zu untestable faults "
                "(frozen at the base run)\n",
                r.static_x_redundant, r.static_untestable);
  }
  std::printf("engine:     %zu checkpoint syncs, %zu fallback windows%s\n",
              r.sym.checkpoint_syncs, r.sym.fallback_windows,
              r.sym.used_fallback ? "  [*coverage is a lower bound]" : "");
  std::printf("\n%s", r.summary().to_string().c_str());
  if (o.json) std::printf("%s\n", r.summary().to_json().c_str());
  if (o.show_undetected) show_undetected(nl, faults, r.status);
  if (o.sync) run_sync_analysis(nl);
  return write_report_json(o, nl, faults, r.status, r.detect_frame);
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse_args(argc, argv);

  // Piped invocations (motsim_cli ... | head) must see EPIPE write
  // failures, not a SIGPIPE kill. Campaign runs additionally convert
  // SIGINT/SIGTERM into a clean checkpoint-flushing abort (see
  // InterruptTap); non-campaign runs keep the default die-now behavior
  // since they have no state worth flushing.
  ignore_sigpipe();
  if (!o.store_dir.empty()) install_stop_handlers();

  // One telemetry context for the whole invocation, allocated only
  // when an observability flag asks for it — the engines otherwise
  // keep their one-branch disabled path. MOTSIM_LOG counts as asking.
  const char* const env_log = std::getenv("MOTSIM_LOG");
  std::optional<obs::Telemetry> telemetry;
  if (!o.metrics_json.empty() || !o.trace_file.empty() ||
      !o.log_path.empty() || o.sample_interval_ms != 0 ||
      (env_log != nullptr && env_log[0] != '\0')) {
    telemetry.emplace();
  }
  obs::Telemetry* const tele = telemetry.has_value() ? &*telemetry : nullptr;
  o.sim.telemetry = tele;

  std::unique_ptr<obs::Logger> logger;
  if (tele != nullptr) {
    auto opened = obs::open_logger_from(o.log_path, o.log_level);
    if (!opened.has_value()) {
      std::fprintf(stderr, "error: %s\n", opened.error().c_str());
      return 2;
    }
    logger = std::move(*opened);
    tele->attach_logger(logger.get());
  }
  std::unique_ptr<obs::Sampler> sampler;
  if (o.sample_interval_ms != 0) {
    auto started = obs::Sampler::start(*tele, o.sample_file,
                                       static_cast<int>(o.sample_interval_ms));
    if (!started.has_value()) {
      std::fprintf(stderr, "error: %s\n", started.error().c_str());
      return 2;
    }
    sampler = std::move(*started);
  }

  if (o.list) {
    std::printf("%-10s %6s %4s %4s %6s  %s\n", "name", "PI", "PO", "FF",
                "gates", "style");
    for (const BenchmarkInfo& info : benchmark_roster()) {
      std::printf("%-10s %6zu %4zu %4zu %6zu  %s%s\n",
                  info.spec.name.c_str(), info.spec.inputs,
                  info.spec.outputs, info.spec.dffs, info.spec.target_gates,
                  info.exact ? "exact" : to_cstring(info.spec.style),
                  info.exact ? "" : " (synthetic)");
    }
    return 0;
  }

  Netlist nl = load_circuit(o.circuit);
  if (o.add_reset) {
    nl = with_synchronous_reset(nl);
    std::printf("inserted synchronous reset (drive the extra last input "
                "high to clear the state)\n");
  }
  const CollapsedFaultList faults(nl);
  std::printf("circuit %s: %zu PI, %zu PO, %zu FF, %zu gates; %zu "
              "collapsed faults\n",
              nl.name().c_str(), nl.input_count(), nl.output_count(),
              nl.dff_count(), nl.gate_count(), faults.size());

  if (o.stats) {
    CircuitStats stats = CircuitStats::of(nl);
    attach_collapse(stats, nl);
    attach_sgraph(stats, nl, build_sgraph(nl));
    std::printf("%s", stats.to_string().c_str());
  }
  if (!o.dot_file.empty()) {
    std::ofstream dot(o.dot_file);
    if (!dot) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   o.dot_file.c_str());
      return 1;
    }
    dot << netlist_to_dot(nl);
    std::printf("wrote %s\n", o.dot_file.c_str());
  }

  // Every flag combination is checked before anything runs; a bad
  // SimOptions exits 2 with the validator's message.
  const auto checked = o.sim.validate();
  if (!checked.has_value()) {
    std::fprintf(stderr, "error: %s\n", checked.error().c_str());
    return 2;
  }

  // Test sequence — not generated for --resume/--extend-vectors, whose
  // sequence lives in the store.
  TestSequence seq;
  if (!o.resume && o.extend_vectors == 0) {
    if (!o.load_seq.empty()) {
      auto loaded = read_sequence_file(o.load_seq);
      if (!loaded.has_value()) {
        std::fprintf(stderr, "error: %s\n", loaded.error().c_str());
        return 1;
      }
      seq = std::move(*loaded);
      if (!seq.empty() && seq[0].size() != nl.input_count()) {
        std::fprintf(stderr,
                     "error: sequence width %zu does not match %zu inputs\n",
                     seq[0].size(), nl.input_count());
        return 1;
      }
      std::printf("loaded sequence: %zu vectors from %s\n", seq.size(),
                  o.load_seq.c_str());
    } else if (o.deterministic) {
      CompactionConfig cfg;
      cfg.seed = o.sim.seed;
      cfg.max_length = 2 * o.vectors;
      cfg.min_length = o.vectors / 4;
      const CompactionResult gen =
          generate_deterministic_sequence(nl, faults.faults(), cfg);
      seq = gen.sequence;
      std::printf("deterministic sequence: %zu vectors (%zu greedy "
                  "rounds)\n",
                  seq.size(), gen.rounds);
    } else {
      Rng rng(o.sim.seed);
      seq = random_sequence(nl, o.vectors, rng);
      std::printf("random sequence: %zu vectors (seed %llu)\n", seq.size(),
                  static_cast<unsigned long long>(o.sim.seed));
    }
    if (seq.empty()) {
      std::fprintf(stderr, "error: empty test sequence\n");
      return 1;
    }
    if (!o.save_seq.empty()) {
      if (const auto w =
              write_sequence_file(o.save_seq, seq,
                                  nl.name() + " test sequence");
          !w.has_value()) {
        std::fprintf(stderr, "error: %s\n", w.error().c_str());
        return 1;
      }
      std::printf("saved sequence to %s\n", o.save_seq.c_str());
    }
  }

  if (!o.store_dir.empty()) {
    const int rc = run_campaign_mode(o, nl, faults.faults(), seq, tele);
    const int trc = write_telemetry_outputs(o, tele);
    return rc != 0 ? rc : trc;
  }

  StderrProgress progress(seq.size());
  const PipelineResult r =
      run_pipeline(nl, faults.faults(), seq, *checked,
                   o.progress ? &progress : nullptr);

  std::printf("\n--- %s pipeline ---\n", to_cstring(o.sim.strategy));
  if (o.sim.analysis) {
    std::printf("static:     %zu static-X-red, %zu untestable faults "
                "(%.3f s)\n",
                r.static_x_redundant, r.static_untestable,
                r.seconds_analysis);
  }
  if (o.sim.run_xred) {
    std::printf("ID_X-red:   %zu X-redundant faults      (%.3f s)\n",
                r.x_redundant, r.seconds_xred);
  }
  std::printf("X01 stage:  %zu faults detected          (%.3f s, %s)\n",
              r.detected_3v, r.seconds_3v, to_cstring(o.sim.sim3_backend));
  if (o.sim.run_symbolic && r.symbolic_skipped_x_inputs) {
    std::printf("symbolic:   skipped — the sequence carries X inputs "
                "(three-valued only)\n");
  } else if (o.sim.run_symbolic) {
    std::printf("symbolic:   %zu additional faults        (%.3f s%s)%s\n",
                r.detected_symbolic, r.seconds_symbolic,
                o.sim.threads == 1 ? "" : ", fault-sharded",
                r.used_fallback ? "  [*three-valued fallback ran]" : "");
  }
  std::printf("\n%s", r.summary().to_string().c_str());
  if (o.json) std::printf("%s\n", r.summary().to_json().c_str());

  if (o.show_undetected) show_undetected(nl, faults.faults(), r.status);

  if (o.sync) run_sync_analysis(nl);

  const int rc =
      write_report_json(o, nl, faults.faults(), r.status, r.detect_frame);
  const int trc = write_telemetry_outputs(o, tele);
  return rc != 0 ? rc : trc;
}
