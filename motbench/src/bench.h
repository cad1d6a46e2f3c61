// Shared types of the motbench workload runner: run arguments, answer
// digests, the in-memory span recorder and the raw report that run.py
// turns into the benchmark's metrics.
#ifndef MOTBENCH_BENCH_H
#define MOTBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "obs/metrics.h"

namespace motbench {

enum class Size { Full, Smoke };

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  Size size = Size::Full;
  /// Scratch directory for stores, logs and the span file.
  std::string work_dir;
};

/// Answer digest of one cell or request. `x01`, `x_redundant` and
/// `detected_3v` are exact at every size; `final` and
/// `detected_symbolic` are exact only when no fallback window ran.
struct Digest {
  std::uint64_t x01 = 0;
  std::uint64_t final = 0;
  std::uint64_t x_redundant = 0;
  std::uint64_t detected_3v = 0;
  std::uint64_t detected_symbolic = 0;
  bool used_fallback = false;

  friend bool operator==(const Digest&, const Digest&) = default;
};

/// FNV-1a over the per-fault (status, detect_frame) pairs; `only`
/// restricts the digest to faults carrying that status.
std::uint64_t digest_verdicts(const std::vector<motsim::FaultStatus>& status,
                              const std::vector<std::uint32_t>& frames);
std::uint64_t digest_status_subset(
    const std::vector<motsim::FaultStatus>& status,
    const std::vector<std::uint32_t>& frames, motsim::FaultStatus only);
std::uint64_t digest_bytes(const std::string& bytes);

/// One named unit of work: a pipeline cell or a serve request.
struct CellReport {
  std::string name;
  std::string strategy;  ///< "sot" / "rmot" / "mot", or "" (no symbolic stage)
  std::size_t runs = 0;
  std::size_t errors = 0;
  Digest digest;
  bool has_digest = false;
  std::vector<double> seconds;  ///< untraced wall seconds of every run
};

/// Spans kept in memory during a traced run and written out at its end
/// as Chrome trace-event JSON.
class SpanRecorder {
 public:
  SpanRecorder();
  /// Opens a span and returns its id; `parent` is -1 for a root.
  int open(std::string name, std::string trace, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double close(int id);
  /// Writes every closed span; returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    std::string trace;
    int parent = -1;
    double start = 0;
    double end = -1;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Everything one runner invocation measured. run.py derives the
/// end-to-end metrics (medians, nearest-rank quantiles) from the raw
/// samples and compares the digests against the committed goldens.
struct Report {
  RunArgs args;
  std::vector<std::string> env_cleared;
  std::map<std::string, std::string> defaults;
  std::vector<double> setup_s;    ///< one sample per set-up
  std::vector<double> pass_s;     ///< one sample per untraced pass
  std::vector<double> latency_s;  ///< one sample per cell run / request
  std::vector<double> rss_mb;     ///< peak RSS of each untraced pass
  std::uint64_t detected = 0;     ///< detections over all passes
  std::vector<CellReport> cells;
  std::vector<std::string> problems;
  std::map<std::string, double> layers;  ///< traced run only
  std::string spans_file;

  /// Records a failed check of one run of `cell`, with the reason.
  void fail(CellReport& cell, const std::string& why);

  [[nodiscard]] std::string to_json() const;
};

/// Seed of the input of pass k: runs with seeds 1 and 2 use sequence
/// seeds 1000, 1001, ... and 2000, 2001, ..., so runs share no input.
inline std::uint64_t input_seed(std::uint64_t run_seed, std::size_t k) {
  return run_seed * 1000 + k;
}

/// Passes of a run: as many as fit --seconds at the nominal pass time,
/// fixed by the arguments alone so that two builds measured with the
/// same arguments do identical work on identical inputs. Every pass
/// uses a fresh input: per-input cost and coverage swing by 10-25%
/// between sequences, and a median over many inputs keeps a run's
/// figures steady from seed to seed. A smoke run makes one pass.
inline std::size_t pass_count(const RunArgs& args, double nominal_pass_s) {
  if (args.size == Size::Smoke) return 1;
  const double n = args.seconds / nominal_pass_s;
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

/// Starts a new resident-set high-water mark: hands freed heap memory
/// back to the system and resets the kernel's peak counter (VmHWM).
/// Per-pass peaks keep one input's BDD table doubling from setting the
/// figure of a whole run.
void reset_peak_rss();
/// High-water resident set size since the last reset, in MiB.
double peak_rss_mb();

/// A counter or gauge of a telemetry snapshot; 0 when never recorded.
double counter(const motsim::obs::MetricsSnapshot& s, const std::string& name);
double gauge(const motsim::obs::MetricsSnapshot& s, const std::string& name);

/// The per-layer values the engines' own telemetry supplies: sim3 words,
/// symbolic mode seconds and frame counts, the BDD kernel's counters and
/// the fault-sharded parallel engine's shards and pool time.
void add_engine_layers(const motsim::obs::MetricsSnapshot& s,
                       std::map<std::string, double>& layers);

/// Nearest-rank quantile of `v` (0 < q <= 1); 0 when empty.
double nearest_rank(std::vector<double> v, double q);
double median(std::vector<double> v);

Report run_pipeline_workload(const RunArgs& args);
Report run_serve_workload(const RunArgs& args);

}  // namespace motbench

#endif  // MOTBENCH_BENCH_H
