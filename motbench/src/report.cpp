#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench.h"
#include "store/fingerprint.h"

namespace motbench {

namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += number(v[i]);
  }
  return out + "]";
}

}  // namespace

std::uint64_t digest_verdicts(const std::vector<motsim::FaultStatus>& status,
                              const std::vector<std::uint32_t>& frames) {
  motsim::Fnv1a64 h;
  h.update_u64(status.size());
  for (std::size_t i = 0; i < status.size(); ++i) {
    h.update_u64(static_cast<std::uint64_t>(status[i]));
    h.update_u64(i < frames.size() ? frames[i] : 0);
  }
  return h.digest();
}

std::uint64_t digest_status_subset(
    const std::vector<motsim::FaultStatus>& status,
    const std::vector<std::uint32_t>& frames, motsim::FaultStatus only) {
  motsim::Fnv1a64 h;
  h.update_u64(status.size());
  for (std::size_t i = 0; i < status.size(); ++i) {
    if (status[i] != only) continue;
    h.update_u64(i);
    h.update_u64(i < frames.size() ? frames[i] : 0);
  }
  return h.digest();
}

std::uint64_t digest_bytes(const std::string& bytes) {
  motsim::Fnv1a64 h;
  h.update(bytes);
  return h.digest();
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int SpanRecorder::open(std::string name, std::string trace, int parent) {
  const double now =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(Span{std::move(name), std::move(trace), parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::close(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end = std::chrono::duration<double>(Clock::now() - epoch_).count();
  return s.end - s.start;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << quote(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << number(s.start * 1e6)
        << ",\"dur\":" << number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"trace\":" << quote(s.trace) << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::fail(CellReport& cell, const std::string& why) {
  ++cell.errors;
  if (problems.size() < 50) problems.push_back(cell.name + ": " + why);
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"workload\":" << quote(args.workload) << ",\"seed\":" << args.seed
    << ",\"size\":" << quote(args.size == Size::Full ? "full" : "smoke")
    << ",\"trace\":" << (args.trace ? "true" : "false")
    << ",\"env_cleared\":[";
  for (std::size_t i = 0; i < env_cleared.size(); ++i) {
    o << (i ? "," : "") << quote(env_cleared[i]);
  }
  o << "],\"defaults\":{";
  bool first = true;
  for (const auto& [k, v] : defaults) {
    o << (first ? "" : ",") << quote(k) << ":" << quote(v);
    first = false;
  }
  o << "},\"setup_s\":" << array(setup_s) << ",\"pass_s\":" << array(pass_s)
    << ",\"latency_s\":" << array(latency_s) << ",\"rss_mb\":" << array(rss_mb)
    << ",\"detected\":" << detected << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellReport& c = cells[i];
    o << (i ? ",\n" : "\n") << "{\"name\":" << quote(c.name)
      << ",\"strategy\":" << quote(c.strategy) << ",\"runs\":" << c.runs
      << ",\"errors\":" << c.errors << ",\"seconds\":" << array(c.seconds);
    if (c.has_digest) {
      const Digest& d = c.digest;
      o << ",\"digest\":{\"x01\":" << quote(hex(d.x01))
        << ",\"final\":" << quote(hex(d.final))
        << ",\"x_redundant\":" << d.x_redundant
        << ",\"detected_3v\":" << d.detected_3v
        << ",\"detected_symbolic\":" << d.detected_symbolic
        << ",\"used_fallback\":" << (d.used_fallback ? "true" : "false")
        << "}";
    }
    o << "}";
  }
  o << "],\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    o << (i ? "," : "") << quote(problems[i]);
  }
  o << "],\"layers\":{";
  first = true;
  for (const auto& [k, v] : layers) {
    o << (first ? "" : ",") << quote(k) << ":" << number(v);
    first = false;
  }
  o << "},\"spans_file\":" << quote(spans_file) << "}\n";
  return o.str();
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // lifetime peak, KiB
}

double counter(const motsim::obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters) {
    if (k == name) return static_cast<double>(v);
  }
  return 0;
}

double gauge(const motsim::obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.gauges) {
    if (k == name) return v;
  }
  return 0;
}

void add_engine_layers(const motsim::obs::MetricsSnapshot& s,
                       std::map<std::string, double>& L) {
  L["sim3.words_evaluated"] = counter(s, "sim3.words_evaluated");
  L["symbolic.symbolic_s"] = gauge(s, "hybrid.symbolic_seconds");
  L["symbolic.fallback_s"] = gauge(s, "hybrid.fallback_seconds");
  L["symbolic.frames_symbolic"] = counter(s, "hybrid.symbolic_frames");
  L["symbolic.frames_3v"] = counter(s, "hybrid.three_valued_frames");
  L["symbolic.fallback_windows"] = counter(s, "hybrid.fallback_windows");
  L["symbolic.detected"] = counter(s, "hybrid.detected_faults");
  L["symbolic.mot_downgrades"] = counter(s, "analysis.mot_downgrades");
  const double created = counter(s, "bdd.nodes_created");
  const double lookups = counter(s, "bdd.apply_cache_lookups");
  L["bdd.nodes_created"] = created;
  L["bdd.cache_lookups"] = lookups;
  L["bdd.cache_hit_ratio"] =
      lookups > 0 ? counter(s, "bdd.apply_cache_hits") / lookups : 0;
  L["bdd.gc_runs"] = counter(s, "bdd.gc_runs");
  L["bdd.gc_reclaimed_ratio"] =
      created > 0 ? counter(s, "bdd.gc_reclaimed_nodes") / created : 0;
  L["bdd.peak_live_nodes"] = gauge(s, "bdd.peak_live_nodes");
  L["parallel.shards"] = counter(s, "parallel.shards");
  L["parallel.busy_s"] = gauge(s, "parallel.busy_seconds");
  L["parallel.idle_s"] = gauge(s, "parallel.idle_seconds");
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps e.g. 0.9 * 10 from rounding up to rank 11.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace motbench
