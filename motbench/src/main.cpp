// motbench workload runner: runs one named workload through motsim's
// front doors for a fixed time budget and prints a raw JSON report
// (samples, answer digests, per-layer values) on stdout. run.py builds
// this program, drives it and derives the benchmark's metrics.
//
//   motbench --workload x01|strategies|mot_large|serve --seed N
//            --seconds S --trace 0|1 --size full|smoke --work-dir DIR

#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "core/options.h"
#include "sim3/fault_simulator.h"
#include "util/signals.h"

extern char** environ;

namespace {

/// Removes every MOTSIM_* variable before any library code reads one,
/// so the run measures the code's own defaults. Returns the names.
std::vector<std::string> clear_motsim_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("MOTSIM_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

int usage(const std::string& why) {
  std::cerr << "motbench: " << why
            << "\nusage: motbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --size full|smoke --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_motsim_env();
  // The in-process server writes to clients that may have hung up; like
  // motsim_served, a broken connection must be an EPIPE, not a kill.
  motsim::ignore_sigpipe();
  motbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "smoke") {
          return usage("--size is full or smoke");
        }
        args.size = value == "full" ? motbench::Size::Full
                                    : motbench::Size::Smoke;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.work_dir.empty()) return usage("--work-dir is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  motbench::Report report;
  try {
    if (args.workload == "serve") {
      report = motbench::run_serve_workload(args);
    } else if (args.workload == "x01" || args.workload == "strategies" ||
               args.workload == "mot_large") {
      report = motbench::run_pipeline_workload(args);
    } else {
      return usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "motbench: " << e.what() << "\n";
    return 1;
  }
  report.env_cleared = cleared;
  const motsim::SimOptions defaults;
  report.defaults["sim3_backend"] = motsim::to_cstring(defaults.sim3_backend);
  report.defaults["trim"] = defaults.trim ? "on" : "off";
  report.defaults["sgraph"] = defaults.sgraph ? "on" : "off";
  report.defaults["node_limit"] = std::to_string(defaults.node_limit);
  report.defaults["fallback_frames"] = std::to_string(defaults.fallback_frames);
  std::cout << report.to_json();
  return 0;
}
