// The repository benchmark.
//
//   perfbench --workload serve_read|serve_live|ingest --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Generates the workload from the seed, runs its timed window, checks the
// outputs, and prints one metric per line followed by a single JSON result
// line. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// traced window and the per-layer passes and reports the per-layer ones.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_read|serve_live|ingest --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.seconds < 1) return Usage("--seconds must be at least 1");
  const bool serve =
      args.workload == "serve_read" || args.workload == "serve_live";
  if (!serve && args.workload != "ingest") {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  // Quality alerts still fire and are counted; their log lines go to
  // stderr.
  rtrec::SetLogLevel(rtrec::LogLevel::kWarn);
  perfbench::Report report;
  report.Note("workload=" + args.workload + " seed=" +
              std::to_string(args.seed) + " seconds=" +
              std::to_string(args.seconds) + " trace=" +
              (args.trace ? "1" : "0") + " nproc=" +
              std::to_string(std::thread::hardware_concurrency()) +
              " build=" + PERFBENCH_BUILD_TYPE);
  const perfbench::Outcome outcome = serve
                                         ? perfbench::RunServe(args, report)
                                         : perfbench::RunIngest(args, report);
  if (outcome.attempted < 1) report.Fail("no operation was attempted");
  return report.Finish(outcome.attempted, outcome.failed);
}
