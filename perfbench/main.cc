// perfbench: the repository's end-to-end benchmark binary.
//
//   skyline_perfbench --workload offline|serve|stream-ingest --seed N
//                     --seconds S --trace 0|1 [--trace-out PATH]
//   skyline_perfbench --self-test
//
// The last line of standard output is the result object: correct,
// attempted, failed and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
// perfbench/run.py builds this binary and forwards its arguments.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
int RunSelfTest();
}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::cerr << "skyline_perfbench: " << why
            << "\nusage: skyline_perfbench --workload offline|serve|"
               "stream-ingest --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n       skyline_perfbench --self-test\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  perfbench::Outcome outcome;
  if (workload == "offline") {
    outcome = perfbench::RunOffline(options);
  } else if (workload == "serve") {
    outcome = perfbench::RunServe(options);
  } else if (workload == "stream-ingest") {
    outcome = perfbench::RunStreamIngest(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  std::cout << perfbench::ResultLine(outcome.correct, outcome.attempted,
                                     outcome.failed, outcome.metrics)
            << std::endl;
  return 0;
}
