/// \file main.cc
/// \brief craqr_perfbench: runs one workload and prints its metrics.
///
/// Usage: craqr_perfbench --workload <fig1_crowd|city_stream|city_churn>
///          --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
///
/// Prints a `host {...}` calibration line, then as its last line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using perfbench::MetricSpec;
using perfbench::RunValues;

void PrintResult(const RunValues& run, const std::vector<MetricSpec>& specs,
                 bool end_to_end) {
  std::vector<std::string> errors = run.errors;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = run.values.find(spec.name);
    double value = 0.0;
    if (it != run.values.end()) {
      value = it->second;
    } else if (end_to_end) {
      errors.push_back(std::string("metric not measured: ") + spec.name);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.ops.attempted),
              static_cast<unsigned long long>(run.ops.failed),
              metrics.c_str());
  std::fflush(stdout);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: craqr_perfbench --workload "
               "<fig1_crowd|city_stream|city_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) {
    Usage("--seconds must be > 0");
  }

  const bool fig1 = options.workload == "fig1_crowd";
  const bool churn = options.workload == "city_churn";
  if (!fig1 && !churn && options.workload != "city_stream") {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  perfbench::PrintHostStamp(git_sha);
  RunValues run = fig1 ? perfbench::RunFig1Crowd(options)
                       : perfbench::RunCity(options, churn);
  if (run.ops.attempted == 0) {
    run.Fail("no call into the system was made");
  }
  PrintResult(run,
              options.trace ? perfbench::kPerLayerMetrics
                            : perfbench::kEndToEndMetrics,
              !options.trace);
  return 0;
}
