#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace craqr {
namespace fabric {
class StreamFabricator;
}  // namespace fabric
}  // namespace craqr

/// \file workloads.h
/// \brief The benchmark's workloads and the metric catalogue they report.
///
/// Every workload is a closed loop: the next Step() or batch is issued
/// only after the previous call returned. A run repeats whole passes (a
/// fresh system, the same seeded inputs) until `seconds` have elapsed, so
/// set-up is measured several times per run and every pass's delivered
/// streams must reproduce the first pass's digest.

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the end-to-end metrics with no timing inside the loop.
  /// true: the per-layer metrics, timing each layer's calls from outside.
  bool trace = false;
};

/// A metric the benchmark defines: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Per-layer metrics, reported by every workload with tracing on; a layer
/// a workload does not run reads 0 there.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// What a workload run measured, before it is printed.
struct RunValues {
  OpCounter ops;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  void Fail(std::string why) { errors.push_back(std::move(why)); }
  void Set(const std::string& name, double value) { values[name] = value; }
};

/// The Figure-1 system through CraqrEngine (see fig1.cc).
RunValues RunFig1Crowd(const RunOptions& options);
/// The city schedule through the sharded runtime at one shard;
/// `churn` selects city_churn over city_stream (see city.cc).
RunValues RunCity(const RunOptions& options, bool churn);

/// Sets the fabric.* counters and the ops.<kind>.* operator totals read
/// from a fabricator's live topology.
void SetFabricMetrics(const craqr::fabric::StreamFabricator& fabricator,
                      RunValues* out);

/// Sets ingest_tuples_per_s, tick_p50_us and tick_p99_us from a run's
/// windowed loop iterations.
void SetLoopMetrics(const WindowedSeries& ticks, RunValues* out);

/// Share a/b, 0 when b is 0.
inline double Share(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace perfbench
