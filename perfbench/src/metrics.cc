/// \file metrics.cc
/// \brief The metric catalogue (it must match BENCHMARK.json) and the
/// fabric counters both workload families read.

#include <map>

#include "fabric/fabricator.h"
#include "ops/operator.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"ingest_tuples_per_s", "1/s"},
    {"tick_p50_us", "us"},
    {"tick_p99_us", "us"},
    {"rate_fidelity", "ratio"},
    {"peak_heap_mb", "MiB"},
};

// Shares of a loop are of the traced loop's wall time; *_cpu_share is a
// call's thread-CPU time over its wall time (below 1: descheduled or
// blocked inside the call).
const std::vector<MetricSpec> kPerLayerMetrics = {
    {"obs.traced_tick_us", "us"},
    {"obs.unattributed_share", "share"},
    {"obs.trace_overhead_share", "share"},
    {"obs.peak_rss_mb", "MiB"},
    {"sensing.advance_share", "share"},
    {"sensing.advance_cpu_share", "share"},
    {"sensing.send_requests_share", "share"},
    {"sensing.send_requests_cpu_share", "share"},
    {"sensing.send_requests_calls", "1/tick"},
    {"sensing.response_share", "share"},
    {"server.handler_self_share", "share"},
    {"server.handler_self_cpu_share", "share"},
    {"server.pending_responses", "count"},
    {"server.budget_changes", "1/tick"},
    {"core.feedback_share", "share"},
    {"core.feedback_cpu_share", "share"},
    {"fabric.process_us", "us"},
    {"fabric.process_share", "share"},
    {"fabric.process_cpu_share", "share"},
    {"fabric.unrouted_share", "share"},
    {"fabric.op_evals_per_tuple", "1/tuple"},
    {"fabric.shared_prefix_hits", "count"},
    {"fabric.route_patches", "count"},
    {"fabric.route_rebuilds", "count"},
    {"query.insert_us", "us"},
    {"query.remove_us", "us"},
    {"runtime.enqueue_share", "share"},
    {"runtime.enqueue_cpu_share", "share"},
    {"runtime.drain_share", "share"},
    {"runtime.query_ops_share", "share"},
    {"runtime.shard_busy_share", "share"},
    {"runtime.shard_tuples", "count"},
    {"runtime.arena_high_water_bytes", "bytes"},
    {"runtime.value_pool_bytes", "bytes"},
    {"runtime.cost_ratio", "ratio"},
    {"ops.F.tuples_in", "count"},
    {"ops.F.out_share", "share"},
    {"ops.T.tuples_in", "count"},
    {"ops.T.out_share", "share"},
    {"ops.P.tuples_in", "count"},
    {"ops.P.out_share", "share"},
    {"ops.U.tuples_in", "count"},
    {"ops.U.out_share", "share"},
    {"ops.Reorder.tuples_in", "count"},
    {"ops.Reorder.out_share", "share"},
    {"ops.Sink.tuples_in", "count"},
    {"ops.Sink.out_share", "share"},
};

namespace {

/// Operator kinds reported under ops.<label>; the rest are not.
const char* OpsLabel(craqr::ops::OperatorKind kind) {
  using craqr::ops::OperatorKind;
  switch (kind) {
    case OperatorKind::kFlatten:
      return "F";
    case OperatorKind::kThin:
      return "T";
    case OperatorKind::kPartition:
      return "P";
    case OperatorKind::kUnion:
      return "U";
    case OperatorKind::kReorder:
      return "Reorder";
    case OperatorKind::kSink:
      return "Sink";
    default:
      return nullptr;
  }
}

}  // namespace

void SetLoopMetrics(const WindowedSeries& ticks, RunValues* out) {
  out->Set("ingest_tuples_per_s", ticks.Rate());
  out->Set("tick_p50_us", ticks.P50());
  out->Set("tick_p99_us", ticks.P99());
}

void SetFabricMetrics(const craqr::fabric::StreamFabricator& fabricator,
                      RunValues* out) {
  const auto routed = static_cast<double>(fabricator.tuples_routed());
  const auto unrouted = static_cast<double>(fabricator.tuples_unrouted());
  out->Set("fabric.unrouted_share", Share(unrouted, routed + unrouted));
  out->Set("fabric.op_evals_per_tuple",
           Share(static_cast<double>(fabricator.TotalOperatorEvaluations()),
                 routed));
  out->Set("fabric.shared_prefix_hits",
           static_cast<double>(fabricator.shared_prefix_hits()));
  out->Set("fabric.route_patches",
           static_cast<double>(fabricator.route_patches()));
  out->Set("fabric.route_rebuilds",
           static_cast<double>(fabricator.route_rebuilds()));

  std::map<std::string, std::pair<double, double>> in_out;
  fabricator.VisitOperators([&in_out](const craqr::ops::Operator& op) {
    if (const char* label = OpsLabel(op.kind())) {
      auto& io = in_out[label];
      io.first += static_cast<double>(op.stats().tuples_in);
      io.second += static_cast<double>(op.stats().tuples_out);
    }
  });
  for (const auto& [label, io] : in_out) {
    out->Set("ops." + label + ".tuples_in", io.first);
    out->Set("ops." + label + ".out_share", Share(io.second, io.first));
  }
}

}  // namespace perfbench
