/// \file city.cc
/// \brief city_stream and city_churn: the city query schedule through the
/// sharded runtime at one shard.
///
/// Each pass builds a runtime::ShardedFabricator, submits the schedule's
/// first burst of queries (set-up), then feeds the pass's batches with
/// EnqueueBatch(batch, epoch), applying each batch's query inserts and
/// cancels just before it, and ends with Drain(). Sensing and server do
/// no work here; runtime, fabric and ops do all of it. The same schedule
/// replayed through an in-process fabric::StreamFabricator is the
/// reference every runtime pass's delivered streams must equal.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "city_workload.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "runtime/sharded_fabricator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace craqr;  // NOLINT

/// 32 x 32 cells of 0.25 km over the 8 x 8 km city.
constexpr std::uint32_t kGridH = 1024;
/// Set-ups per sampled pass (see CitySinks::setup_s).
constexpr int kSetups = 5;

/// Schedules a run cycles through: the run's figures then average over
/// several query layouts instead of hanging on one seed's few hot spots.
std::size_t NumSchedules(bool churn) { return churn ? 4 : 12; }

CityConfig MakeCityConfig(std::uint64_t seed, bool churn,
                          std::size_t schedule) {
  CityConfig c;
  c.seed = SplitMix64((seed << 8) + schedule + 0xC17Aull);
  if (churn) {
    c.num_queries = 4096;
    c.overlap_fraction = 0.5;
    c.churn_fraction = 0.9;
    c.batch_size = 64;
    c.num_batches = 4096;
  } else {
    c.num_queries = 256;
    c.overlap_fraction = 0.9;
    c.churn_fraction = 0.2;
    c.batch_size = 512;
    c.num_batches = 256;
  }
  return c;
}

fabric::FabricConfig CityFabricConfig(std::uint64_t seed) {
  fabric::FabricConfig config;
  config.flatten_batch_size = 64;
  config.seed = SplitMix64(seed ^ 0xFAB1ull);
  config.enable_sharing = true;
  return config;
}

/// Per-layer clocks of the runtime loop.
struct CityClocks {
  LayerClock iteration;  // one batch's query events plus its feed
  LayerClock feed;       // EnqueueBatch, or ProcessBatch in-process
  LayerClock drain;
  LayerClock insert;
  LayerClock remove;
};

/// What one pass measured and delivered.
struct CityPass {
  /// Wall time of the loop: every iteration plus the final drain.
  double loop_s = 0.0;
  std::uint64_t tuples = 0;
  std::uint64_t digest = kFnvBasis;
  double fidelity = 0.0;
  std::size_t survivors = 0;
};

/// The two systems a pass can drive, behind the calls the loop makes.
class RuntimeTarget {
 public:
  static Result<RuntimeTarget> Make(const geom::Grid& grid,
                                    std::uint64_t seed) {
    runtime::ShardedConfig config;
    config.num_shards = 1;
    config.fabric = CityFabricConfig(seed);
    CRAQR_ASSIGN_OR_RETURN(auto fab,
                           runtime::ShardedFabricator::Make(grid, config));
    return RuntimeTarget(std::move(fab));
  }
  Result<fabric::QueryStream> Insert(const CityQuery& q) {
    return fab_->InsertQuery(q.attribute, q.region, q.rate);
  }
  Status Remove(query::QueryId id) { return fab_->RemoveQuery(id); }
  Status Feed(ops::TupleBatch& batch, std::uint64_t epoch) {
    return fab_->EnqueueBatch(batch, epoch);
  }
  Status Finish() { return fab_->Drain(); }
  runtime::ShardedFabricator& fab() { return *fab_; }

 private:
  explicit RuntimeTarget(std::unique_ptr<runtime::ShardedFabricator> fab)
      : fab_(std::move(fab)) {}
  std::unique_ptr<runtime::ShardedFabricator> fab_;
};

class InProcessTarget {
 public:
  static Result<InProcessTarget> Make(const geom::Grid& grid,
                                      std::uint64_t seed) {
    CRAQR_ASSIGN_OR_RETURN(
        auto fab, fabric::StreamFabricator::Make(grid, CityFabricConfig(seed)));
    return InProcessTarget(std::move(fab));
  }
  Result<fabric::QueryStream> Insert(const CityQuery& q) {
    return fab_->InsertQuery(q.attribute, q.region, q.rate);
  }
  Status Remove(query::QueryId id) { return fab_->RemoveQuery(id); }
  Status Feed(ops::TupleBatch& batch, std::uint64_t /*epoch*/) {
    return fab_->ProcessBatch(batch);
  }
  Status Finish() { return Status::OK(); }
  fabric::StreamFabricator& fab() { return *fab_; }

 private:
  explicit InProcessTarget(std::unique_ptr<fabric::StreamFabricator> fab)
      : fab_(std::move(fab)) {}
  std::unique_ptr<fabric::StreamFabricator> fab_;
};

/// Where a pass records its samples; null members are not recorded.
struct CitySinks {
  CityClocks* clocks = nullptr;  // tracing on
  /// Set-up samples; when requested the pass sets up kSetups times and
  /// runs on the last, so a host stall during one of them moves no median.
  std::vector<double>* setup_s = nullptr;
  std::vector<double>* tick_us = nullptr;
  HeapPeak* heap = nullptr;  // sampled after each iteration when set
};

/// Runs one pass over a Target system, then hands the system to
/// `after_loop`. `batches` is regenerated before the clock starts (the
/// runtime consumes its input).
template <typename Target, typename AfterLoop>
Result<CityPass> RunPass(const CityWorkload& workload, std::uint64_t seed,
                         std::vector<ops::TupleBatch>* batches,
                         const CitySinks& sinks, OpCounter* ops,
                         AfterLoop&& after_loop) {
  workload.MakeBatches(batches);
  const CityConfig& cfg = workload.config();
  const auto& schedule = workload.schedule();
  CRAQR_ASSIGN_OR_RETURN(const geom::Grid grid,
                         geom::Grid::Make(cfg.region, kGridH));
  CityClocks* clocks = sinks.clocks;
  const auto clock = [clocks](LayerClock CityClocks::*member) {
    return clocks != nullptr ? &(clocks->*member) : nullptr;
  };

  std::map<std::size_t, fabric::QueryStream> live;  // slot -> stream
  std::map<std::size_t, std::size_t> inserted_at;   // slot -> batch
  std::size_t cursor = 0;
  // Applies every event due before batch `b`; `sample` (false for the
  // set-up burst) charges each to the insert or remove clock.
  const auto apply_events = [&](Target& target, std::size_t b,
                                bool sample) {
    for (; cursor < schedule.size() && schedule[cursor].at_batch <= b;
         ++cursor) {
      const CityEvent& ev = schedule[cursor];
      LayerClock* charged =
          sample ? clock(ev.insert ? &CityClocks::insert : &CityClocks::remove)
                 : nullptr;
      if (ev.insert) {
        Result<fabric::QueryStream> stream = [&] {
          LayerSpan span(charged);
          return target.Insert(ev.query);
        }();
        if (ops->Count(stream.status())) {
          live[ev.slot] = stream.MoveValue();
          inserted_at[ev.slot] = ev.at_batch;
        }
      } else {
        const auto it = live.find(ev.slot);
        if (it == live.end()) {
          continue;  // its insert failed and was counted there
        }
        Status removed;
        {
          LayerSpan span(charged);
          removed = target.Remove(it->second.id);
        }
        ops->Count(removed);
        live.erase(it);
      }
    }
  };

  CityPass pass;
  std::optional<Target> made;
  const int setups = sinks.setup_s != nullptr ? kSetups : 1;
  for (int setup = 0; setup < setups; ++setup) {
    made.reset();  // the previous set-up's teardown is not timed
    live.clear();
    inserted_at.clear();
    cursor = 0;
    const std::uint64_t t0 = WallNs();
    CRAQR_ASSIGN_OR_RETURN(Target fresh, Target::Make(grid, seed));
    made.emplace(std::move(fresh));
    if (!schedule.empty()) {
      apply_events(*made, schedule.front().at_batch, /*sample=*/false);
    }
    if (sinks.setup_s != nullptr) {
      sinks.setup_s->push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    }
  }
  Target& target = *made;

  std::uint64_t loop_ns = 0;
  for (std::size_t b = 0; b < batches->size(); ++b) {
    ops::TupleBatch& batch = (*batches)[b];
    pass.tuples += batch.size();
    const std::uint64_t i0 = WallNs();
    {
      LayerSpan iteration(clock(&CityClocks::iteration));
      apply_events(target, b, /*sample=*/true);
      LayerSpan span(clock(&CityClocks::feed));
      ops->Count(target.Feed(batch, b + 1));
    }
    const std::uint64_t dt = WallNs() - i0;
    loop_ns += dt;
    if (sinks.tick_us != nullptr) {
      sinks.tick_us->push_back(static_cast<double>(dt) * 1e-3);
    }
    if (sinks.heap != nullptr) {
      sinks.heap->Sample();
    }
  }
  const std::uint64_t d0 = WallNs();
  {
    LayerSpan span(clock(&CityClocks::drain));
    ops->Count(target.Finish());
  }
  loop_ns += WallNs() - d0;
  pass.loop_s = static_cast<double>(loop_ns) * 1e-9;

  // Survivors in slot order. City traffic is not budget-tuned, so how
  // much a query receives depends on where its corridor falls; fidelity is
  // the median over survivors, which a few hot corridors cannot swing the
  // way they swing a sum.
  const double minutes_per_batch =
      cfg.dt * static_cast<double>(cfg.batch_size);
  std::vector<double> fidelity;
  for (const auto& [slot, stream] : live) {
    pass.digest = FoldStream(pass.digest ^ slot, stream.sink->tuples());
    const double minutes =
        minutes_per_batch *
        static_cast<double>(cfg.num_batches - inserted_at[slot]);
    fidelity.push_back(
        Share(static_cast<double>(stream.sink->total_received()),
              stream.rate * stream.region.Area() * minutes));
  }
  pass.fidelity = Median(fidelity);
  pass.survivors = live.size();
  after_loop(target);
  return pass;
}

}  // namespace

RunValues RunCity(const RunOptions& options, bool churn) {
  RunValues out;
  const std::string name = churn ? "city_churn" : "city_stream";
  std::vector<CityWorkload> workloads;
  for (std::size_t k = 0; k < NumSchedules(churn); ++k) {
    workloads.emplace_back(MakeCityConfig(options.seed, churn, k));
  }
  std::vector<ops::TupleBatch> batches;

  // The in-process replay of each schedule is the reference digest; with
  // tracing on, repeated replays also give the fabric and operator counters
  // and the runtime's cost ratio.
  CityClocks inprocess_clocks;
  std::vector<double> inprocess_rate;
  const auto run_inprocess = [&](const CityWorkload& workload,
                                 CityClocks* clocks, bool fabric_metrics) {
    CitySinks sinks;
    sinks.clocks = clocks;
    return RunPass<InProcessTarget>(
        workload, options.seed, &batches, sinks, &out.ops,
        [&](InProcessTarget& t) {
          if (fabric_metrics) {
            SetFabricMetrics(t.fab(), &out);
          }
        });
  };
  std::vector<std::uint64_t> reference;
  std::vector<double> fidelity;
  for (const CityWorkload& workload : workloads) {
    // Fabric counters come from the first schedule's replay.
    auto pass = run_inprocess(workload, nullptr,
                              options.trace && reference.empty());
    if (!pass.ok()) {
      out.Fail(name + " in-process pass: " + pass.status().ToString());
      return out;
    }
    if (pass->survivors == 0) {
      out.Fail(name + ": no query survived the schedule");
    }
    reference.push_back(pass->digest);
    fidelity.push_back(pass->fidelity);
  }
  const auto check = [&](const CityPass& pass, std::size_t k,
                         const char* what) {
    if (pass.digest != reference[k]) {
      out.Fail(name + ": " + what +
               " delivered other streams than the in-process replay");
    }
  };

  WindowedSeries ticks;
  SetupTimes setup;
  HeapPeak heap;
  std::size_t passes = 0;
  std::vector<double> runtime_rate;
  double untraced_iter_us = 0.0;
  std::uint64_t untraced_iters = 0;
  CityClocks clocks;
  double traced_loop_s = 0.0;
  std::uint64_t busy_ns = 0;
  std::uint64_t traced_passes = 0;
  std::uint64_t shard_tuples = 0;
  std::size_t arena_high_water = 0;
  std::size_t value_pool_bytes = 0;
  const std::uint64_t t0 = WallNs();
  // With tracing on, traced runtime, untraced runtime and in-process
  // passes rotate so host drift hits every side of each ratio alike.
  const std::size_t phases = options.trace ? 3 : 1;
  for (std::size_t round = 0;; ++round) {
    const double elapsed = static_cast<double>(WallNs() - t0) * 1e-9;
    if (elapsed >= options.seconds && round >= phases) {
      break;
    }
    const std::size_t phase = options.trace ? round % 3 : 1;
    const std::size_t k = (round / phases) % workloads.size();
    if (phase == 2) {
      auto pass = run_inprocess(workloads[k], &inprocess_clocks, false);
      if (!pass.ok()) {
        out.Fail(name + " in-process pass: " + pass.status().ToString());
        return out;
      }
      check(*pass, k, "a repeated in-process pass");
      inprocess_rate.push_back(
          Share(static_cast<double>(pass->tuples), pass->loop_s));
      continue;
    }
    const bool traced = phase == 0;
    std::vector<double> setup_s;
    std::vector<double> tick_us;
    CitySinks sinks;
    sinks.clocks = traced ? &clocks : nullptr;
    sinks.setup_s = traced ? nullptr : &setup_s;
    sinks.tick_us = traced ? nullptr : &tick_us;
    sinks.heap = traced ? nullptr : &heap;
    auto pass = RunPass<RuntimeTarget>(
        workloads[k], options.seed, &batches, sinks, &out.ops,
        [&](RuntimeTarget& t) {
          if (!traced) {
            return;
          }
          auto stats = t.fab().TrySnapshot();
          if (!out.ops.Count(stats.status())) {
            return;
          }
          ++traced_passes;
          for (const runtime::ShardLoadStats& load : stats->per_shard) {
            busy_ns += load.busy_ns;
            shard_tuples += load.tuples_processed;
          }
          arena_high_water =
              std::max(arena_high_water, stats->arena_high_water_bytes);
          value_pool_bytes =
              std::max(value_pool_bytes, stats->value_pool_bytes);
        });
    if (!pass.ok()) {
      out.Fail(name + " runtime pass: " + pass.status().ToString());
      return out;
    }
    check(*pass, k, "the runtime");
    if (traced) {
      traced_loop_s += pass->loop_s;
      continue;
    }
    for (const double t : tick_us) {
      untraced_iter_us += t;
    }
    untraced_iters += tick_us.size();
    runtime_rate.push_back(
        Share(static_cast<double>(pass->tuples), pass->loop_s));
    for (const double seconds : setup_s) {
      setup.Add(k, seconds);
    }
    ++passes;
    ticks.AddPass(tick_us, static_cast<double>(pass->tuples), pass->loop_s);
  }
  if (!options.trace) {
    out.Set("setup_s", setup.MeanOfMedians());
    SetLoopMetrics(ticks, &out);
    out.Set("peak_heap_mb", heap.Mb());
    double fidelity_sum = 0.0;
    for (const double f : fidelity) {
      fidelity_sum += f;
    }
    out.Set("rate_fidelity",
            fidelity_sum / static_cast<double>(fidelity.size()));
    std::printf("%s: %zu passes over %zu schedules; ticks %zu in %zu "
                "windows\n",
                name.c_str(), passes, workloads.size(), ticks.samples(),
                ticks.windows());
    return out;
  }

  out.Set("obs.peak_rss_mb", PeakRssMb());
  const double loop_wall = traced_loop_s * 1e9;
  const auto wall_share = [&](const LayerClock& c) {
    return Share(static_cast<double>(c.wall_ns), loop_wall);
  };
  // Traced against untraced loop iterations, the final drain excluded.
  const double traced_tick_us = clocks.iteration.MeanUs();
  const double untraced_tick_us =
      Share(untraced_iter_us, static_cast<double>(untraced_iters));
  out.Set("obs.traced_tick_us", traced_tick_us);
  out.Set("obs.trace_overhead_share",
          Share(traced_tick_us - untraced_tick_us, untraced_tick_us));
  const double query_ops_share =
      wall_share(clocks.insert) + wall_share(clocks.remove);
  out.Set("obs.unattributed_share",
          1.0 - (wall_share(clocks.feed) + wall_share(clocks.drain) +
                 query_ops_share));
  const double inprocess_wall =
      static_cast<double>(inprocess_clocks.iteration.wall_ns +
                          inprocess_clocks.drain.wall_ns);
  out.Set("fabric.process_us", inprocess_clocks.feed.MeanUs());
  out.Set("fabric.process_share",
          Share(static_cast<double>(inprocess_clocks.feed.wall_ns),
                inprocess_wall));
  out.Set("fabric.process_cpu_share", inprocess_clocks.feed.CpuShare());
  out.Set("query.insert_us", clocks.insert.MeanUs());
  out.Set("query.remove_us", clocks.remove.MeanUs());
  out.Set("runtime.enqueue_share", wall_share(clocks.feed));
  out.Set("runtime.enqueue_cpu_share", clocks.feed.CpuShare());
  out.Set("runtime.drain_share", wall_share(clocks.drain));
  out.Set("runtime.query_ops_share", query_ops_share);
  out.Set("runtime.shard_busy_share",
          Share(static_cast<double>(busy_ns), loop_wall));
  out.Set("runtime.shard_tuples",
          Share(static_cast<double>(shard_tuples),
                static_cast<double>(traced_passes)));
  out.Set("runtime.arena_high_water_bytes",
          static_cast<double>(arena_high_water));
  out.Set("runtime.value_pool_bytes", static_cast<double>(value_pool_bytes));
  out.Set("runtime.cost_ratio",
          Share(Median(inprocess_rate), Median(runtime_rate)));
  return out;
}

}  // namespace perfbench
