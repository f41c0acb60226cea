/// \file fig1.cc
/// \brief fig1_crowd: the paper's Figure-1 system through CraqrEngine.
///
/// The bench_end_to_end scenario (hotspot placement, random-waypoint
/// mobility, rain + temp, three queries, incentives on) scaled to 8000
/// sensors over 12 x 12 km on a 6 x 6 grid, at the engine's default
/// execution config (one shard, pipeline depth 2). At this scale the
/// sensing and server layers do most of the work.
///
/// With tracing off each pass builds the engine over one of kCrowds crowds,
/// submits the three queries and steps it kPassSteps times. With tracing on
/// (first crowd only) the engine runs once as the reference, then
/// the same components are composed by hand through their public APIs
/// (the engine's D = 2 feedback lag included) so each layer's calls can be
/// timed from outside; traced and untraced composed passes alternate, and
/// every one must deliver the engine's digest. Each traced pass then
/// submits and cancels kProbeQueries extra queries for the fabricator's
/// insert and remove times.

#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "core/engine.h"
#include "fabric/fabricator.h"
#include "query/query.h"
#include "sensing/mobility.h"
#include "sensing/phenomena.h"
#include "server/budget.h"
#include "server/handler.h"
#include "server/incentive.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace craqr;  // NOLINT

constexpr double kSide = 12.0;
constexpr std::size_t kSensors = 8000;
constexpr int kPassSteps = 240;
constexpr int kProbeQueries = 200;
/// Set-ups per pass; the pass runs on the last. Several samples per pass
/// keep a host stall during one of them from moving the set-up median.
constexpr int kSetups = 5;
/// Crowds an untraced run cycles through (see CrowdSeed).
constexpr std::size_t kCrowds = 4;

const query::AcquisitionQuery& FixedQuery(std::size_t i) {
  static const query::AcquisitionQuery kQueries[] = {
      {"temp", geom::Rect(0, 0, 12, 12), 0.5},
      {"temp", geom::Rect(0, 0, 8, 8), 0.25},
      {"rain", geom::Rect(0, 4, 8, 12), 0.2},
  };
  return kQueries[i];
}
constexpr std::size_t kNumFixedQueries = 3;

Result<sensing::CrowdWorld> MakeCrowd(std::uint64_t seed) {
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, kSide, kSide);
  pc.num_sensors = kSensors;
  pc.placement = sensing::PlacementKind::kIntensity;
  pp::GaussianBump downtown;
  downtown.amplitude = 20.0;
  downtown.x0 = 4.0;
  downtown.y0 = 4.0;
  downtown.sigma = 2.0;
  CRAQR_ASSIGN_OR_RETURN(pc.placement_intensity,
                         pp::GaussianBumpIntensity::Make(1.0, {downtown}));
  CRAQR_ASSIGN_OR_RETURN(const auto mobility,
                         sensing::RandomWaypointMobility::Make(0.05, 0.4));
  pc.mobility_prototype = mobility.get();
  Rng rng(seed);
  CRAQR_ASSIGN_OR_RETURN(sensing::SensorPopulation population,
                         sensing::SensorPopulation::Make(pc, &rng));
  CRAQR_ASSIGN_OR_RETURN(
      sensing::CrowdWorld world,
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()));

  sensing::RainCell storm;
  storm.x0 = 2.0;
  storm.y0 = 8.0;
  storm.radius = 3.0;
  storm.vx = 0.04;
  CRAQR_ASSIGN_OR_RETURN(sensing::FieldPtr rain,
                         sensing::RainField::Make({storm}));
  CRAQR_RETURN_NOT_OK(world
                          .RegisterAttribute("rain", true, std::move(rain),
                                             sensing::ResponseModel::
                                                 HumanBehavior())
                          .status());
  CRAQR_ASSIGN_OR_RETURN(
      sensing::FieldPtr temp,
      sensing::TemperatureField::Make(sensing::TemperatureField::Params()));
  CRAQR_RETURN_NOT_OK(world
                          .RegisterAttribute("temp", false, std::move(temp),
                                             sensing::ResponseModel::
                                                 DeviceBehavior())
                          .status());
  return world;
}

engine::EngineConfig Fig1Config(std::uint64_t seed) {
  engine::EngineConfig config;  // num_shards = 1, pipeline_depth = 2
  config.grid_h = 36;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 64;
  config.fabric.seed = SplitMix64(seed ^ 0xF161ull);
  config.budget.initial = 32.0;
  config.budget.delta = 8.0;
  config.budget.max = 256.0;
  config.enable_incentives = true;
  return config;
}

/// The crowd of pass `pass`: untraced runs cycle through kCrowds crowds
/// so their figures average over several sensor placements instead of
/// hanging on one.
std::uint64_t CrowdSeed(std::uint64_t seed, std::size_t pass) {
  return SplitMix64((seed << 8) + pass % kCrowds + 0xC40Dull);
}

/// The extra queries traced pass `pass` submits and cancels after its
/// steps; every pass gets a fresh set, so the insert and remove times cover
/// many region shapes instead of one seed's few.
std::vector<query::AcquisitionQuery> ProbeQueries(std::uint64_t seed,
                                                  std::size_t pass) {
  Rng rng(SplitMix64((seed << 16) + pass + 0x9B0BEull));
  std::vector<query::AcquisitionQuery> out;
  for (int i = 0; i < kProbeQueries; ++i) {
    const double w = rng.Uniform(2.5, 8.0);
    const double h = rng.Uniform(2.5, 8.0);
    const double x0 = rng.Uniform(0.0, kSide - w);
    const double y0 = rng.Uniform(0.0, kSide - h);
    out.push_back({rng.Bernoulli(0.5) ? "rain" : "temp",
                   geom::Rect(x0, y0, x0 + w, y0 + h),
                   rng.Uniform(0.1, 0.6)});
  }
  return out;
}

/// What one pass delivered.
struct Delivered {
  std::uint64_t digest = kFnvBasis;
  /// min over queries of delivered / (rate x area x minutes).
  double fidelity = 0.0;
};

Delivered Summarize(const std::vector<fabric::QueryStream>& streams,
                    double minutes) {
  Delivered d;
  d.fidelity = streams.empty() ? 0.0 : 1e300;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const fabric::QueryStream& s = streams[i];
    d.digest = FoldStream(d.digest ^ i, s.sink->tuples());
    const double expected = s.rate * s.region.Area() * minutes;
    d.fidelity = std::min(
        d.fidelity,
        Share(static_cast<double>(s.sink->total_received()), expected));
  }
  return d;
}

// ---------------------------------------------------------------- engine

struct EnginePass {
  double loop_s = 0.0;
  std::uint64_t tuples_in = 0;
  Delivered delivered;
};

/// Per-call samples of one untraced engine pass.
struct EngineSamples {
  std::vector<double> setup_s;
  std::vector<double> tick_us;
  HeapPeak* heap = nullptr;  // sampled after each step when set
};

/// One untraced pass through CraqrEngine: kSetups set-up samples, then one
/// sample per Step(); the heap is sampled after each step, off the clock.
Result<EnginePass> RunEnginePass(std::uint64_t seed, OpCounter* ops,
                                 EngineSamples* samples) {
  EnginePass pass;
  std::unique_ptr<engine::CraqrEngine> eng;
  std::vector<fabric::QueryStream> streams;
  for (int setup = 0; setup < kSetups; ++setup) {
    eng.reset();  // the previous set-up's teardown is not timed
    streams.clear();
    const std::uint64_t t0 = WallNs();
    CRAQR_ASSIGN_OR_RETURN(sensing::CrowdWorld world, MakeCrowd(seed));
    CRAQR_ASSIGN_OR_RETURN(
        eng, engine::CraqrEngine::Make(std::move(world), Fig1Config(seed)));
    for (std::size_t i = 0; i < kNumFixedQueries; ++i) {
      auto stream = eng->SubmitText(FixedQuery(i).ToString());
      if (ops->Count(stream.status())) {
        streams.push_back(stream.MoveValue());
      }
    }
    samples->setup_s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
  }

  std::uint64_t loop_ns = 0;
  for (int step = 0; step < kPassSteps; ++step) {
    const std::uint64_t s0 = WallNs();
    const Status status = eng->Step();
    const std::uint64_t dt = WallNs() - s0;
    ops->Count(status);
    loop_ns += dt;
    samples->tick_us.push_back(static_cast<double>(dt) * 1e-3);
    if (samples->heap != nullptr) {
      samples->heap->Sample();
    }
  }
  pass.loop_s = static_cast<double>(loop_ns) * 1e-9;
  ops->Count(eng->DrainPipeline());
  pass.tuples_in = eng->handler().tuples_delivered();
  pass.delivered = Summarize(streams, eng->now());
  return pass;
}

// -------------------------------------------------------- composed loop

/// Per-layer clocks of the composed loop.
struct Fig1Clocks {
  LayerClock tick;
  LayerClock advance;
  LayerClock handler;  // handler.Step, SendRequests included
  LayerClock send;     // SendRequests, inside handler.Step
  LayerClock feedback;
  LayerClock process;
  LayerClock insert;
  LayerClock remove;
};

/// The crowd side handed to the handler: forwards to the world, timing and
/// counting each SendRequests call.
class TimedNetwork final : public sensing::MobileSensorNetwork {
 public:
  explicit TimedNetwork(sensing::CrowdWorld* world) : world_(world) {}

  void set_clock(LayerClock* clock) { clock_ = clock; }
  std::uint64_t requested() const { return requested_; }
  std::uint64_t responses() const { return responses_; }

  Result<std::vector<ops::Tuple>> SendRequests(
      const sensing::AcquisitionRequest& request) override {
    LayerSpan span(clock_);
    requested_ += request.count;
    auto out = world_->SendRequests(request);
    if (out.ok()) {
      responses_ += out->size();
    }
    return out;
  }
  std::size_t AvailableSensors(const geom::Rect& region) const override {
    return world_->AvailableSensors(region);
  }

 private:
  sensing::CrowdWorld* world_;
  LayerClock* clock_ = nullptr;
  std::uint64_t requested_ = 0;
  std::uint64_t responses_ = 0;
};

/// CraqrEngine's single-shard step loop, assembled from the same
/// components through their public APIs so each call can be timed.
class ComposedCrowd {
 public:
  static Result<std::unique_ptr<ComposedCrowd>> Make(std::uint64_t seed) {
    const engine::EngineConfig config = Fig1Config(seed);
    CRAQR_ASSIGN_OR_RETURN(sensing::CrowdWorld world, MakeCrowd(seed));
    CRAQR_ASSIGN_OR_RETURN(
        geom::Grid grid,
        geom::Grid::Make(world.population().region(), config.grid_h));
    CRAQR_ASSIGN_OR_RETURN(
        std::unique_ptr<fabric::StreamFabricator> fabricator,
        fabric::StreamFabricator::Make(grid, config.fabric));
    CRAQR_ASSIGN_OR_RETURN(server::BudgetManager budgets,
                           server::BudgetManager::Make(config.budget));
    CRAQR_ASSIGN_OR_RETURN(
        server::IncentiveController incentives,
        server::IncentiveController::Make(config.incentive));
    std::unique_ptr<ComposedCrowd> c(new ComposedCrowd(
        std::move(world), config, std::move(fabricator), std::move(budgets),
        std::move(incentives)));
    CRAQR_ASSIGN_OR_RETURN(
        server::RequestResponseHandler handler,
        server::RequestResponseHandler::Make(&c->network_, &c->budgets_, grid,
                                             config.handler));
    c->handler_.emplace(std::move(handler));
    ComposedCrowd* raw = c.get();
    c->fabricator_->SetViolationCallback(
        [raw](ops::AttributeId attribute, const geom::CellIndex& cell,
              const ops::FlattenBatchReport& report) {
          // The engine's epoch contract: feedback from step e applies at
          // step e + D - 1.
          raw->deferred_.push_back(
              {raw->step_ + raw->config_.pipeline_depth - 1, attribute, cell,
               report});
        });
    return c;
  }

  ComposedCrowd(const ComposedCrowd&) = delete;
  ComposedCrowd& operator=(const ComposedCrowd&) = delete;

  /// Times the next calls into `clocks`, or nothing when null.
  void set_clocks(Fig1Clocks* clocks) {
    clocks_ = clocks;
    network_.set_clock(clocks != nullptr ? &clocks->send : nullptr);
  }

  Result<fabric::QueryStream> SubmitText(const std::string& text) {
    CRAQR_ASSIGN_OR_RETURN(const query::AcquisitionQuery q,
                           query::ParseQuery(text));
    CRAQR_RETURN_NOT_OK(q.Validate());
    CRAQR_ASSIGN_OR_RETURN(const ops::AttributeId attribute,
                           world_.AttributeIdByName(q.attribute));
    const auto insert = [&] {
      LayerSpan span(clock(&Fig1Clocks::insert));
      return fabricator_->InsertQuery(attribute, q.region, q.rate);
    };
    CRAQR_ASSIGN_OR_RETURN(fabric::QueryStream stream, insert());
    CRAQR_ASSIGN_OR_RETURN(const std::vector<geom::CellIndex> cells,
                           fabricator_->QueryCells(stream.id));
    for (const geom::CellIndex& cell : cells) {
      CRAQR_RETURN_NOT_OK(handler_->Subscribe(attribute, cell));
    }
    return stream;
  }

  Status Cancel(query::QueryId id) {
    CRAQR_ASSIGN_OR_RETURN(const fabric::QueryStream stream,
                           fabricator_->GetStream(id));
    CRAQR_ASSIGN_OR_RETURN(const std::vector<geom::CellIndex> cells,
                           fabricator_->QueryCells(id));
    {
      LayerSpan span(clock(&Fig1Clocks::remove));
      CRAQR_RETURN_NOT_OK(fabricator_->RemoveQuery(id));
    }
    for (const geom::CellIndex& cell : cells) {
      CRAQR_RETURN_NOT_OK(handler_->Unsubscribe(stream.attribute, cell));
    }
    return Status::OK();
  }

  Status Step() {
    LayerSpan tick(clock(&Fig1Clocks::tick));
    ++step_;
    now_ += config_.step_dt;
    {
      LayerSpan span(clock(&Fig1Clocks::advance));
      world_.Advance(config_.step_dt);
    }
    {
      LayerSpan span(clock(&Fig1Clocks::handler));
      CRAQR_RETURN_NOT_OK(handler_->Step(now_, &batch_));
    }
    {
      LayerSpan span(clock(&Fig1Clocks::feedback));
      ApplyDueFeedback();
    }
    LayerSpan span(clock(&Fig1Clocks::process));
    return fabricator_->ProcessBatch(batch_);
  }

  double now() const { return now_; }
  const fabric::StreamFabricator& fabricator() const { return *fabricator_; }
  const server::RequestResponseHandler& handler() const { return *handler_; }
  const server::BudgetManager& budgets() const { return budgets_; }
  const TimedNetwork& network() const { return network_; }

 private:
  struct Deferred {
    std::uint64_t due_step = 0;
    ops::AttributeId attribute = 0;
    geom::CellIndex cell;
    ops::FlattenBatchReport report;
  };

  ComposedCrowd(sensing::CrowdWorld world, const engine::EngineConfig& config,
                std::unique_ptr<fabric::StreamFabricator> fabricator,
                server::BudgetManager budgets,
                server::IncentiveController incentives)
      : world_(std::move(world)),
        network_(&world_),
        config_(config),
        fabricator_(std::move(fabricator)),
        budgets_(std::move(budgets)),
        incentives_(std::move(incentives)) {}

  LayerClock* clock(LayerClock Fig1Clocks::*member) {
    return clocks_ != nullptr ? &(clocks_->*member) : nullptr;
  }

  /// The engine's budget and incentive feedback for every report due now.
  void ApplyDueFeedback() {
    while (!deferred_.empty() && deferred_.front().due_step <= step_) {
      const Deferred& due = deferred_.front();
      const server::BudgetKey key{due.attribute, due.cell};
      const double supply_ratio =
          due.report.target_count > 0.0
              ? static_cast<double>(due.report.n) / due.report.target_count
              : std::numeric_limits<double>::infinity();
      budgets_.ReportBatch(key, due.report.violation_percent, supply_ratio);
      if (config_.enable_incentives) {
        const double incentive =
            incentives_.Update(due.attribute, due.report.violation_percent,
                               budgets_.IsSaturated(key));
        handler_->SetIncentive(due.attribute, incentive);
      }
      deferred_.pop_front();
    }
  }

  sensing::CrowdWorld world_;
  TimedNetwork network_;
  engine::EngineConfig config_;
  std::unique_ptr<fabric::StreamFabricator> fabricator_;
  server::BudgetManager budgets_;
  server::IncentiveController incentives_;
  std::optional<server::RequestResponseHandler> handler_;
  std::deque<Deferred> deferred_;
  ops::TupleBatch batch_;
  std::uint64_t step_ = 0;
  double now_ = 0.0;
  Fig1Clocks* clocks_ = nullptr;
};

/// Counters one composed pass leaves behind.
struct ComposedPass {
  double tick_wall_s = 0.0;  // sum of per-step wall times
  Delivered delivered;
  std::uint64_t requested = 0;
  std::uint64_t responses = 0;
  double pending_sum = 0.0;
  std::uint64_t budget_changes = 0;
};

/// One pass of the composed loop. With `clocks` set each layer call is
/// timed; with `layer_out` set the fabric and operator counters land there.
Result<ComposedPass> RunComposedPass(
    std::uint64_t seed, const std::vector<query::AcquisitionQuery>& probe,
    Fig1Clocks* clocks, OpCounter* ops, RunValues* layer_out) {
  CRAQR_ASSIGN_OR_RETURN(std::unique_ptr<ComposedCrowd> c,
                         ComposedCrowd::Make(seed));
  c->set_clocks(clocks);
  std::vector<fabric::QueryStream> streams;
  for (std::size_t i = 0; i < kNumFixedQueries; ++i) {
    auto stream = c->SubmitText(FixedQuery(i).ToString());
    if (ops->Count(stream.status())) {
      streams.push_back(stream.MoveValue());
    }
  }
  ComposedPass pass;
  std::uint64_t wall_ns = 0;
  for (int step = 0; step < kPassSteps; ++step) {
    const std::uint64_t s0 = WallNs();
    ops->Count(c->Step());
    wall_ns += WallNs() - s0;
    pass.pending_sum += static_cast<double>(c->handler().pending_responses());
  }
  pass.tick_wall_s = static_cast<double>(wall_ns) * 1e-9;
  pass.delivered = Summarize(streams, c->now());
  for (const query::AcquisitionQuery& q : probe) {
    auto stream = c->SubmitText(q.ToString());
    if (ops->Count(stream.status())) {
      ops->Count(c->Cancel(stream->id));
    }
  }
  pass.requested = c->network().requested();
  pass.responses = c->network().responses();
  pass.budget_changes = c->budgets().increases() + c->budgets().decreases();
  if (layer_out != nullptr) {
    SetFabricMetrics(c->fabricator(), layer_out);
  }
  return pass;
}

// ------------------------------------------------------------------ runs

RunValues RunUntraced(const RunOptions& options) {
  RunValues out;
  WindowedSeries ticks;
  SetupTimes setup;
  HeapPeak heap;
  std::map<std::uint64_t, Delivered> delivered;  // by crowd seed
  std::size_t passes = 0;
  const std::uint64_t t0 = WallNs();
  do {
    const std::size_t index = passes++;
    const std::uint64_t crowd = CrowdSeed(options.seed, index);
    EngineSamples samples;
    samples.heap = &heap;
    auto pass = RunEnginePass(crowd, &out.ops, &samples);
    if (!pass.ok()) {
      out.Fail("fig1_crowd engine pass: " + pass.status().ToString());
      return out;
    }
    const auto [it, first] = delivered.emplace(crowd, pass->delivered);
    if (!first && it->second.digest != pass->delivered.digest) {
      out.Fail("fig1_crowd: a repeated engine pass delivered other streams");
    }
    for (const double seconds : samples.setup_s) {
      setup.Add(index % kCrowds, seconds);
    }
    ticks.AddPass(samples.tick_us, static_cast<double>(pass->tuples_in),
                  pass->loop_s);
  } while (static_cast<double>(WallNs() - t0) * 1e-9 < options.seconds);

  out.Set("setup_s", setup.MeanOfMedians());
  SetLoopMetrics(ticks, &out);
  double fidelity = 0.0;
  for (const auto& [crowd, d] : delivered) {
    fidelity += d.fidelity / static_cast<double>(delivered.size());
  }
  out.Set("rate_fidelity", fidelity);
  out.Set("peak_heap_mb", heap.Mb());
  std::printf("fig1_crowd: %zu passes; ticks %zu in %zu windows\n", passes,
              ticks.samples(), ticks.windows());
  return out;
}

RunValues RunTraced(const RunOptions& options) {
  RunValues out;
  const std::uint64_t t0 = WallNs();
  EngineSamples unused;
  const std::uint64_t crowd = CrowdSeed(options.seed, 0);
  auto reference = RunEnginePass(crowd, &out.ops, &unused);
  if (!reference.ok()) {
    out.Fail("fig1_crowd engine pass: " + reference.status().ToString());
    return out;
  }
  const std::uint64_t engine_digest = reference->delivered.digest;

  Fig1Clocks clocks;
  double untraced_tick_s = 0.0;
  std::uint64_t untraced_ticks = 0;
  std::size_t traced_passes = 0;
  double pending_sum = 0.0;
  std::uint64_t budget_changes = 0;
  std::uint64_t requested = 0;
  std::uint64_t responses = 0;
  // Traced and untraced composed passes alternate, so host drift hits
  // both sides of the trace-overhead ratio alike.
  for (bool traced = true;
       traced_passes == 0 || untraced_ticks == 0 ||
       static_cast<double>(WallNs() - t0) * 1e-9 < options.seconds;
       traced = !traced) {
    auto pass = RunComposedPass(
        crowd, ProbeQueries(options.seed, traced_passes),
        traced ? &clocks : nullptr, &out.ops,
        traced && traced_passes == 0 ? &out : nullptr);
    if (!pass.ok()) {
      out.Fail("fig1_crowd composed pass: " + pass.status().ToString());
      return out;
    }
    if (pass->delivered.digest != engine_digest) {
      out.Fail("fig1_crowd: composed loop delivered other streams than "
               "CraqrEngine");
    }
    if (traced) {
      ++traced_passes;
      pending_sum += pass->pending_sum;
      budget_changes += pass->budget_changes;
      requested += pass->requested;
      responses += pass->responses;
    } else {
      untraced_tick_s += pass->tick_wall_s;
      untraced_ticks += kPassSteps;
    }
  }

  const double ticks = static_cast<double>(clocks.tick.calls);
  const double tick_wall = static_cast<double>(clocks.tick.wall_ns);
  const auto wall_share = [&](const LayerClock& c) {
    return Share(static_cast<double>(c.wall_ns), tick_wall);
  };
  // handler.Step's self time: minus the SendRequests spans inside it and
  // the clock reads those spans leave outside their own intervals.
  const SpanLeak leak = MeasureSpanLeak();
  const double sends = static_cast<double>(clocks.send.calls);
  const double self_wall = static_cast<double>(clocks.handler.wall_ns) -
                           static_cast<double>(clocks.send.wall_ns) -
                           sends * leak.wall_ns;
  const double self_cpu = static_cast<double>(clocks.handler.cpu_ns) -
                          static_cast<double>(clocks.send.cpu_ns) -
                          sends * leak.cpu_ns;
  const double traced_tick_us = clocks.tick.MeanUs();
  const double untraced_tick_us =
      Share(untraced_tick_s * 1e6, static_cast<double>(untraced_ticks));

  out.Set("obs.traced_tick_us", traced_tick_us);
  out.Set("obs.trace_overhead_share",
          Share(traced_tick_us - untraced_tick_us, untraced_tick_us));
  const double attributed = wall_share(clocks.advance) +
                            wall_share(clocks.handler) +
                            wall_share(clocks.feedback) +
                            wall_share(clocks.process);
  out.Set("obs.unattributed_share", 1.0 - attributed);
  out.Set("sensing.advance_share", wall_share(clocks.advance));
  out.Set("sensing.advance_cpu_share", clocks.advance.CpuShare());
  out.Set("sensing.send_requests_share", wall_share(clocks.send));
  out.Set("sensing.send_requests_cpu_share", clocks.send.CpuShare());
  out.Set("sensing.send_requests_calls",
          Share(static_cast<double>(clocks.send.calls), ticks));
  out.Set("sensing.response_share", Share(static_cast<double>(responses),
                                          static_cast<double>(requested)));
  out.Set("server.handler_self_share", Share(self_wall, tick_wall));
  out.Set("server.handler_self_cpu_share", Share(self_cpu, self_wall));
  out.Set("server.pending_responses", Share(pending_sum, ticks));
  out.Set("server.budget_changes",
          Share(static_cast<double>(budget_changes), ticks));
  out.Set("core.feedback_share", wall_share(clocks.feedback));
  out.Set("core.feedback_cpu_share", clocks.feedback.CpuShare());
  out.Set("fabric.process_us", clocks.process.MeanUs());
  out.Set("fabric.process_share", wall_share(clocks.process));
  out.Set("fabric.process_cpu_share", clocks.process.CpuShare());
  out.Set("query.insert_us", clocks.insert.MeanUs());
  out.Set("query.remove_us", clocks.remove.MeanUs());
  std::printf("fig1_crowd traced: %zu traced passes, %llu untraced ticks\n",
              traced_passes, static_cast<unsigned long long>(untraced_ticks));
  return out;
}

}  // namespace

RunValues RunFig1Crowd(const RunOptions& options) {
  RunValues out = options.trace ? RunTraced(options) : RunUntraced(options);
  out.Set("obs.peak_rss_mb", PeakRssMb());
  return out;
}

}  // namespace perfbench
