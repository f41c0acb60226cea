#include "city_workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using craqr::Rng;
using craqr::geom::Rect;

CityWorkload::CityWorkload(const CityConfig& config) : config_(config) {
  Rng rng(config_.seed);

  // Hot-spot templates with popularity weight (k+1)^-alpha.
  const std::size_t pool = std::max<std::size_t>(4, config_.num_queries / 64);
  for (std::size_t k = 0; k < pool; ++k) {
    templates_.push_back(FreshQuery(&rng));
  }
  double total = 0.0;
  for (std::size_t k = 0; k < pool; ++k) {
    total += std::pow(static_cast<double>(k + 1), -config_.template_alpha);
    template_cdf_.push_back(total);
  }
  for (double& c : template_cdf_) {
    c /= total;
  }

  // Bursts of arrivals at random batch gaps; churn_fraction of arrivals
  // also cancel a random live query a few batches later.
  std::vector<std::size_t> live;
  std::size_t next_slot = 0;
  std::size_t batch = 0;
  const std::size_t span = std::max<std::size_t>(config_.num_batches, 2);
  while (next_slot < config_.num_queries) {
    batch = std::min<std::size_t>(batch + 1 + rng.UniformInt(4), span - 1);
    std::size_t burst =
        1 + static_cast<std::size_t>(rng.Poisson(config_.burst_mean));
    burst = std::min(burst, config_.num_queries - next_slot);
    for (std::size_t b = 0; b < burst; ++b) {
      CityEvent ev;
      ev.slot = next_slot++;
      ev.at_batch = batch;
      ev.query = rng.Bernoulli(config_.overlap_fraction)
                     ? templates_[PickTemplate(&rng)]
                     : FreshQuery(&rng);
      schedule_.push_back(ev);
      live.push_back(ev.slot);
      if (rng.Bernoulli(config_.churn_fraction) && live.size() > 1) {
        CityEvent cancel;
        cancel.insert = false;
        cancel.at_batch =
            std::min<std::size_t>(batch + 1 + rng.UniformInt(8), span - 1);
        const std::size_t pick = rng.UniformInt(live.size());
        cancel.slot = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        schedule_.push_back(cancel);
      }
    }
  }
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const CityEvent& a, const CityEvent& b) {
                     return a.at_batch < b.at_batch;
                   });
}

CityQuery CityWorkload::FreshQuery(Rng* rng) const {
  CityQuery q;
  q.attribute = static_cast<craqr::ops::AttributeId>(
      rng->UniformInt(std::max<std::size_t>(config_.num_attributes, 1)));
  double w = 0.0;
  double h = 0.0;
  if (rng->Bernoulli(config_.corridor_fraction)) {
    // A road-segment corridor: several cells long, a little more than one
    // cell of area.
    const double length = rng->Uniform(config_.corridor_length_min,
                                       config_.corridor_length_max);
    const double area = config_.min_extent * config_.min_extent *
                        rng->Uniform(1.0, 1.08);
    const double width = area / length;
    const bool horizontal = rng->Bernoulli(0.5);
    w = horizontal ? length : width;
    h = horizontal ? width : length;
  } else {
    w = rng->Uniform(config_.min_extent, config_.max_extent);
    h = rng->Uniform(config_.min_extent, config_.max_extent);
  }
  const Rect& r = config_.region;
  const double x0 = rng->Uniform(r.x_min(), r.x_max() - w);
  const double y0 = rng->Uniform(r.y_min(), r.y_max() - h);
  q.region = Rect(x0, y0, x0 + w, y0 + h);
  q.rate = rng->Uniform(config_.min_rate, config_.max_rate);
  return q;
}

std::size_t CityWorkload::PickTemplate(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it =
      std::lower_bound(template_cdf_.begin(), template_cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - template_cdf_.begin()),
      templates_.size() - 1);
}

void CityWorkload::MakeBatches(
    std::vector<craqr::ops::TupleBatch>* out) const {
  // Independent of the schedule's stream, as in bench/workload_gen.
  Rng rng(craqr::SplitMix64(config_.seed ^ 0x7D5F1E5ull));
  const Rect& region = config_.region;
  double t = 0.0;
  std::uint64_t id = 1;
  out->resize(config_.num_batches);
  for (craqr::ops::TupleBatch& batch : *out) {
    batch.Clear();
    batch.Reserve(config_.batch_size);
    for (std::size_t i = 0; i < config_.batch_size; ++i) {
      craqr::ops::Tuple tuple;
      tuple.id = id++;
      tuple.attribute = static_cast<craqr::ops::AttributeId>(
          rng.UniformInt(std::max<std::size_t>(config_.num_attributes, 1)));
      t += config_.dt;
      Rect target = region;
      if (rng.Bernoulli(config_.traffic_skew)) {
        const Rect& hot = templates_[PickTemplate(&rng)].region;
        const double m = config_.hot_halo;
        target = Rect(std::max(region.x_min(), hot.x_min() - m),
                      std::max(region.y_min(), hot.y_min() - m),
                      std::min(region.x_max(), hot.x_max() + m),
                      std::min(region.y_max(), hot.y_max() + m));
      }
      const double x = rng.Uniform(target.x_min(), target.x_max());
      const double y = rng.Uniform(target.y_min(), target.y_max());
      tuple.point = craqr::geom::SpaceTimePoint{t, x, y};
      batch.Append(tuple);
    }
  }
}

}  // namespace perfbench
