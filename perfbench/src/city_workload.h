#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geometry/rect.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"

/// \file city_workload.h
/// \brief The city query schedule and tuple traffic, generated one pass at
/// a time.
///
/// Same model and the same random draws as the repository's
/// bench/workload_gen (bursty arrivals of corridor queries drawn from a
/// skewed template pool, churn cancellations, traffic skewed toward the
/// watched hot spots), so a seed gives the same schedule and tuples. The
/// benchmark keeps its own copy so its inputs cannot shift when the
/// repository's bench helpers change, and it writes batches straight into
/// the columnar TupleBatch the runtime consumes instead of holding a
/// second row-form copy of the whole run.

namespace perfbench {

struct CityConfig {
  craqr::geom::Rect region = craqr::geom::Rect(0, 0, 8, 8);
  std::size_t num_queries = 256;
  double overlap_fraction = 0.9;
  double template_alpha = 1.4;
  std::size_t num_attributes = 2;
  double churn_fraction = 0.2;
  std::size_t num_batches = 256;
  double burst_mean = 8.0;
  double min_extent = 0.28;
  double max_extent = 0.48;
  double corridor_fraction = 0.9;
  double corridor_length_min = 6.0;
  double corridor_length_max = 7.5;
  double min_rate = 60.0;
  double max_rate = 240.0;
  double traffic_skew = 0.85;
  double hot_halo = 0.25;
  std::size_t batch_size = 512;
  /// Simulated minutes per tuple.
  double dt = 0.0005;
  std::uint64_t seed = 1;
};

struct CityQuery {
  craqr::ops::AttributeId attribute = 0;
  craqr::geom::Rect region;
  double rate = 1.0;
};

/// One schedule event, applied before batch `at_batch` is fed.
struct CityEvent {
  bool insert = true;
  /// Dense arrival index of the query this event inserts or cancels.
  std::size_t slot = 0;
  CityQuery query;  // insert only
  std::size_t at_batch = 0;
};

class CityWorkload {
 public:
  explicit CityWorkload(const CityConfig& config);

  const CityConfig& config() const { return config_; }
  /// Arrival / cancel schedule, sorted by at_batch.
  const std::vector<CityEvent>& schedule() const { return schedule_; }
  /// Simulated minutes one pass covers.
  double Minutes() const {
    return config_.dt * static_cast<double>(config_.num_batches) *
           static_cast<double>(config_.batch_size);
  }
  /// Writes the pass's tuple batches into `out` (resized to num_batches;
  /// existing batch storage is reused). Deterministic in the seed.
  void MakeBatches(std::vector<craqr::ops::TupleBatch>* out) const;

 private:
  CityQuery FreshQuery(craqr::Rng* rng) const;
  std::size_t PickTemplate(craqr::Rng* rng) const;

  CityConfig config_;
  std::vector<CityQuery> templates_;
  std::vector<double> template_cdf_;
  std::vector<CityEvent> schedule_;
};

}  // namespace perfbench
