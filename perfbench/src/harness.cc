#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "ops/value_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) {
    return upper;
  }
  return 0.5 * (upper + *std::max_element(samples.begin(),
                                          samples.begin() + mid));
}

double SetupTimes::MeanOfMedians() const {
  double sum = 0.0;
  std::size_t inputs = 0;
  for (const std::vector<double>& times : by_input_) {
    if (!times.empty()) {
      sum += Median(times);
      ++inputs;
    }
  }
  return inputs > 0 ? sum / static_cast<double>(inputs) : 0.0;
}

void WindowedSeries::AddPass(const std::vector<double>& samples_us,
                             double work, double seconds) {
  open_.insert(open_.end(), samples_us.begin(), samples_us.end());
  work_ += work;
  seconds_ += seconds;
  samples_ += samples_us.size();
  if (open_.size() >= kMinSamples) {
    closed_.push_back(Summarize());
    open_.clear();
    work_ = 0.0;
    seconds_ = 0.0;
  }
}

WindowedSeries::Window WindowedSeries::Summarize() const {
  Window w;
  w.p50 = Percentile(open_, 0.50);
  w.p99 = Percentile(open_, 0.99);
  w.rate = seconds_ > 0.0 ? work_ / seconds_ : 0.0;
  return w;
}

double WindowedSeries::MedianOver(double Window::*field) const {
  std::vector<double> values;
  for (const Window& w : closed_) {
    values.push_back(w.*field);
  }
  if (values.empty()) {
    values.push_back(Summarize().*field);
  }
  return Median(values);
}

namespace {

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// A serial integer/floating-point dependency chain whose time tracks the
/// core's single-thread speed, not memory.
std::uint64_t CalibrationKernel(std::uint64_t seed) {
  std::uint64_t x = seed | 1u;
  double acc = 1.0;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x & 0xFF) * 1e-9;
  }
  return x ^ static_cast<std::uint64_t>(acc * 1e6);
}

/// Keeps the calibration results live so the kernel is not optimized out.
volatile std::uint64_t g_calibration_sink = 0;

std::uint64_t TimeKernel(std::uint64_t seed) {
  const std::uint64_t t0 = WallNs();
  g_calibration_sink = g_calibration_sink ^ CalibrationKernel(seed);
  return WallNs() - t0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t FoldStream(std::uint64_t h,
                         const std::vector<craqr::ops::Tuple>& tuples) {
  for (const auto& tuple : tuples) {
    h = Fnv(h, &tuple.id, sizeof(tuple.id));
    h = Fnv(h, &tuple.sensor_id, sizeof(tuple.sensor_id));
    h = Fnv(h, &tuple.attribute, sizeof(tuple.attribute));
    h = Fnv(h, &tuple.point.t, sizeof(tuple.point.t));
    h = Fnv(h, &tuple.point.x, sizeof(tuple.point.x));
    h = Fnv(h, &tuple.point.y, sizeof(tuple.point.y));
    const auto kind = static_cast<unsigned char>(tuple.value.kind());
    h = Fnv(h, &kind, sizeof(kind));
    const std::string rendered = craqr::ops::PayloadToString(tuple.value);
    h = Fnv(h, rendered.data(), rendered.size());
  }
  return h;
}

SpanLeak MeasureSpanLeak() {
  constexpr int kSpans = 2000;
  std::vector<double> wall;
  std::vector<double> cpu;
  for (int rep = 0; rep < 7; ++rep) {
    LayerClock inner;
    const std::uint64_t cpu0 = ThreadCpuNs();
    const std::uint64_t wall0 = WallNs();
    for (int i = 0; i < kSpans; ++i) {
      LayerSpan span(&inner);
    }
    const std::uint64_t wall1 = WallNs();
    const std::uint64_t cpu1 = ThreadCpuNs();
    wall.push_back((static_cast<double>(wall1 - wall0) -
                    static_cast<double>(inner.wall_ns)) / kSpans);
    cpu.push_back((static_cast<double>(cpu1 - cpu0) -
                   static_cast<double>(inner.cpu_ns)) / kSpans);
  }
  return {Median(wall), Median(cpu)};
}

void HeapPeak::Sample() {
  const struct mallinfo2 info = mallinfo2();
  peak_bytes_ = std::max(peak_bytes_, info.uordblks + info.hblkhd);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintHostStamp(const std::string& git_sha) {
  std::vector<double> single;
  for (int rep = 0; rep < 5; ++rep) {
    single.push_back(static_cast<double>(TimeKernel(rep + 1)));
  }
  const double single_ns = Median(single);

  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::max(nproc, 1);
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> workers;
  const std::uint64_t t0 = WallNs();
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([i, &sinks] {
      sinks[static_cast<std::size_t>(i)] = CalibrationKernel(100 + i);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const double parallel_ns = static_cast<double>(WallNs() - t0);
  // N copies of the kernel at once, relative to one copy alone: 1.0 when
  // N threads really run in parallel.
  const double spin_efficiency =
      parallel_ns > 0.0 ? single_ns / parallel_ns : 0.0;
  for (const std::uint64_t s : sinks) {
    g_calibration_sink = g_calibration_sink ^ s;
  }

  std::printf(
      "host {\"calib_ns\": %.0f, \"spin_threads\": %d, "
      "\"spin_efficiency\": %.4f, \"nproc\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\"}\n",
      single_ns, threads, spin_efficiency, nproc,
      JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      JsonEscape(git_sha).c_str());
}

}  // namespace perfbench
