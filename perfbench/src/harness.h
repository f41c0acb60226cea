#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "common/status.h"
#include "ops/tuple.h"

/// \file harness.h
/// \brief Clocks, samples, digests and the host stamp shared by the
/// workloads.

namespace perfbench {

inline std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time the calling thread has consumed; unlike wall time it excludes
/// the stretches the thread sat descheduled behind another thread.
inline std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Wall and thread-CPU time spent inside one traced call site.
struct LayerClock {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t calls = 0;

  /// Mean wall time per call in µs; 0 without calls.
  double MeanUs() const {
    return calls > 0 ? static_cast<double>(wall_ns) * 1e-3 /
                           static_cast<double>(calls)
                     : 0.0;
  }
  /// Thread-CPU time over wall time; below 1 when the caller was
  /// descheduled or blocked inside the calls.
  double CpuShare() const {
    return wall_ns > 0 ? static_cast<double>(cpu_ns) /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};

/// Charges the enclosing scope to `clock`; a null clock (tracing off)
/// reads no clocks at all. The wall interval encloses both CPU-clock reads
/// (a system call each), so an enclosing span loses almost no wall time to
/// a nested one; see SpanLeak for the rest.
class LayerSpan {
 public:
  explicit LayerSpan(LayerClock* clock) : clock_(clock) {
    if (clock_ != nullptr) {
      wall0_ = WallNs();
      cpu0_ = ThreadCpuNs();
    }
  }
  ~LayerSpan() {
    if (clock_ != nullptr) {
      clock_->cpu_ns += ThreadCpuNs() - cpu0_;
      clock_->wall_ns += WallNs() - wall0_;
      ++clock_->calls;
    }
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  LayerClock* clock_;
  std::uint64_t wall0_ = 0;
  std::uint64_t cpu0_ = 0;
};

/// What one nested LayerSpan costs its enclosing span beyond the time it
/// records itself: the parts of its own clock reads that fall outside its
/// interval. Subtract calls x this from a parent to get its self time.
struct SpanLeak {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
};

/// Measures SpanLeak on the running machine (a few milliseconds).
SpanLeak MeasureSpanLeak();

/// Counts calls into the system and the ones that returned an error; an
/// error is recorded, never fatal, so one bad call does not end the run.
struct OpCounter {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Returns true when `status` is OK.
  bool Count(const craqr::Status& status) {
    ++attempted;
    if (!status.ok()) {
      ++failed;
      return false;
    }
    return true;
  }
};

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);
/// Median of unsorted samples (the mean of the middle two for an even
/// count); 0 if empty.
double Median(std::vector<double> samples);

/// Set-up times of a run that cycles through several inputs: the median
/// per input, averaged over inputs, so neither host noise nor which input
/// a run's last passes landed on moves the figure.
class SetupTimes {
 public:
  void Add(std::size_t input, double seconds) {
    if (input >= by_input_.size()) {
      by_input_.resize(input + 1);
    }
    by_input_[input].push_back(seconds);
  }
  double MeanOfMedians() const;

 private:
  std::vector<std::vector<double>> by_input_;
};

/// Closed-loop iteration times, cut into windows of whole passes holding
/// at least kMinSamples samples each. Each figure is the median over windows, so
/// a stretch of interference from other work on the host moves at most a
/// minority of windows, and each window's p99 has at least ten samples
/// above it. A run too short to close a window reports its open one.
class WindowedSeries {
 public:
  static constexpr std::size_t kMinSamples = 1000;

  /// Adds one pass's samples (µs); `work` done in `seconds` of wall time
  /// accumulates beside them for Rate().
  void AddPass(const std::vector<double>& samples_us, double work = 0.0,
               double seconds = 0.0);

  double P50() const { return MedianOver(&Window::p50); }
  double P99() const { return MedianOver(&Window::p99); }
  /// Work per second.
  double Rate() const { return MedianOver(&Window::rate); }

  std::size_t samples() const { return samples_; }
  std::size_t windows() const { return closed_.size(); }

 private:
  struct Window {
    double p50 = 0.0;
    double p99 = 0.0;
    double rate = 0.0;
  };
  Window Summarize() const;
  double MedianOver(double Window::*field) const;

  std::vector<Window> closed_;
  std::vector<double> open_;
  double work_ = 0.0;
  double seconds_ = 0.0;
  std::size_t samples_ = 0;
};

/// FNV-1a offset basis: the digest of nothing.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Folds a delivered stream into `h`: every field of every tuple in
/// delivery order, payload rendered through its pool. Same per-tuple fold
/// as the engine digest pins in tests/core_engine_test.cc.
std::uint64_t FoldStream(std::uint64_t h,
                         const std::vector<craqr::ops::Tuple>& tuples);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// The highest heap footprint seen: bytes the allocator has handed out and
/// not yet taken back, sampled between loop iterations. Unlike resident
/// memory it leaves out the allocator's own slack, which with a worker
/// thread's separate arena swings by tens of MiB from run to run.
class HeapPeak {
 public:
  void Sample();
  double Mb() const { return static_cast<double>(peak_bytes_) / 1048576.0; }

 private:
  std::size_t peak_bytes_ = 0;
};

/// Prints the host calibration stamp as one `host {...}` line.
void PrintHostStamp(const std::string& git_sha);

}  // namespace perfbench
