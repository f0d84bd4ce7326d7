// Small statistics and reporting helpers shared by the benchmark binary and
// its self-test.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation
/// between order statistics; 0 for an empty input. Takes a copy: callers
/// keep their sample order.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latencies in fixed memory: log-spaced buckets 0.1% wide from 1 us to
/// 100 s, so a long or fast run does not grow the process (peak RSS is an
/// end-to-end metric). Quantiles interpolate within a bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// The q-quantile in ms; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Completions counted in 10 ms slots from a start time, so that a rate
/// can be reported as the median over windows of the run: a stall (a vCPU
/// the host took away for a while) then moves a few windows instead of the
/// mean of the whole run. Grows by one slot per 10 ms of the run.
class RateWindows {
 public:
  using Clock = std::chrono::steady_clock;
  RateWindows() = default;
  explicit RateWindows(Clock::time_point start) : start_(start) {}
  void Add(Clock::time_point at);
  /// Adds `other`'s counts; both must share the start time.
  void Merge(const RateWindows& other);
  /// Completions per second in each whole window of `window_s` seconds
  /// (rounded to whole slots) that ended by `end`.
  std::vector<double> Rates(double window_s, Clock::time_point end) const;

 private:
  Clock::time_point start_;
  std::vector<std::uint64_t> slots_;
};

/// Completions per second in each run of `block` consecutive completions
/// (`done`, in order), the first run timed from `start`. With `block` a
/// whole number of the key sequence's cycles, every run holds the same mix
/// of operations.
std::vector<double> BlockRates(
    RateWindows::Clock::time_point start,
    const std::vector<RateWindows::Clock::time_point>& done,
    std::size_t block);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (name -> {value, unit}), values printed with all their
/// significant digits.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/// SplitMix64: the benchmark's own generator for inputs derived from
/// `--seed` (independent of the library's Rng, so inputs do not change when
/// the program's generator does).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
