#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

namespace {

constexpr double kMinMs = 1e-3;
constexpr double kBucketRatio = 1.001;
const double kLogRatio = std::log(kBucketRatio);
constexpr std::size_t kBuckets = 18500;  // kMinMs * 1.001^18500 > 100 s

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(double ms) {
  const double position = std::log(std::max(ms, kMinMs) / kMinMs) / kLogRatio;
  const std::size_t bucket =
      std::min(kBuckets - 1, static_cast<std::size_t>(position));
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  // The rank as Quantile() above would interpolate it, located in its
  // bucket; within a bucket the samples are taken as log-uniform.
  const double rank = q * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (in_bucket > 0.0 && rank < below + in_bucket) {
      const double fraction = (rank - below + 0.5) / in_bucket;
      return kMinMs * std::exp((static_cast<double>(i) + fraction) * kLogRatio);
    }
    below += in_bucket;
  }
  return kMinMs * std::exp(static_cast<double>(kBuckets) * kLogRatio);
}

namespace {
constexpr std::chrono::milliseconds kSlot{10};
}  // namespace

void RateWindows::Add(Clock::time_point at) {
  if (at < start_) {
    return;
  }
  const auto slot = static_cast<std::size_t>((at - start_) / kSlot);
  if (slot >= slots_.size()) {
    slots_.resize(slot + 1, 0);
  }
  ++slots_[slot];
}

void RateWindows::Merge(const RateWindows& other) {
  if (other.slots_.size() > slots_.size()) {
    slots_.resize(other.slots_.size(), 0);
  }
  for (std::size_t i = 0; i < other.slots_.size(); ++i) {
    slots_[i] += other.slots_[i];
  }
}

std::vector<double> RateWindows::Rates(double window_s,
                                       Clock::time_point end) const {
  const double slot_s = std::chrono::duration<double>(kSlot).count();
  const auto per_window = static_cast<std::size_t>(
      std::max(1.0, std::round(window_s / slot_s)));
  const std::size_t whole_slots =
      end > start_ ? static_cast<std::size_t>((end - start_) / kSlot) : 0;
  std::vector<double> rates;
  for (std::size_t first = 0; first + per_window <= whole_slots;
       first += per_window) {
    std::uint64_t count = 0;
    for (std::size_t i = first; i < first + per_window && i < slots_.size();
         ++i) {
      count += slots_[i];
    }
    rates.push_back(static_cast<double>(count) /
                    (static_cast<double>(per_window) * slot_s));
  }
  return rates;
}

std::vector<double> BlockRates(
    RateWindows::Clock::time_point start,
    const std::vector<RateWindows::Clock::time_point>& done,
    std::size_t block) {
  std::vector<double> rates;
  auto from = start;
  for (std::size_t last = block; block > 0 && last <= done.size();
       last += block) {
    const double seconds =
        std::chrono::duration<double>(done[last - 1] - from).count();
    if (seconds > 0.0) {
      rates.push_back(static_cast<double>(block) / seconds);
    }
    from = done[last - 1];
  }
  return rates;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
