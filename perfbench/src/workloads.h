// The three closed-loop workloads. Each client sends its next request when
// the previous answer arrives, over its own loopback connection, and checks
// every answer.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <vector>

#include "fixture.h"
#include "stats.h"

namespace perfbench {

/// What one measured loop observed.
struct LoopResult {
  /// Latency of every /v1/query answered from a cached release.
  LatencyHistogram query_ms;
  /// Time to first answer (ms) of each new NoiseFirst / StructureFirst key:
  /// from sending a /v1/query that names it to its answer.
  std::vector<double> nf_ttfa_ms;
  std::vector<double> sf_ttfa_ms;
  /// New releases published, fetched and recorded.
  std::size_t publishes = 0;
  /// Index of the first key the loop did not use.
  std::size_t next_key = 0;
  /// Completions of the cached queries, counted in windows of the loop.
  RateWindows queries_done;
  /// Completion time of each new release, in order.
  std::vector<RateWindows::Clock::time_point> publishes_done;
  /// Start and end of the loop.
  RateWindows::Clock::time_point start;
  RateWindows::Clock::time_point end;
  /// The new releases' answers against the truth.
  ErrorSum error;
};

/// hot_query: 2 connections cycle through the hot request pool (every
/// request a cache hit) for `seconds`.
LoopResult RunHotQuery(Deployment& deployment, double seconds,
                       Recorder& recorder);

/// cold_publish: 2 connections ask, at the same moment, for each new key of
/// the cold tenant from `first_key` on; one of them then fetches the
/// release. Whole keys only: the loop stops at the first key that would
/// start after `seconds`.
LoopResult RunColdPublish(Deployment& deployment, const Inputs& inputs,
                          std::size_t first_key, double seconds,
                          Recorder& recorder);

/// mixed_rw: 2 reader connections run hot_query traffic while 1 writer
/// connection publishes new keys of the writer tenant from `first_key` on.
LoopResult RunMixed(Deployment& deployment, const Inputs& inputs,
                    std::size_t first_key, double seconds, Recorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
