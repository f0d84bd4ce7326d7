// The traced run's per-layer replay: times calls into each module's public
// functions from benchmark code, and reads work counts from the program's
// obs registry. No span is added inside the program.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>
#include <thread>
#include <vector>

#include "fixture.h"

namespace perfbench {

/// Median nanoseconds per call of each hot-path function, over the hot
/// request pool, against the live deployment's cached releases.
struct HotLayers {
  double http_parse_ns = 0.0;        // HttpParser::Feed, one request
  double wire_decode_ns = 0.0;       // DecodeFrame of the request body
  double cache_lookup_ns = 0.0;      // ReleaseServer::TryGetCached
  double answer_batch_ns = 0.0;      // ReleaseServer::TryAnswerCached
  double range_answer_ns = 0.0;      // AnswerQueries (dense releases)
  double encode_answer_ns = 0.0;     // EncodeBatchAnswer
  double response_head_ns = 0.0;     // SerializeResponseHead

  /// The server-side work of one cached /v1/query: parse, decode, answer
  /// (lookup included), encode, head.
  double SumNs() const {
    return http_parse_ns + wire_decode_ns + answer_batch_ns +
           encode_answer_ns + response_head_ns;
  }
};

HotLayers ReplayHot(Deployment& deployment);

/// Median milliseconds per call of each cold-path function, and work counts
/// per publish, over the first kReplayKeys keys of the cold tenant's key
/// sequence. Calls run on a worker of the global pool, where a served
/// publish runs (so nested parallel loops run inline, as they do there).
struct ColdLayers {
  double noise_first_ms = 0.0;       // NoiseFirst::Publish
  double structure_first_ms = 0.0;   // StructureFirst::Publish
  double noise_ms = 0.0;             // AddContinuousNoise, n bins
  double cost_table_ms = 0.0;        // IntervalCostTable::Create
  double vopt_solve_ms = 0.0;        // VOptSolver::Solve
  double traceback_ms = 0.0;         // VOptSolver::Traceback
  double seal_ms = 0.0;              // SealedRelease construction
  double encode_release_ms = 0.0;    // EncodeHistogram
  double journal_append_ms = 0.0;    // Journal::Append (no fsync)
  double journal_fsync_ms = 0.0;     // Journal::Sync

  // Counts per publish from obs, publishing the same keys through a fresh
  // in-process ReleaseServer with a journal (each key asked twice).
  double journal_bytes = 0.0;
  double ledger_charges = 0.0;       // per distinct release; must be 1
  double vopt_cost_lookups = 0.0;
  double vopt_bound_scans = 0.0;
  double vopt_cells = 0.0;
  double laplace_draws = 0.0;
};

inline constexpr std::size_t kReplayKeys = 2 * kRunLength;

/// Measures how long a task submitted to the global pool — where the
/// network server dispatches requests — waits before a worker starts it:
/// while the probe lives, a thread submits an empty task every 5 ms and
/// times the delay to its start.
class PoolWaitProbe {
 public:
  PoolWaitProbe();
  PoolWaitProbe(const PoolWaitProbe&) = delete;
  PoolWaitProbe& operator=(const PoolWaitProbe&) = delete;

  /// Stops probing; the median wait in ms.
  double StopAndMedianMs();

 private:
  std::vector<double> waits_ms_;  // written by thread_ until it is joined
  std::jthread thread_;
};

/// Replays the cold path; `work_dir` holds the replay journals. Enables
/// obs for the counting pass and leaves it disabled.
ColdLayers ReplayCold(const Inputs& inputs, const std::string& work_dir,
                      Recorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
