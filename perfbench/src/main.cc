// dphist end-to-end benchmark. Runs one closed-loop workload over loopback
// against an in-process NetServer + ReleaseServer, checks every output, and
// prints one JSON result line (see README.md).
//
//   perfbench --workload <hot_query|cold_publish|mixed_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run instead.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dphist/obs/obs.h"
#include "fixture.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median. An untraced run also splits
/// its loop into as many slices, one after each set-up.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && args->seconds > 0.0 &&
         (args->workload == "hot_query" || args->workload == "cold_publish" ||
          args->workload == "mixed_rw");
}

/// Runs the workload's measured loop from key `first_key` on.
LoopResult RunLoop(const std::string& workload, Deployment& deployment,
                   const Inputs& inputs, std::size_t first_key,
                   double seconds, Recorder& recorder) {
  if (workload == "hot_query") {
    return RunHotQuery(deployment, seconds, recorder);
  }
  if (workload == "cold_publish") {
    return RunColdPublish(deployment, inputs, first_key, seconds, recorder);
  }
  return RunMixed(deployment, inputs, first_key, seconds, recorder);
}

/// Window of the loop's query rate: thousands of answers.
constexpr double kQueryWindowS = 0.1;
/// Block of the loop's publish rate: two cycles of the key sequence (a run
/// of kRunLength NoiseFirst keys, then one of StructureFirst keys), so that
/// every block holds as many releases of each publisher.
constexpr std::size_t kPublishBlock = 4 * kRunLength;

/// The end-to-end metrics. Rates are medians over windows of the run, or
/// over the set-ups, so a stall of the host moves a few windows rather than
/// the figure. A workload whose loop lacks one kind of operation reports it
/// from its set-ups, which have both: hot_query (no publishes in its loop)
/// takes publish rate and time to first answer over the set-ups' warm-up
/// publishes, and cold_publish (no cached queries) takes query rate and
/// latency over the set-ups' passes over the hot pool.
std::vector<Metric> EndToEnd(const std::string& workload,
                             const std::vector<SetupSample>& setups,
                             const std::vector<LoopResult>& slices,
                             const Deployment& deployment) {
  std::vector<double> setup_seconds;
  std::vector<double> setup_nf;
  std::vector<double> setup_sf;
  std::vector<double> setup_pool_ms;
  std::vector<double> setup_pool_rates;
  std::vector<double> setup_publish_rates;
  for (const SetupSample& s : setups) {
    setup_seconds.push_back(s.seconds);
    setup_nf.insert(setup_nf.end(), s.nf_ttfa_ms.begin(), s.nf_ttfa_ms.end());
    setup_sf.insert(setup_sf.end(), s.sf_ttfa_ms.begin(), s.sf_ttfa_ms.end());
    setup_pool_ms.insert(setup_pool_ms.end(), s.pool_ms.begin(),
                         s.pool_ms.end());
    setup_pool_rates.insert(setup_pool_rates.end(), s.pool_rates.begin(),
                            s.pool_rates.end());
    setup_publish_rates.push_back(s.publish_per_s);
  }
  LatencyHistogram query_ms;
  std::vector<double> query_rates;
  std::vector<double> publish_rates;
  std::vector<double> nf_ttfa;
  std::vector<double> sf_ttfa;
  ErrorSum error;
  for (const LoopResult& slice : slices) {
    query_ms.Merge(slice.query_ms);
    const std::vector<double> q =
        slice.queries_done.Rates(kQueryWindowS, slice.end);
    query_rates.insert(query_rates.end(), q.begin(), q.end());
    const std::vector<double> p =
        BlockRates(slice.start, slice.publishes_done, kPublishBlock);
    publish_rates.insert(publish_rates.end(), p.begin(), p.end());
    nf_ttfa.insert(nf_ttfa.end(), slice.nf_ttfa_ms.begin(),
                   slice.nf_ttfa_ms.end());
    sf_ttfa.insert(sf_ttfa.end(), slice.sf_ttfa_ms.begin(),
                   slice.sf_ttfa_ms.end());
    error.abs_sum += slice.error.abs_sum;
    error.count += slice.error.count;
  }
  const bool publishes_from_setup = workload == "hot_query";
  const bool queries_from_setup = workload == "cold_publish";
  if (workload != "cold_publish") {  // the loop's readers answered the pool
    error.abs_sum += deployment.hot_error.abs_sum;
    error.count += deployment.hot_error.count;
  }
  return {
      {"setup_s", Median(setup_seconds), "s"},
      {"query_qps",
       Median(queries_from_setup ? setup_pool_rates : query_rates), "1/s"},
      {"query_p50_ms",
       queries_from_setup ? Median(setup_pool_ms) : query_ms.Quantile(0.5),
       "ms"},
      {"publish_per_s",
       Median(publishes_from_setup ? setup_publish_rates : publish_rates),
       "1/s"},
      {"nf_ttfa_p50_ms", Median(publishes_from_setup ? setup_nf : nf_ttfa),
       "ms"},
      {"sf_ttfa_p50_ms", Median(publishes_from_setup ? setup_sf : sf_ttfa),
       "ms"},
      {"range_mae", error.Mean(), "count"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

double MetricValue(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

int Run(const Args& args) {
  const std::string dir =
      args.workdir + "/run-" + std::to_string(static_cast<long>(getpid()));
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return 1;
  }
  // Obs stays off outside the traced half, whatever DPHIST_OBS_OUT says.
  dphist::obs::Registry::Global().set_enabled(false);
  const Inputs inputs(args.seed);
  Recorder recorder;

  // The first set-up's deployment is the one the loop runs against; every
  // other set-up is timed on a deployment of its own, torn down at once. In
  // an untraced run those set-ups sit between slices of the loop, so that
  // set-up figures sample the whole run as the loop's do: back to back at
  // the start, one slow spell of the host moved all five of them.
  std::vector<SetupSample> setups(kSetups);
  auto set_up = [&](int i) {
    return SetUp(inputs, dir + "/journal-" + std::to_string(i), recorder,
                 &setups[i]);
  };
  std::unique_ptr<Deployment> deployment = set_up(0);
  if (deployment == nullptr) {
    return 1;
  }

  std::vector<Metric> metrics;
  std::size_t cold_keys = 0;
  std::size_t writer_keys = 0;
  auto count_keys = [&](const LoopResult& loop) {
    (args.workload == "cold_publish" ? cold_keys : writer_keys) +=
        loop.publishes;
  };
  if (!args.trace) {
    std::vector<LoopResult> slices;
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0 && set_up(i) == nullptr) {
        return 1;
      }
      slices.push_back(RunLoop(args.workload, *deployment, inputs,
                               slices.empty() ? 0 : slices.back().next_key,
                               args.seconds / kSetups, recorder));
      count_keys(slices.back());
    }
    metrics = EndToEnd(args.workload, setups, slices, *deployment);
  } else {
    for (int i = 1; i < kSetups; ++i) {
      if (set_up(i) == nullptr) {
        return 1;
      }
    }
    // Half the run untraced (the reference for residuals and for the obs
    // overhead), half with the obs registry on, then the in-process replay.
    dphist::obs::Registry& registry = dphist::obs::Registry::Global();
    const LoopResult plain = RunLoop(args.workload, *deployment, inputs, 0,
                                     args.seconds / 2, recorder);
    count_keys(plain);
    registry.Reset();
    registry.set_enabled(true);
    PoolWaitProbe pool_wait;
    const LoopResult traced =
        RunLoop(args.workload, *deployment, inputs, plain.next_key,
                args.seconds / 2, recorder);
    const double queue_wait_ms = pool_wait.StopAndMedianMs();
    registry.set_enabled(false);
    count_keys(traced);
    const std::uint64_t hits =
        registry.GetCounter("serve/cache/hits").value();
    const std::uint64_t misses =
        registry.GetCounter("serve/cache/misses").value();
    const double coalesced = static_cast<double>(
        registry.GetCounter("net/coalesced_requests").value());
    const double request_ms =
        registry.GetDistribution("net/request_ms").Snapshot().p50;

    const HotLayers hot = ReplayHot(*deployment);
    const ColdLayers cold = ReplayCold(inputs, dir, recorder);
    const std::vector<Metric> plain_e2e =
        EndToEnd(args.workload, setups, {plain}, *deployment);
    const double plain_p50 = MetricValue(plain_e2e, "query_p50_ms");
    // The obs cost on the loop's own latency: cached queries, or, on
    // cold_publish, NoiseFirst's time to first answer.
    const bool loop_queries = traced.query_ms.count() > 0;
    const double overhead_base =
        loop_queries ? plain.query_ms.Quantile(0.5) : Median(plain.nf_ttfa_ms);
    const double overhead_traced = loop_queries
                                       ? traced.query_ms.Quantile(0.5)
                                       : Median(traced.nf_ttfa_ms);
    const double nf_ttfa = MetricValue(plain_e2e, "nf_ttfa_p50_ms");
    metrics = {
        {"net.http_parse_ns", hot.http_parse_ns, "ns"},
        {"net.wire_decode_ns", hot.wire_decode_ns, "ns"},
        {"net.wire_encode_answer_ns", hot.encode_answer_ns, "ns"},
        {"net.response_head_ns", hot.response_head_ns, "ns"},
        {"net.hot_residual_us", plain_p50 * 1e3 - hot.SumNs() / 1e3, "us"},
        {"net.wire_encode_release_ms", cold.encode_release_ms, "ms"},
        {"net.cold_residual_ms",
         nf_ttfa - (cold.noise_first_ms + cold.journal_append_ms +
                    cold.journal_fsync_ms + cold.seal_ms),
         "ms"},
        {"net.coalesced_requests",
         traced.publishes == 0 ? 0.0 : coalesced / traced.publishes, "count"},
        {"net.server_request_ms", request_ms, "ms"},
        {"serve.cache_lookup_ns", hot.cache_lookup_ns, "ns"},
        {"serve.answer_batch_ns", hot.answer_batch_ns, "ns"},
        {"serve.cache_hit_ratio",
         hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses),
         "ratio"},
        {"serve.seal_ms", cold.seal_ms, "ms"},
        {"serve.journal_append_ms", cold.journal_append_ms, "ms"},
        {"serve.journal_fsync_ms", cold.journal_fsync_ms, "ms"},
        {"serve.journal_bytes", cold.journal_bytes, "count"},
        {"serve.ledger_charges", cold.ledger_charges, "count"},
        {"query.range_answer_ns", hot.range_answer_ns, "ns"},
        {"algorithms.noise_first_ms", cold.noise_first_ms, "ms"},
        {"algorithms.structure_first_ms", cold.structure_first_ms, "ms"},
        {"hist.cost_table_ms", cold.cost_table_ms, "ms"},
        {"hist.vopt_solve_ms", cold.vopt_solve_ms, "ms"},
        {"hist.traceback_ms", cold.traceback_ms, "ms"},
        {"hist.vopt_cost_lookups", cold.vopt_cost_lookups, "count"},
        {"hist.vopt_bound_scans", cold.vopt_bound_scans, "count"},
        {"hist.vopt_cells", cold.vopt_cells, "count"},
        {"hist.scans_per_lookup",
         cold.vopt_cost_lookups == 0.0
             ? 0.0
             : cold.vopt_bound_scans / cold.vopt_cost_lookups,
         "ratio"},
        {"random.noise_ms", cold.noise_ms, "ms"},
        {"random.laplace_draws", cold.laplace_draws, "count"},
        {"common.pool_queue_wait_ms", queue_wait_ms, "ms"},
        {"obs.overhead_pct",
         overhead_base > 0.0
             ? (overhead_traced / overhead_base - 1.0) * 100.0
             : 0.0,
         "%"},
    };
  }

  deployment->FinalChecks(inputs, cold_keys, writer_keys, recorder);
  deployment.reset();
  std::filesystem::remove_all(dir, error);

  bool correct = recorder.correct();
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", ResultJson(correct, recorder.attempted(),
                                 recorder.failed(), metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot_query|cold_publish|"
                 "mixed_rw> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
