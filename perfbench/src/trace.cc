#include "trace.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>

#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/common/status.h"
#include "dphist/common/thread_pool.h"
#include "dphist/hist/interval_cost.h"
#include "dphist/hist/vopt_dp.h"
#include "dphist/net/http.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/obs.h"
#include "dphist/query/range_query.h"
#include "dphist/random/noise_batch.h"
#include "dphist/random/rng.h"
#include "dphist/serve/release_cache.h"
#include "stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Calls per timed block on the hot path: its calls take well under a
/// microsecond, so a block amortizes the clock reads.
constexpr std::size_t kHotReps = 16;
constexpr std::size_t kHotRounds = 3;
constexpr std::size_t kColdRounds = 3;

/// Keeps results observable so the timed calls are not optimized away.
volatile std::size_t g_sink = 0;

template <typename F>
double NsPerCall(std::size_t reps, F&& call) {
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    call();
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         static_cast<double>(reps);
}

template <typename F>
double MsOnce(F&& call) {
  return NsPerCall(1, std::forward<F>(call)) / 1e6;
}

std::uint64_t CounterValue(const char* name) {
  return dphist::obs::Registry::Global().GetCounter(name).value();
}

double PerUnit(std::uint64_t count, std::size_t units) {
  return units == 0 ? 0.0
                    : static_cast<double>(count) / static_cast<double>(units);
}

}  // namespace

HotLayers ReplayHot(Deployment& deployment) {
  using dphist::net::HttpMessage;
  using dphist::net::HttpParser;
  std::vector<double> parse, decode, lookup, answer, range, encode, head;
  dphist::serve::ReleaseServer& releases = deployment.releases();
  for (std::size_t round = 0; round < kHotRounds; ++round) {
    for (const HotRequest& hot : deployment.hot) {
      HttpMessage post;
      post.method = "POST";
      post.target = "/v1/query";
      post.headers["content-type"] = dphist::net::kContentTypeBinary;
      post.body = dphist::net::EncodeQueryRequest(hot.request);
      const std::string bytes = dphist::net::SerializeRequest(post);
      HttpParser parser(HttpParser::Kind::kRequest);
      parse.push_back(NsPerCall(kHotReps, [&] {
        std::size_t consumed = 0;
        g_sink =
            g_sink + static_cast<std::size_t>(parser.Feed(bytes, &consumed));
        parser.Reset();
      }));
      decode.push_back(NsPerCall(kHotReps, [&] {
        g_sink = g_sink + dphist::net::DecodeFrame(post.body).ok();
      }));

      const dphist::serve::TenantKey key{hot.request.tenant,
                                         hot.request.dataset};
      const dphist::serve::ServeRequest& request = hot.request.request;
      lookup.push_back(NsPerCall(kHotReps, [&] {
        g_sink = g_sink + (releases.TryGetCached(key, request) != nullptr);
      }));
      dphist::serve::BatchAnswer batch;
      answer.push_back(NsPerCall(kHotReps, [&] {
        g_sink = g_sink + releases.TryAnswerCached(key, hot.request.queries,
                                                   request, &batch)
                              .ok();
      }));
      const auto release = releases.TryGetCached(key, request);
      if (release != nullptr && !release->is_sparse()) {
        range.push_back(NsPerCall(kHotReps, [&] {
          g_sink = g_sink + dphist::AnswerQueries(release->histogram(),
                                                  hot.request.queries)
                                .ok();
        }));
      }

      dphist::net::WireBatchAnswer wire;
      wire.answers = hot.answers;
      wire.cache_hit = true;
      if (release != nullptr) {
        wire.served = release->key();
      }
      std::string encoded;
      encode.push_back(NsPerCall(kHotReps, [&] {
        encoded = dphist::net::EncodeBatchAnswer(wire);
      }));
      HttpMessage response;
      response.status = 200;
      response.headers["content-type"] = dphist::net::kContentTypeBinary;
      response.headers["x-dphist-status"] =
          std::string(dphist::StatusCodeName(dphist::StatusCode::kOk));
      head.push_back(NsPerCall(kHotReps, [&] {
        g_sink = g_sink +
                 dphist::net::SerializeResponseHead(response, encoded.size())
                     .size();
      }));
    }
  }
  HotLayers layers;
  layers.http_parse_ns = Median(parse);
  layers.wire_decode_ns = Median(decode);
  layers.cache_lookup_ns = Median(lookup);
  layers.answer_batch_ns = Median(answer);
  layers.range_answer_ns = Median(range);
  layers.encode_answer_ns = Median(encode);
  layers.response_head_ns = Median(head);
  return layers;
}

namespace {

// Times each cold-path call over the replay keys; runs on a pool worker.
void TimeCold(const Inputs& inputs, const std::string& journal_path,
              Recorder& recorder, ColdLayers* out) {
  const Tenant& tenant = inputs.cold;
  const std::vector<double>& truth = tenant.truth.counts();
  std::error_code ignored;
  std::filesystem::remove(journal_path, ignored);
  dphist::serve::JournalOptions options;
  options.fsync_policy = dphist::serve::FsyncPolicy::kNever;
  auto journal = dphist::serve::Journal::Open(journal_path, options);
  if (!journal.ok()) {
    recorder.Check(journal.status().ToString(), "replay journal");
    return;
  }
  std::vector<double> nf, sf, noise, cost, solve, traceback, seal, encode,
      append, fsync;
  for (std::size_t round = 0; round < kColdRounds; ++round) {
    for (std::size_t j = 0; j < kReplayKeys; ++j) {
      const NewKey key = inputs.KeyAt(tenant, j);
      dphist::Rng rng(key.seed);
      dphist::Result<dphist::Histogram> published =
          dphist::Status::Internal("unset");
      if (key.publisher == kNoiseFirst) {
        const dphist::NoiseFirst publisher;
        dphist::NoiseFirst::Details details;
        nf.push_back(MsOnce([&] {
          published = publisher.PublishWithDetails(tenant.truth, kEpsilon,
                                                   rng, &details);
        }));
        if (!published.ok()) {
          recorder.Check(published.status().ToString(), "replay noise_first");
          continue;
        }
        // The stages of the same publication, one call each.
        dphist::Rng noise_rng(key.seed);
        std::vector<double> noisy(truth.size());
        noise.push_back(MsOnce([&] {
          dphist::noise_batch::AddContinuousNoise(
              dphist::ResolveNoiseModel(dphist::NoiseModel::kAuto),
              1.0 / kEpsilon, truth.data(), noisy.data(), truth.size(),
              noise_rng);
        }));
        dphist::IntervalCostTable::Options cost_options;
        cost_options.kind = dphist::CostKind::kSquared;
        cost_options.grid_step = dphist::NoiseFirst::AutoGridStep(truth.size());
        dphist::Result<dphist::IntervalCostTable> table =
            dphist::Status::Internal("unset");
        cost.push_back(MsOnce([&] {
          table = dphist::IntervalCostTable::Create(details.noisy_counts,
                                                    cost_options);
        }));
        if (!table.ok()) {
          recorder.Check(table.status().ToString(), "replay cost table");
          continue;
        }
        const std::size_t max_k =
            std::min<std::size_t>(table.value().num_candidates(), 256);
        dphist::Result<dphist::VOptSolver> solver =
            dphist::Status::Internal("unset");
        solve.push_back(MsOnce([&] {
          solver = dphist::VOptSolver::Solve(table.value(), max_k);
        }));
        if (!solver.ok()) {
          recorder.Check(solver.status().ToString(), "replay solve");
          continue;
        }
        traceback.push_back(MsOnce([&] {
          g_sink = g_sink +
                   solver.value().Traceback(details.chosen_buckets).ok();
        }));
      } else {
        const dphist::StructureFirst publisher;
        sf.push_back(MsOnce([&] {
          published = publisher.Publish(tenant.truth, kEpsilon, rng);
        }));
        if (!published.ok()) {
          recorder.Check(published.status().ToString(),
                         "replay structure_first");
          continue;
        }
      }
      const std::vector<double>& counts = published.value().counts();
      dphist::serve::ReleaseKey release_key{
          tenant.tenant, tenant.dataset, 0, key.publisher, kEpsilon, key.seed};
      dphist::Histogram histogram(counts);
      seal.push_back(MsOnce([&] {
        const dphist::serve::SealedRelease sealed(release_key,
                                                  std::move(histogram));
        g_sink = g_sink + sealed.size();
      }));
      dphist::net::WireHistogram wire{release_key, counts};
      encode.push_back(MsOnce([&] {
        g_sink = g_sink + dphist::net::EncodeHistogram(wire).size();
      }));
      dphist::serve::JournalRecord record;
      record.type = dphist::serve::JournalRecord::Type::kPublish;
      record.key = tenant.key();
      record.publisher = key.publisher;
      record.epsilon = kEpsilon;
      record.seed = key.seed;
      record.counts = counts;
      dphist::Status appended;
      append.push_back(
          MsOnce([&] { appended = journal.value()->Append(record); }));
      dphist::Status synced;
      fsync.push_back(MsOnce([&] { synced = journal.value()->Sync(); }));
      recorder.Check(appended.ok() && synced.ok() ? "" : "journal write failed",
                     "replay journal");
    }
  }
  out->noise_first_ms = Median(nf);
  out->structure_first_ms = Median(sf);
  out->noise_ms = Median(noise);
  out->cost_table_ms = Median(cost);
  out->vopt_solve_ms = Median(solve);
  out->traceback_ms = Median(traceback);
  out->seal_ms = Median(seal);
  out->encode_release_ms = Median(encode);
  out->journal_append_ms = Median(append);
  out->journal_fsync_ms = Median(fsync);
}

// Publishes the replay keys through a fresh server with obs on and reads
// the work counts; runs on a pool worker.
void CountCold(const Inputs& inputs, const std::string& journal_path,
               Recorder& recorder, ColdLayers* out) {
  const Tenant& tenant = inputs.cold;
  std::error_code ignored;
  std::filesystem::remove(journal_path, ignored);
  auto journal = dphist::serve::Journal::Open(journal_path);
  if (!journal.ok()) {
    recorder.Check(journal.status().ToString(), "replay journal");
    return;
  }
  dphist::serve::ReleaseServerOptions options;
  options.journal = journal.value().get();
  dphist::serve::ReleaseServer server(options);
  const dphist::Status added =
      server.AddDataset(tenant.key(), tenant.truth, kBudget);
  if (!added.ok()) {
    recorder.Check(added.ToString(), "replay registration");
    return;
  }
  dphist::obs::Registry& registry = dphist::obs::Registry::Global();
  registry.Reset();
  registry.set_enabled(true);
  for (std::size_t j = 0; j < kReplayKeys; ++j) {
    const NewKey key = inputs.KeyAt(tenant, j);
    dphist::serve::ServeRequest request;
    request.publisher = key.publisher;
    request.epsilon = kEpsilon;
    request.seed = key.seed;
    for (int ask = 0; ask < 2; ++ask) {  // the second ask is a cache hit
      auto release = server.GetRelease(tenant.key(), request);
      if (!release.ok()) {
        recorder.Check(release.status().ToString(), "replay publish");
      }
    }
  }
  registry.set_enabled(false);
  const std::uint64_t charges = CounterValue("serve/ledger/charges");
  recorder.Check(CheckChargesPerRelease(charges, kReplayKeys),
                 "replay ledger");
  auto per_publish = [](const char* counter) {
    return PerUnit(CounterValue(counter), kReplayKeys);
  };
  out->journal_bytes = per_publish("serve/journal/bytes");
  out->ledger_charges = PerUnit(charges, kReplayKeys);
  out->vopt_cost_lookups = per_publish("vopt/cost_lookups");
  out->vopt_bound_scans = per_publish("vopt/bound_scans");
  out->vopt_cells = per_publish("vopt/cells");
  out->laplace_draws = per_publish("rng/laplace_draws");
}

}  // namespace

PoolWaitProbe::PoolWaitProbe()
    : thread_([this](std::stop_token stop) {
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          // Shared: the worker may still be inside set_value when get()
          // returns here.
          auto started = std::make_shared<std::promise<double>>();
          std::future<double> wait = started->get_future();
          const auto submitted = Clock::now();
          dphist::ThreadPool::Global().Submit([started, submitted] {
            started->set_value(std::chrono::duration<double, std::milli>(
                                   Clock::now() - submitted)
                                   .count());
          });
          waits_ms_.push_back(wait.get());
        }
      }) {}

double PoolWaitProbe::StopAndMedianMs() {
  thread_.request_stop();
  if (thread_.joinable()) {
    thread_.join();
  }
  return Median(waits_ms_);
}

ColdLayers ReplayCold(const Inputs& inputs, const std::string& work_dir,
                      Recorder& recorder) {
  ColdLayers layers;
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  dphist::ThreadPool::Global().Submit([&, done] {
    TimeCold(inputs, work_dir + "/replay-timing.journal", recorder,
             &layers);
    CountCold(inputs, work_dir + "/replay-count.journal", recorder,
              &layers);
    done->set_value();
  });
  finished.wait();
  return layers;
}

}  // namespace perfbench
