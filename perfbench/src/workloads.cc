#include "workloads.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dphist::net::NetClient;
using dphist::net::WireBatchAnswer;

constexpr char kHost[] = "127.0.0.1";

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

bool Connect(NetClient& client, std::uint16_t port, Recorder& recorder) {
  const dphist::Status connected = client.Connect(kHost, port);
  if (!connected.ok()) {
    recorder.Attempt();
    recorder.FailedOp("connect: " + connected.ToString());
  }
  return connected.ok();
}

// One reader connection: cycles through the hot pool from `first` until
// `deadline`. Every answer must be a fresh cache hit identical to the
// answer the warm-up pass received for the same request.
void ReadLoop(std::uint16_t port, const std::vector<HotRequest>& pool,
              std::size_t first, Clock::time_point deadline,
              Recorder& recorder, LatencyHistogram* latencies,
              RateWindows* done) {
  NetClient client;
  if (pool.empty() || !Connect(client, port, recorder)) {
    return;
  }
  for (std::size_t i = first % pool.size(); Clock::now() < deadline;
       i = (i + 1) % pool.size()) {
    const HotRequest& hot = pool[i];
    recorder.Attempt();
    const auto sent = Clock::now();
    auto answer = client.Query(hot.request, /*binary=*/true);
    const auto received = Clock::now();
    if (!answer.ok()) {
      recorder.FailedOp("hot query: " + answer.status().ToString());
      continue;
    }
    latencies->Add(
        std::chrono::duration<double, std::milli>(received - sent).count());
    done->Add(received);
    if (answer.value().answers != hot.answers) {
      recorder.Check("answers differ from the warm-up answers to the same "
                     "request",
                     "hot " + hot.request.tenant);
    }
    if (!answer.value().cache_hit || answer.value().stale) {
      recorder.Check("hot query was not a fresh cache hit",
                     "hot " + hot.request.tenant);
    }
  }
}

// `count` reader connections starting evenly spread over the pool; their
// latencies and completion times merge into a LoopResult.
class Readers {
 public:
  Readers(Deployment& deployment, std::size_t count, Clock::time_point start,
          Clock::time_point deadline, Recorder& recorder)
      : latencies_(count), done_(count, RateWindows(start)) {
    for (std::size_t r = 0; r < count; ++r) {
      threads_.emplace_back(ReadLoop, deployment.port(),
                            std::cref(deployment.hot),
                            r * deployment.hot.size() / count, deadline,
                            std::ref(recorder), &latencies_[r], &done_[r]);
    }
  }

  void JoinInto(LoopResult* result) {
    for (std::size_t r = 0; r < threads_.size(); ++r) {
      threads_[r].join();
      result->query_ms.Merge(latencies_[r]);
      result->queries_done.Merge(done_[r]);
    }
  }

 private:
  // One of each per thread, sized before the threads start.
  std::vector<LatencyHistogram> latencies_;
  std::vector<RateWindows> done_;
  std::vector<std::jthread> threads_;
};

// The writer connection of mixed_rw: publishes new keys of the writer
// tenant one after another until `deadline`.
void WriteLoop(Deployment& deployment, const Inputs& inputs,
               std::size_t first_key, Clock::time_point deadline,
               Recorder& recorder, LoopResult* result) {
  NetClient client;
  result->next_key = first_key;
  if (!Connect(client, deployment.port(), recorder)) {
    return;
  }
  const Tenant& tenant = inputs.writer;
  for (std::size_t j = first_key; Clock::now() < deadline; ++j) {
    result->next_key = j + 1;
    const NewKey key = inputs.KeyAt(tenant, j);
    const auto request = RequestFor(tenant, key, key.first);
    recorder.Attempt();
    const auto sent = Clock::now();
    auto answer = client.Query(request, /*binary=*/true);
    const double ttfa = MsSince(sent);
    if (!answer.ok()) {
      recorder.FailedOp("writer publish: " + answer.status().ToString());
      continue;
    }
    (key.publisher == kNoiseFirst ? result->nf_ttfa_ms : result->sf_ttfa_ms)
        .push_back(ttfa);
    FetchedRelease release;
    if (!deployment.FetchAndRecord(client, tenant, request, recorder,
                                   &release)) {
      continue;
    }
    ++result->publishes;
    result->publishes_done.push_back(Clock::now());
    recorder.Check(CheckAnswers(answer.value().answers,
                                ReleaseRangeSums(release, key.first),
                                AnswerTolerance(release.counts)),
                   "writer answers");
    result->error.Add(answer.value().answers,
                      TrueRangeSums(tenant, key.first));
  }
}

}  // namespace

LoopResult RunHotQuery(Deployment& deployment, double seconds,
                       Recorder& recorder) {
  LoopResult result;
  const auto start = Clock::now();
  result.start = start;
  result.queries_done = RateWindows(start);
  Readers readers(deployment, kHotReaders, start, After(start, seconds),
                  recorder);
  readers.JoinInto(&result);
  result.end = Clock::now();
  return result;
}

LoopResult RunColdPublish(Deployment& deployment, const Inputs& inputs,
                          std::size_t first_key, double seconds,
                          Recorder& recorder) {
  LoopResult result;
  const Tenant& tenant = inputs.cold;
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  result.start = start;
  std::atomic<bool> stop{false};
  auto on_phase = [&]() noexcept {
    if (Clock::now() >= deadline) {
      stop = true;
    }
  };
  std::barrier sync(2, on_phase);

  // Shared per-key state: written before the mid-key barrier, read after
  // it, and rewritten only after both threads pass the next key's barrier.
  struct PerKey {
    bool ok[2] = {false, false};
    WireBatchAnswer answers[2];
    bool fetched = false;
    FetchedRelease release;
  } shared;
  struct PerConnection {
    std::vector<double> nf_ms;
    std::vector<double> sf_ms;
  } own[2];
  std::size_t next_key = first_key;

  auto client_loop = [&](int c) {
    NetClient client;
    const bool connected = Connect(client, deployment.port(), recorder);
    for (std::size_t j = first_key;; ++j) {
      sync.arrive_and_wait();
      if (stop) {
        if (c == 0) {
          next_key = j;
        }
        break;
      }
      const NewKey key = inputs.KeyAt(tenant, j);
      const auto request = RequestFor(tenant, key, key.first);
      shared.ok[c] = false;
      if (connected) {
        recorder.Attempt();
        const auto sent = Clock::now();
        auto answer = client.Query(request, /*binary=*/true);
        const double ttfa = MsSince(sent);
        if (answer.ok()) {
          (key.publisher == kNoiseFirst ? own[c].nf_ms : own[c].sf_ms)
              .push_back(ttfa);
          shared.answers[c] = std::move(answer).value();
          shared.ok[c] = true;
        } else {
          recorder.FailedOp("cold publish: " + answer.status().ToString());
        }
      }
      if (j % 2 == static_cast<std::size_t>(c)) {
        shared.fetched =
            connected && deployment.FetchAndRecord(client, tenant, request,
                                                   recorder, &shared.release);
      }
      sync.arrive_and_wait();
      if (c == 0 && shared.fetched) {
        ++result.publishes;
        result.publishes_done.push_back(Clock::now());
        if (shared.ok[0] && shared.ok[1]) {
          if (shared.answers[0].answers != shared.answers[1].answers) {
            recorder.Check("the two connections received different answers "
                           "for the same new key",
                           "cold");
          }
          recorder.Check(
              CheckAnswers(shared.answers[0].answers,
                           ReleaseRangeSums(shared.release, key.first),
                           AnswerTolerance(shared.release.counts)),
              "cold answers");
          result.error.Add(shared.answers[0].answers,
                           TrueRangeSums(tenant, key.first));
        }
      }
    }
  };
  {
    std::jthread a(client_loop, 0);
    std::jthread b(client_loop, 1);
  }
  result.end = Clock::now();
  result.next_key = next_key;
  for (const PerConnection& connection : own) {
    result.nf_ttfa_ms.insert(result.nf_ttfa_ms.end(),
                             connection.nf_ms.begin(), connection.nf_ms.end());
    result.sf_ttfa_ms.insert(result.sf_ttfa_ms.end(),
                             connection.sf_ms.begin(), connection.sf_ms.end());
  }
  return result;
}

LoopResult RunMixed(Deployment& deployment, const Inputs& inputs,
                    std::size_t first_key, double seconds,
                    Recorder& recorder) {
  LoopResult result;
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  result.start = start;
  result.queries_done = RateWindows(start);
  {
    Readers readers(deployment, kMixedReaders, start, deadline, recorder);
    std::jthread writer(WriteLoop, std::ref(deployment), std::cref(inputs),
                        first_key, deadline, std::ref(recorder), &result);
    writer.join();
    readers.JoinInto(&result);
  }
  result.end = Clock::now();
  return result;
}

}  // namespace perfbench
