#include "fixture.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "dphist/data/generators.h"
#include "stats.h"

namespace perfbench {

namespace {

using dphist::RangeQuery;
using dphist::net::WireQueryRequest;

std::vector<RangeQuery> DenseRanges(SplitMix64& rng, std::size_t count) {
  std::vector<RangeQuery> queries(count);
  for (RangeQuery& q : queries) {
    q.begin = rng.Below(kBins);
    q.end = q.begin + 1 + rng.Below(kBins - q.begin);
  }
  return queries;
}

std::vector<RangeQuery> SparseRanges(SplitMix64& rng, std::size_t count) {
  std::vector<RangeQuery> queries(count);
  for (RangeQuery& q : queries) {
    q.begin = rng.Below(kSparseDomain);
    q.end = std::min<std::uint64_t>(kSparseDomain,
                                    q.begin + 1 + rng.Below(kSparseDomain / 8));
  }
  return queries;
}

Tenant DenseTenant(std::string tenant, std::string dataset,
                   dphist::Histogram truth) {
  Tenant t;
  t.tenant = std::move(tenant);
  t.dataset = std::move(dataset);
  t.truth = std::move(truth);
  return t;
}

WireQueryRequest MakeRequest(const Tenant& tenant, const std::string& publisher,
                             std::uint64_t seed,
                             std::vector<RangeQuery> queries) {
  WireQueryRequest request;
  request.tenant = tenant.tenant;
  request.dataset = tenant.dataset;
  request.request.publisher = publisher;
  request.request.epsilon = kEpsilon;
  request.request.seed = seed;
  request.queries = std::move(queries);
  return request;
}

}  // namespace

Inputs::Inputs(std::uint64_t seed) {
  // The true data is the same for every seed, so that accuracy and
  // publisher cost compare across seeds; the seed picks the release seeds,
  // the query ranges and the key sequences.
  SplitMix64 data_rng(20120412);
  SplitMix64 rng(seed);
  auto net_trace = [&] {
    return dphist::MakeNetTrace(kBins, data_rng.Next()).histogram;
  };
  auto plateaus = [&](std::size_t segments, double max_level) {
    return dphist::MakePiecewiseConstant(kBins, segments, max_level,
                                         data_rng.Next())
        .histogram;
  };
  hot.push_back(DenseTenant("acme", "nettrace", net_trace()));
  hot.push_back(DenseTenant("globex", "nettrace", net_trace()));
  hot.push_back(DenseTenant("initech", "plateaus", plateaus(12, 200.0)));
  hot.push_back(DenseTenant("umbrella", "plateaus", plateaus(20, 400.0)));

  // Sparse tenant: ~2000 distinct keys over a 2^32 domain, heavy-tailed
  // counts.
  std::vector<dphist::sparse::SparseEntry> entries;
  for (std::size_t i = 0; i < 2000; ++i) {
    const double u =
        static_cast<double>(data_rng.Below(1u << 20) + 1) / (1u << 20);
    entries.push_back({data_rng.Below(kSparseDomain), std::floor(1.0 / u)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  Tenant sparse;
  sparse.tenant = "hooli";
  sparse.dataset = "flows";
  sparse.sparse = true;
  sparse.sparse_truth =
      dphist::sparse::SparseHistogram::Create(kSparseDomain, std::move(entries))
          .value();
  hot.push_back(std::move(sparse));

  cold = DenseTenant("cold", "plateaus", plateaus(12, 200.0));
  writer = DenseTenant("writer", "plateaus", plateaus(12, 200.0));

  // Every warm-up release gets a seed of its own: releases that shared a
  // seed would share their noise, and the bias check assumes independent
  // releases.
  std::uint64_t next_seed = rng.Below(1u << 30);
  for (std::size_t t = 0; t < hot.size(); ++t) {
    std::vector<std::pair<std::string, std::uint64_t>> keys;
    if (hot[t].sparse) {
      for (std::size_t s = 0; s < kSparseSeeds; ++s) {
        keys.emplace_back(kSparsePure, next_seed++);
      }
    } else {
      for (const char* publisher : {kNoiseFirst, kStructureFirst}) {
        for (std::size_t s = 0; s < kHotSeeds; ++s) {
          keys.emplace_back(publisher, next_seed++);
        }
      }
    }
    for (const auto& [publisher, key_seed] : keys) {
      for (std::size_t b = 0; b < kBatchesPerRelease; ++b) {
        std::vector<RangeQuery> queries = hot[t].sparse
                                              ? SparseRanges(rng, kBatch)
                                              : DenseRanges(rng, kBatch);
        if (b == 0) {
          hot_keys.push_back(MakeRequest(hot[t], publisher, key_seed, queries));
        }
        hot_requests.push_back(
            MakeRequest(hot[t], publisher, key_seed, std::move(queries)));
        hot_request_tenant.push_back(t);
      }
    }
  }
  key_base = rng.Below(1u << 30) + (1u << 30);
}

NewKey Inputs::KeyAt(const Tenant& tenant, std::size_t j) const {
  NewKey key;
  key.publisher = (j / kRunLength) % 2 == 0 ? kNoiseFirst : kStructureFirst;
  key.seed = key_base + j;
  std::uint64_t salt = 0xCBF29CE484222325ULL;  // FNV-1a of the tenant name
  for (char c : tenant.tenant) {
    salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  SplitMix64 rng(key.seed ^ salt);
  key.first = DenseRanges(rng, kBatch);
  return key;
}

WireQueryRequest RequestFor(const Tenant& tenant, const NewKey& key,
                            const std::vector<RangeQuery>& queries) {
  return MakeRequest(tenant, key.publisher, key.seed, queries);
}

std::vector<double> TrueRangeSums(const Tenant& tenant,
                                  const std::vector<RangeQuery>& queries) {
  return DenseRangeSums(tenant.truth.counts(), queries);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Recorder::Check(const std::string& fault, const std::string& where) {
  if (fault.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (faults_.size() < 20) {
    std::fprintf(stderr, "check failed (%s): %s\n", where.c_str(),
                 fault.c_str());
  }
  faults_.push_back(where + ": " + fault);
}

void Recorder::FailedOp(const std::string& what) {
  failed_ += 1;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(stderr, "operation failed: %s\n", what.c_str());
}

bool Recorder::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_.empty();
}

void ErrorSum::Add(const std::vector<double>& answers,
                   const std::vector<double>& truth) {
  for (std::size_t i = 0; i < answers.size() && i < truth.size(); ++i) {
    abs_sum += std::fabs(answers[i] - truth[i]);
    ++count;
  }
}

Deployment::Deployment(const Inputs& inputs, std::string journal_path)
    : inputs_(inputs), journal_path_(std::move(journal_path)) {}

Deployment::~Deployment() { Stop(); }

dphist::Status Deployment::Start() {
  std::error_code ignored;
  std::filesystem::remove(journal_path_, ignored);
  dphist::serve::JournalOptions journal_options;
  journal_options.fsync_policy = dphist::serve::FsyncPolicy::kEveryRecord;
  auto journal = dphist::serve::Journal::Open(journal_path_, journal_options);
  if (!journal.ok()) {
    return journal.status();
  }
  journal_ = std::move(journal).value();
  dphist::serve::ReleaseServerOptions options;
  options.journal = journal_.get();
  releases_ = std::make_unique<dphist::serve::ReleaseServer>(options);
  std::vector<const Tenant*> tenants;
  for (const Tenant& t : inputs_.hot) {
    tenants.push_back(&t);
  }
  tenants.push_back(&inputs_.cold);
  tenants.push_back(&inputs_.writer);
  for (const Tenant* t : tenants) {
    const dphist::Status added =
        t->sparse
            ? releases_->AddSparseDataset(t->key(), t->sparse_truth, kBudget)
            : releases_->AddDataset(t->key(), t->truth, kBudget);
    if (!added.ok()) {
      return added;
    }
  }
  net_ = std::make_unique<dphist::net::NetServer>(releases_.get());
  return net_->Start();
}

void Deployment::Stop() {
  if (net_ != nullptr) {
    net_->Stop();
  }
  journal_.reset();
}

bool Deployment::FetchAndRecord(dphist::net::NetClient& client,
                                const Tenant& tenant,
                                const WireQueryRequest& request,
                                Recorder& recorder, FetchedRelease* out) {
  FetchedRelease release;
  release.sparse = tenant.sparse;
  release.tenant = tenant.tenant;
  release.dataset = tenant.dataset;
  release.publisher = request.request.publisher;
  release.seed = request.request.seed;
  recorder.Attempt();
  if (tenant.sparse) {
    auto fetched = client.SparseRelease(request, /*binary=*/true);
    if (!fetched.ok()) {
      recorder.FailedOp("/v1/release: " + fetched.status().ToString());
      return false;
    }
    release.keys = std::move(fetched.value().keys);
    release.counts = std::move(fetched.value().counts);
  } else {
    auto fetched = client.Release(request, /*binary=*/true);
    if (!fetched.ok()) {
      recorder.FailedOp("/v1/release: " + fetched.status().ToString());
      return false;
    }
    release.counts = std::move(fetched.value().counts);
  }
  const std::string id = ReleaseId(release.tenant, release.dataset,
                                   release.publisher, release.seed);
  if (!tenant.sparse) {
    recorder.Check(
        CheckPiecewiseRelease(release.publisher, release.counts, kBins), id);
  }
  std::lock_guard<std::mutex> lock(served_mutex_);
  if (!tenant.sparse) {
    double released_total = 0.0;
    for (double c : release.counts) {
      released_total += c;
    }
    deviations_.push_back(
        {released_total - tenant.truth.Total(),
         ReleaseTotalVariance(release.publisher, release.counts, kEpsilon)});
  }
  if (!served_.emplace(id, release).second) {
    recorder.Check("release served twice as new", id);
  }
  *out = std::move(release);
  return true;
}

void Deployment::FinalChecks(const Inputs& inputs, std::size_t cold_keys,
                             std::size_t writer_keys, Recorder& recorder) {
  std::map<std::string, std::size_t> per_tenant;
  {
    std::lock_guard<std::mutex> lock(served_mutex_);
    for (const auto& [id, release] : served_) {
      ++per_tenant[release.tenant];
    }
    recorder.Check(CheckTotalsUnbiased(deviations_), "released totals");
  }
  const std::size_t expected_hot = 2 * kHotSeeds;
  for (const Tenant& t : inputs.hot) {
    const std::size_t want = t.sparse ? kSparseSeeds : expected_hot;
    if (per_tenant[t.tenant] != want) {
      recorder.Check("served " + std::to_string(per_tenant[t.tenant]) +
                         " releases, expected " + std::to_string(want),
                     t.tenant);
    }
  }
  if (per_tenant[inputs.cold.tenant] != cold_keys ||
      per_tenant[inputs.writer.tenant] != writer_keys) {
    recorder.Check("new releases served differ from keys completed",
                   "cold/writer");
  }
  std::vector<const Tenant*> tenants;
  for (const Tenant& t : inputs.hot) {
    tenants.push_back(&t);
  }
  tenants.push_back(&inputs.cold);
  tenants.push_back(&inputs.writer);
  for (const Tenant* t : tenants) {
    auto ledger = releases_->LedgerFor(t->key());
    if (!ledger.ok()) {
      recorder.Check(ledger.status().ToString(), t->tenant);
      continue;
    }
    recorder.Check(CheckLedger(ledger.value()->spent_epsilon(), kEpsilon,
                               per_tenant[t->tenant]),
                   "ledger " + t->tenant);
  }
  Stop();
  auto replay = dphist::serve::ReplayJournalFile(journal_path_);
  if (!replay.ok()) {
    recorder.Check(replay.status().ToString(), "journal replay");
  } else {
    std::lock_guard<std::mutex> lock(served_mutex_);
    recorder.Check(CheckJournal(replay.value().records, served_), "journal");
  }
}

std::unique_ptr<Deployment> SetUp(const Inputs& inputs,
                                  const std::string& journal_path,
                                  Recorder& recorder, SetupSample* sample) {
  const auto start = std::chrono::steady_clock::now();
  auto deployment = std::make_unique<Deployment>(inputs, journal_path);
  const dphist::Status started = deployment->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  dphist::net::NetClient client;
  const dphist::Status connected =
      client.Connect("127.0.0.1", deployment->port());
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", connected.ToString().c_str());
    return nullptr;
  }

  // Warm-up publishes: each key is named first by a /v1/query (the cold
  // path), then fetched once.
  std::map<std::string, FetchedRelease> fetched;
  std::size_t publishes = 0;
  const auto publish_start = std::chrono::steady_clock::now();
  for (const WireQueryRequest& key : inputs.hot_keys) {
    const Tenant* tenant = nullptr;
    for (const Tenant& t : inputs.hot) {
      if (t.tenant == key.tenant) {
        tenant = &t;
      }
    }
    recorder.Attempt();
    const auto sent = std::chrono::steady_clock::now();
    auto answer = client.Query(key, /*binary=*/true);
    const double ttfa = MsSince(sent);
    if (!answer.ok()) {
      recorder.FailedOp("warm-up publish: " + answer.status().ToString());
      continue;
    }
    if (key.request.publisher == kNoiseFirst) {
      sample->nf_ttfa_ms.push_back(ttfa);
    } else if (key.request.publisher == kStructureFirst) {
      sample->sf_ttfa_ms.push_back(ttfa);
    }
    FetchedRelease release;
    if (deployment->FetchAndRecord(client, *tenant, key, recorder, &release)) {
      fetched[ReleaseId(key.tenant, key.dataset, key.request.publisher,
                        key.request.seed)] = std::move(release);
    }
    ++publishes;
  }
  sample->publish_per_s =
      static_cast<double>(publishes) / (MsSince(publish_start) / 1e3);

  // First pass over the hot pool: every answer must equal the range sums of
  // the fetched release; the answers received here are the reference for
  // every later request.
  for (std::size_t i = 0; i < inputs.hot_requests.size(); ++i) {
    const WireQueryRequest& request = inputs.hot_requests[i];
    const Tenant& tenant = inputs.hot[inputs.hot_request_tenant[i]];
    HotRequest entry{request, {}};
    recorder.Attempt();
    const auto sent = std::chrono::steady_clock::now();
    auto answer = client.Query(request, /*binary=*/true);
    sample->pool_ms.push_back(MsSince(sent));
    if (!answer.ok()) {
      recorder.FailedOp("warm-up query: " + answer.status().ToString());
      continue;
    }
    const auto release = fetched.find(
        ReleaseId(request.tenant, request.dataset, request.request.publisher,
                  request.request.seed));
    if (release == fetched.end()) {
      recorder.Check("no fetched release", request.tenant);
      continue;
    }
    recorder.Check(
        CheckAnswers(answer.value().answers,
                     ReleaseRangeSums(release->second, request.queries),
                     AnswerTolerance(release->second.counts)),
        "warm-up answers " + request.tenant);
    if (!answer.value().cache_hit || answer.value().stale) {
      recorder.Check("warm-up query was not a fresh cache hit",
                     request.tenant);
    }
    if (!tenant.sparse) {
      deployment->hot_error.Add(answer.value().answers,
                                TrueRangeSums(tenant, request.queries));
    }
    entry.answers = std::move(answer.value().answers);
    deployment->hot.push_back(std::move(entry));
  }
  // Further passes answer the same requests from the cache again; their
  // answers must be identical to the first pass's.
  const auto passes_start = std::chrono::steady_clock::now();
  std::vector<std::chrono::steady_clock::time_point> pool_done;
  for (int pass = 1; pass < kPoolPasses; ++pass) {
    for (const HotRequest& entry : deployment->hot) {
      recorder.Attempt();
      const auto sent = std::chrono::steady_clock::now();
      auto answer = client.Query(entry.request, /*binary=*/true);
      const auto received = std::chrono::steady_clock::now();
      sample->pool_ms.push_back(
          std::chrono::duration<double, std::milli>(received - sent).count());
      pool_done.push_back(received);
      if (!answer.ok()) {
        recorder.FailedOp("warm-up query: " + answer.status().ToString());
      } else if (answer.value().answers != entry.answers) {
        recorder.Check("answers differ between passes over the hot pool",
                       entry.request.tenant);
      }
    }
  }
  sample->pool_rates = BlockRates(passes_start, pool_done, kPoolBlock);
  sample->seconds = MsSince(start) / 1e3;
  return deployment;
}

}  // namespace perfbench
