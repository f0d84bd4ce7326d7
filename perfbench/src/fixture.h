// The benchmark's fixture: inputs derived from --seed, the in-process
// system under test (ReleaseServer + write-ahead Journal + NetServer on
// loopback), and its set-up with warm-up publishes.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checks.h"
#include "dphist/hist/histogram.h"
#include "dphist/net/client.h"
#include "dphist/net/server.h"
#include "dphist/net/wire_codec.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"
#include "dphist/sparse/sparse_histogram.h"

namespace perfbench {

/// Dense domain of every dense tenant. 256 bins keep a NoiseFirst cost
/// triangle (~0.25 MiB) inside the per-core L2 cache.
inline constexpr std::size_t kBins = 256;
/// Domain of the sparse tenant.
inline constexpr std::uint64_t kSparseDomain = 1ULL << 32;
/// Epsilon of every release.
inline constexpr double kEpsilon = 1.0;
/// Lifetime budget of every namespace: ample, so no workload runs out and
/// no answer is ever stale.
inline constexpr double kBudget = 1e12;
/// Ranges per /v1/query batch.
inline constexpr std::size_t kBatch = 64;
/// Warm-up releases per (dense hot tenant, publisher): 128 dense releases
/// in all, enough for steady set-up publish figures and accuracy.
inline constexpr std::size_t kHotSeeds = 16;
/// Warm-up releases of the sparse hot tenant.
inline constexpr std::size_t kSparseSeeds = 2;
/// Query batches per hot release in the hot request pool.
inline constexpr std::size_t kBatchesPerRelease = 2;
/// Reader connections of hot_query and of mixed_rw.
inline constexpr std::size_t kHotReaders = 2;
inline constexpr std::size_t kMixedReaders = 1;
/// Passes over the hot pool in each set-up.
inline constexpr int kPoolPasses = 12;
/// Consecutive answers per block of the set-up's query rate (~7 ms).
inline constexpr std::size_t kPoolBlock = 128;
/// New keys of one publisher before the key sequence switches to the other.
inline constexpr std::size_t kRunLength = 8;

inline constexpr char kNoiseFirst[] = "noise_first";
inline constexpr char kStructureFirst[] = "structure_first";
inline constexpr char kSparsePure[] = "sparse_pure";

/// One registered namespace and its true data.
struct Tenant {
  std::string tenant;
  std::string dataset;
  bool sparse = false;
  dphist::Histogram truth;                    // dense tenants
  dphist::sparse::SparseHistogram sparse_truth;  // the sparse tenant

  dphist::serve::TenantKey key() const { return {tenant, dataset}; }
};

/// A release key that has never been published: the j-th entry of a
/// tenant's key sequence, with the query batch that first names it.
struct NewKey {
  std::string publisher;
  std::uint64_t seed = 0;
  std::vector<dphist::RangeQuery> first;
};

/// Everything the benchmark feeds the program, derived from --seed only.
struct Inputs {
  explicit Inputs(std::uint64_t seed);

  std::vector<Tenant> hot;  // 4 dense tenants, then 1 sparse tenant
  Tenant cold;              // receives cold_publish's new keys
  Tenant writer;            // receives mixed_rw's writer keys
  /// The warm-up releases, one request each (queries = first batch).
  std::vector<dphist::net::WireQueryRequest> hot_keys;
  /// The hot request pool: kBatchesPerRelease batches per warm-up release.
  std::vector<dphist::net::WireQueryRequest> hot_requests;
  /// Index into `hot` of each pool request's tenant.
  std::vector<std::size_t> hot_request_tenant;

  /// The j-th never-published key of `tenant`'s sequence: runs of
  /// kRunLength NoiseFirst keys alternate with runs of StructureFirst keys.
  NewKey KeyAt(const Tenant& tenant, std::size_t j) const;

  std::uint64_t key_base = 0;
};

/// A hot request with the answers it must receive.
struct HotRequest {
  dphist::net::WireQueryRequest request;
  /// The exact answers the warm-up pass received, checked against the
  /// range sums of the fetched release; every later answer must be
  /// identical to them.
  std::vector<double> answers;
};

/// Correctness faults and operation counts of one run, shared by the
/// client threads.
class Recorder {
 public:
  /// Records a correctness fault when `fault` is non-empty.
  void Check(const std::string& fault, const std::string& where);
  /// Records an operation that returned an error.
  void FailedOp(const std::string& what);
  void Attempt() { ++attempted_; }

  bool correct() const;
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> faults_;  // guarded by mutex_
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// Accuracy accumulator: mean absolute error of dense range answers.
struct ErrorSum {
  double abs_sum = 0.0;
  std::size_t count = 0;
  void Add(const std::vector<double>& answers,
           const std::vector<double>& truth);
  double Mean() const { return count == 0 ? 0.0 : abs_sum / count; }
};

/// One deployment of the system under test, with what the benchmark has
/// observed of it. Destruction stops the network server.
class Deployment {
 public:
  Deployment(const Inputs& inputs, std::string journal_path);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Opens the journal, registers every tenant and starts listening.
  dphist::Status Start();
  /// Stops serving and closes the journal (so it can be replayed).
  void Stop();

  std::uint16_t port() const { return net_->port(); }
  dphist::serve::ReleaseServer& releases() { return *releases_; }

  /// Fetches the release `request` names over /v1/release and checks it;
  /// on success records it as served and returns it.
  bool FetchAndRecord(dphist::net::NetClient& client, const Tenant& tenant,
                      const dphist::net::WireQueryRequest& request,
                      Recorder& recorder, FetchedRelease* out);

  /// Checks ledgers, bias of totals, and the journal against what was
  /// served. Stops the deployment.
  void FinalChecks(const Inputs& inputs, std::size_t cold_keys,
                   std::size_t writer_keys, Recorder& recorder);

  std::vector<HotRequest> hot;
  ErrorSum hot_error;  // the hot pool's answers against the truth

 private:
  const Inputs& inputs_;
  std::string journal_path_;
  std::unique_ptr<dphist::serve::Journal> journal_;
  std::unique_ptr<dphist::serve::ReleaseServer> releases_;
  std::unique_ptr<dphist::net::NetServer> net_;

  std::mutex served_mutex_;
  std::map<std::string, FetchedRelease> served_;     // guarded
  std::vector<TotalDeviation> deviations_;           // guarded
};

/// What one set-up measured.
struct SetupSample {
  double seconds = 0.0;
  std::vector<double> nf_ttfa_ms;
  std::vector<double> sf_ttfa_ms;
  /// Warm-up publishes per second over the whole warm-up.
  double publish_per_s = 0.0;
  /// Latencies of the passes over the hot pool (all cache hits).
  std::vector<double> pool_ms;
  /// Query rate in each block of kPoolBlock answers of the passes after the
  /// first (back-to-back cache hits, with no checks between them but
  /// equality).
  std::vector<double> pool_rates;
};

/// Starts a deployment, publishes every warm-up release over loopback
/// (each named first by a /v1/query, then fetched with /v1/release), and
/// sends the hot request pool kPoolPasses times, checking every answer. The
/// whole of it is timed as one set-up.
std::unique_ptr<Deployment> SetUp(const Inputs& inputs,
                                  const std::string& journal_path,
                                  Recorder& recorder, SetupSample* sample);

/// Milliseconds since `start`.
double MsSince(std::chrono::steady_clock::time_point start);

/// True range sums of `queries` over a dense tenant's truth.
std::vector<double> TrueRangeSums(
    const Tenant& tenant, const std::vector<dphist::RangeQuery>& queries);

/// The /v1/query request naming `key` in `tenant`, with `queries`.
dphist::net::WireQueryRequest RequestFor(
    const Tenant& tenant, const NewKey& key,
    const std::vector<dphist::RangeQuery>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
