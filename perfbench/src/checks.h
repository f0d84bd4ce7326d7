// The benchmark's output checks. Each compares what the server returned
// with a value computed here, apart from the program, or with a property
// the publishing method must have. Every check returns an empty string
// when the output passes and a description of the fault otherwise; the
// self-test (selftest.cc) feeds each one a synthetic wrong output.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dphist/query/range_query.h"
#include "dphist/serve/journal.h"

namespace perfbench {

/// A release as the benchmark fetched it over /v1/release. Sparse releases
/// carry one key per count.
struct FetchedRelease {
  bool sparse = false;
  std::string tenant;
  std::string dataset;
  std::string publisher;
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> keys;
  std::vector<double> counts;
};

/// "tenant/dataset/publisher/seed": one served release.
std::string ReleaseId(const std::string& tenant, const std::string& dataset,
                      const std::string& publisher, std::uint64_t seed);

/// Range sums over dense counts, by a running prefix sum.
std::vector<double> DenseRangeSums(
    const std::vector<double>& counts,
    const std::vector<dphist::RangeQuery>& queries);

/// Range sums over sorted (key, count) entries.
std::vector<double> SparseRangeSums(
    const std::vector<std::uint64_t>& keys, const std::vector<double>& counts,
    const std::vector<dphist::RangeQuery>& queries);

/// Range sums of a fetched release (dense or sparse).
std::vector<double> ReleaseRangeSums(
    const FetchedRelease& release,
    const std::vector<dphist::RangeQuery>& queries);

/// Absolute tolerance for a range answer over `counts`: the answers are
/// differences of floating-point prefix sums, so they may differ from a
/// direct sum in the last bits, never by more than this.
double AnswerTolerance(const std::vector<double>& counts);

/// Each answer equals its expected range sum within `tolerance`.
std::string CheckAnswers(const std::vector<double>& got,
                         const std::vector<double>& expected,
                         double tolerance);

/// Number of maximal runs of equal adjacent values.
std::size_t CountPieces(const std::vector<double>& counts);

/// A NoiseFirst / StructureFirst release: `bins` finite counts forming
/// constant pieces. NoiseFirst's pieces are its k* buckets, at most
/// `bins / 2` on the benchmark's data. StructureFirst draws its bucket
/// count from {1, 2, 4, ..., 128} or the identity structure (one piece per
/// bin), so its piece count must be one of those.
std::string CheckPiecewiseRelease(const std::string& publisher,
                                  const std::vector<double>& counts,
                                  std::size_t bins);

/// Ledger spend equals `epsilon` per distinct release: each release is
/// charged exactly once, however many requests named it.
std::string CheckLedger(double spent, double epsilon, std::size_t releases);

/// The privacy-cost counter moved by exactly one charge per release.
std::string CheckChargesPerRelease(std::uint64_t charges,
                                   std::uint64_t releases);

/// Released total minus true total for one release, with the analytic
/// variance of that difference.
struct TotalDeviation {
  double diff = 0.0;
  double variance = 0.0;
};

/// Analytic variance of (released total - true total) for a NoiseFirst or
/// StructureFirst release with default options: NoiseFirst's total is the
/// true total plus n Laplace(1/eps) draws; StructureFirst adds one
/// Laplace(1/eps_c) draw per bucket, with eps_c = eps/2 for a sampled
/// structure and 0.9 eps for the one-bucket and identity structures (their
/// unspent boundary budget flows back to the counts).
double ReleaseTotalVariance(const std::string& publisher,
                            const std::vector<double>& counts,
                            double epsilon);

/// The mean deviation lies within 5 analytic standard deviations of 0.
std::string CheckTotalsUnbiased(const std::vector<TotalDeviation>& deviations);

/// The journal holds exactly one publish record per served release, with
/// the served counts (and keys, for sparse releases).
std::string CheckJournal(
    const std::vector<dphist::serve::JournalRecord>& records,
    const std::map<std::string, FetchedRelease>& served);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
