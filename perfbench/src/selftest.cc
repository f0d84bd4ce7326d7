// Self-test of the benchmark's output checks: each check must pass on a
// correct output and fail on a synthetic wrong one — a corrupted answer, a
// double charge, a release that is not piecewise constant, a biased total,
// and a journal that does not match what was served. Also checks that the
// reported rates keep a stall out of their median.
//
//   perfbench_selftest    (exit 0 when every case behaves)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/data/generators.h"
#include "dphist/random/rng.h"
#include "stats.h"

namespace {

using perfbench::FetchedRelease;

int g_failures = 0;

void Expect(bool should_pass, const std::string& fault,
            const std::string& name) {
  const bool passed = fault.empty();
  const bool ok = passed == should_pass;
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", name.c_str(),
              passed ? "" : " -> ", fault.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::vector<dphist::RangeQuery> Ranges(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  perfbench::SplitMix64 rng(seed);
  std::vector<dphist::RangeQuery> queries(count);
  for (auto& q : queries) {
    q.begin = rng.Below(n);
    q.end = q.begin + 1 + rng.Below(n - q.begin);
  }
  return queries;
}

dphist::serve::JournalRecord PublishRecord(const FetchedRelease& release) {
  dphist::serve::JournalRecord record;
  record.type = dphist::serve::JournalRecord::Type::kPublish;
  record.key = {release.tenant, release.dataset};
  record.publisher = release.publisher;
  record.seed = release.seed;
  record.counts = release.counts;
  return record;
}

}  // namespace

int main() {
  constexpr std::size_t n = 256;
  constexpr double eps = 1.0;
  const dphist::Histogram truth =
      dphist::MakePiecewiseConstant(n, 12, 200.0, 7).histogram;
  dphist::Rng rng(11);
  const std::vector<double> nf =
      dphist::NoiseFirst().Publish(truth, eps, rng).value().counts();
  const std::vector<double> sf =
      dphist::StructureFirst().Publish(truth, eps, rng).value().counts();

  // Answers.
  const auto queries = Ranges(n, 64, 3);
  const std::vector<double> expected = perfbench::DenseRangeSums(nf, queries);
  const double tolerance = perfbench::AnswerTolerance(nf);
  Expect(true, perfbench::CheckAnswers(expected, expected, tolerance),
         "correct answers pass");
  std::vector<double> corrupted = expected;
  corrupted[17] += 1.0;
  Expect(false, perfbench::CheckAnswers(corrupted, expected, tolerance),
         "a corrupted answer fails");
  Expect(false,
         perfbench::CheckAnswers(
             std::vector<double>(expected.begin(), expected.end() - 1),
             expected, tolerance),
         "a missing answer fails");
  const std::vector<std::uint64_t> keys = {3, 10, 11, 400, 9000};
  const std::vector<double> values = {1.5, -2.0, 4.0, 8.0, 16.0};
  const std::vector<dphist::RangeQuery> sparse_queries = {
      {0, 11}, {11, 12}, {12, 9000}, {0, 9001}};
  const std::vector<double> sparse_expected = {-0.5, 4.0, 8.0, 27.5};
  Expect(true,
         perfbench::CheckAnswers(
             perfbench::SparseRangeSums(keys, values, sparse_queries),
             sparse_expected, 1e-12),
         "sparse range sums match a hand computation");

  // Ledger.
  Expect(true, perfbench::CheckLedger(40 * eps, eps, 40), "exact spend passes");
  Expect(false, perfbench::CheckLedger(41 * eps, eps, 40),
         "a double charge of one release fails");
  Expect(false, perfbench::CheckLedger(80 * eps, eps, 40),
         "a double charge of every release fails");
  Expect(true, perfbench::CheckChargesPerRelease(16, 16),
         "one charge per release passes");
  Expect(false, perfbench::CheckChargesPerRelease(32, 16),
         "two charges per release fail");

  // Releases.
  Expect(true, perfbench::CheckPiecewiseRelease("noise_first", nf, n),
         "a NoiseFirst release passes");
  Expect(true, perfbench::CheckPiecewiseRelease("structure_first", sf, n),
         "a StructureFirst release passes");
  std::vector<double> raw(truth.counts());
  dphist::Rng noise(5);
  for (double& c : raw) {
    c += static_cast<double>(noise.NextUint64() % 1000) / 100.0 + 0.001;
  }
  Expect(false, perfbench::CheckPiecewiseRelease("noise_first", raw, n),
         "a release that is not piecewise constant fails");
  std::vector<double> pieces100(n);
  for (std::size_t i = 0; i < n; ++i) {
    pieces100[i] = static_cast<double>(std::min<std::size_t>(i, 99));
  }
  Expect(false,
         perfbench::CheckPiecewiseRelease("structure_first", pieces100, n),
         "a StructureFirst release with a bucket count it cannot draw fails");
  std::vector<double> short_release(nf.begin(), nf.end() - 1);
  Expect(false,
         perfbench::CheckPiecewiseRelease("noise_first", short_release, n),
         "a release with the wrong number of bins fails");
  std::vector<double> with_nan = nf;
  with_nan[3] = std::nan("");
  Expect(false, perfbench::CheckPiecewiseRelease("noise_first", with_nan, n),
         "a release with a non-finite bin fails");

  // Totals.
  std::vector<perfbench::TotalDeviation> unbiased;
  std::vector<perfbench::TotalDeviation> biased;
  for (std::uint64_t s = 0; s < 200; ++s) {
    dphist::Rng r(100 + s);
    const bool use_nf = s % 2 == 0;
    const dphist::Histogram published =
        use_nf ? dphist::NoiseFirst().Publish(truth, eps, r).value()
               : dphist::StructureFirst().Publish(truth, eps, r).value();
    const double total = published.Total();
    const double variance = perfbench::ReleaseTotalVariance(
        use_nf ? "noise_first" : "structure_first", published.counts(), eps);
    unbiased.push_back({total - truth.Total(), variance});
    biased.push_back({total - truth.Total() + std::sqrt(variance), variance});
  }
  Expect(true, perfbench::CheckTotalsUnbiased(unbiased),
         "totals of 200 real releases pass");
  Expect(false, perfbench::CheckTotalsUnbiased(biased),
         "totals biased by one sd per release fail");

  // Journal.
  FetchedRelease a{false, "t", "d", "noise_first", 1, {}, nf};
  FetchedRelease b{false, "t", "d", "structure_first", 2, {}, sf};
  const std::map<std::string, FetchedRelease> served = {
      {perfbench::ReleaseId("t", "d", "noise_first", 1), a},
      {perfbench::ReleaseId("t", "d", "structure_first", 2), b}};
  dphist::serve::JournalRecord charge;
  Expect(true,
         perfbench::CheckJournal({charge, PublishRecord(a), PublishRecord(b)},
                                 served),
         "a matching journal passes");
  Expect(false, perfbench::CheckJournal({PublishRecord(a)}, served),
         "a journal missing a release fails");
  Expect(false,
         perfbench::CheckJournal(
             {PublishRecord(a), PublishRecord(b), PublishRecord(b)}, served),
         "a journal with a duplicate record fails");
  dphist::serve::JournalRecord altered = PublishRecord(b);
  altered.counts[0] += 1.0;
  Expect(false, perfbench::CheckJournal({PublishRecord(a), altered}, served),
         "a journal record with other counts fails");

  // Rates: 10 answers per 10 ms for a second, but nothing in one 100 ms
  // window (a stall). The median window still reads 1000/s.
  using Clock = perfbench::RateWindows::Clock;
  const Clock::time_point t0{};
  perfbench::RateWindows windows(t0);
  for (int ms = 0; ms < 1000; ++ms) {
    if (ms % 10 == 5 && (ms < 300 || ms >= 400)) {
      for (int k = 0; k < 10; ++k) {
        windows.Add(t0 + std::chrono::milliseconds(ms));
      }
    }
  }
  const std::vector<double> rates =
      windows.Rates(0.1, t0 + std::chrono::milliseconds(1000));
  Expect(true,
         rates.size() == 10 && rates[3] == 0.0 &&
                 perfbench::Median(rates) == 1000.0
             ? ""
             : "median window is not 1000/s",
         "a stall leaves the windowed rate's median");
  // Blocks of 4 completions, one every 10 ms, then one 100 ms gap: the
  // median block still reads 100/s.
  std::vector<Clock::time_point> done;
  for (int i = 1; i <= 20; ++i) {
    done.push_back(t0 + std::chrono::milliseconds(10 * i + (i > 10 ? 90 : 0)));
  }
  const std::vector<double> blocks = perfbench::BlockRates(t0, done, 4);
  Expect(true,
         blocks.size() == 5 &&
                 std::abs(perfbench::Median(blocks) - 100.0) < 1e-9
             ? ""
             : "median block is not 100/s",
         "a stall leaves the block rate's median");

  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
