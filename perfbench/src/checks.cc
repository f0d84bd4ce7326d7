#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

std::string ReleaseId(const std::string& tenant, const std::string& dataset,
                      const std::string& publisher, std::uint64_t seed) {
  return tenant + "/" + dataset + "/" + publisher + "/" +
         std::to_string(seed);
}

std::vector<double> DenseRangeSums(
    const std::vector<double>& counts,
    const std::vector<dphist::RangeQuery>& queries) {
  std::vector<double> prefix(counts.size() + 1, 0.0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    prefix[i + 1] = prefix[i] + counts[i];
  }
  std::vector<double> sums;
  sums.reserve(queries.size());
  for (const dphist::RangeQuery& q : queries) {
    sums.push_back(q.end <= counts.size() && q.begin <= q.end
                       ? prefix[q.end] - prefix[q.begin]
                       : std::nan(""));
  }
  return sums;
}

std::vector<double> SparseRangeSums(
    const std::vector<std::uint64_t>& keys, const std::vector<double>& counts,
    const std::vector<dphist::RangeQuery>& queries) {
  std::vector<double> prefix(counts.size() + 1, 0.0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    prefix[i + 1] = prefix[i] + counts[i];
  }
  std::vector<double> sums;
  sums.reserve(queries.size());
  for (const dphist::RangeQuery& q : queries) {
    const auto lo = std::lower_bound(keys.begin(), keys.end(), q.begin);
    const auto hi = std::lower_bound(keys.begin(), keys.end(), q.end);
    sums.push_back(prefix[static_cast<std::size_t>(hi - keys.begin())] -
                   prefix[static_cast<std::size_t>(lo - keys.begin())]);
  }
  return sums;
}

std::vector<double> ReleaseRangeSums(
    const FetchedRelease& release,
    const std::vector<dphist::RangeQuery>& queries) {
  return release.sparse
             ? SparseRangeSums(release.keys, release.counts, queries)
             : DenseRangeSums(release.counts, queries);
}

double AnswerTolerance(const std::vector<double>& counts) {
  double magnitude = 1.0;
  for (double c : counts) {
    magnitude += std::fabs(c);
  }
  return 1e-9 * magnitude;
}

std::string CheckAnswers(const std::vector<double>& got,
                         const std::vector<double>& expected,
                         double tolerance) {
  if (got.size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) + " answers, got " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - expected[i]) <= tolerance)) {
      return "answer " + std::to_string(i) + " is " + std::to_string(got[i]) +
             ", expected range sum " + std::to_string(expected[i]);
    }
  }
  return "";
}

std::size_t CountPieces(const std::vector<double>& counts) {
  std::size_t pieces = counts.empty() ? 0 : 1;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    pieces += counts[i] != counts[i - 1] ? 1 : 0;
  }
  return pieces;
}

std::string CheckPiecewiseRelease(const std::string& publisher,
                                  const std::vector<double>& counts,
                                  std::size_t bins) {
  if (counts.size() != bins) {
    return "release has " + std::to_string(counts.size()) + " bins, expected " +
           std::to_string(bins);
  }
  for (double c : counts) {
    if (!std::isfinite(c)) {
      return "release holds a non-finite count";
    }
  }
  const std::size_t pieces = CountPieces(counts);
  const bool allowed =
      publisher == "structure_first"
          ? pieces == bins ||
                (pieces <= 128 && (pieces & (pieces - 1)) == 0)
          : pieces <= bins / 2;
  if (!allowed) {
    return publisher + " release is not piecewise constant as the method "
           "publishes: " + std::to_string(pieces) + " pieces over " +
           std::to_string(bins) + " bins";
  }
  return "";
}

std::string CheckLedger(double spent, double epsilon, std::size_t releases) {
  const double expected = epsilon * static_cast<double>(releases);
  if (!(std::fabs(spent - expected) <= 1e-9 * std::max(1.0, expected))) {
    return "ledger spent " + std::to_string(spent) + ", expected " +
           std::to_string(expected) + " for " + std::to_string(releases) +
           " releases";
  }
  return "";
}

std::string CheckChargesPerRelease(std::uint64_t charges,
                                   std::uint64_t releases) {
  if (charges != releases) {
    return std::to_string(charges) + " ledger charges for " +
           std::to_string(releases) + " distinct releases";
  }
  return "";
}

double ReleaseTotalVariance(const std::string& publisher,
                            const std::vector<double>& counts,
                            double epsilon) {
  const double n = static_cast<double>(counts.size());
  if (publisher == "noise_first") {
    return n * 2.0 / (epsilon * epsilon);
  }
  const std::size_t pieces = CountPieces(counts);
  const double eps_counts =
      pieces == 1 || pieces == counts.size() ? 0.9 * epsilon : 0.5 * epsilon;
  return static_cast<double>(pieces) * 2.0 / (eps_counts * eps_counts);
}

std::string CheckTotalsUnbiased(const std::vector<TotalDeviation>& deviations) {
  if (deviations.empty()) {
    return "";
  }
  double sum = 0.0;
  double variance = 0.0;
  for (const TotalDeviation& d : deviations) {
    sum += d.diff;
    variance += d.variance;
  }
  const double count = static_cast<double>(deviations.size());
  const double mean = sum / count;
  const double sd = std::sqrt(variance) / count;
  if (!(std::fabs(mean) <= 5.0 * sd)) {
    return "mean (released - true) total is " + std::to_string(mean) +
           " over " + std::to_string(deviations.size()) +
           " releases, beyond 5 analytic sd (" + std::to_string(sd) + ")";
  }
  return "";
}

std::string CheckJournal(
    const std::vector<dphist::serve::JournalRecord>& records,
    const std::map<std::string, FetchedRelease>& served) {
  using Type = dphist::serve::JournalRecord::Type;
  std::set<std::string> seen;
  for (const dphist::serve::JournalRecord& record : records) {
    if (record.type == Type::kCharge) {
      continue;
    }
    const std::string id = ReleaseId(record.key.tenant, record.key.dataset,
                                     record.publisher, record.seed);
    if (!seen.insert(id).second) {
      return "journal holds two publish records for " + id;
    }
    const auto it = served.find(id);
    if (it == served.end()) {
      return "journal holds a publish record for " + id +
             ", which was never served";
    }
    const bool sparse = record.type == Type::kPublishSparse;
    if (record.counts != it->second.counts ||
        (sparse && record.keys != it->second.keys) ||
        sparse != it->second.sparse) {
      return "journal record for " + id + " differs from the served release";
    }
  }
  if (seen.size() != served.size()) {
    return "journal replays " + std::to_string(seen.size()) +
           " publish records for " + std::to_string(served.size()) +
           " served releases";
  }
  return "";
}

}  // namespace perfbench
