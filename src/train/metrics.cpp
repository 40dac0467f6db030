#include "train/metrics.hpp"

#include <algorithm>

namespace ibrar::train {

std::vector<std::vector<std::int64_t>> confusion_counts(
    const std::vector<std::int64_t>& pred, const std::vector<std::int64_t>& truth,
    std::int64_t num_classes) {
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(num_classes),
      std::vector<std::int64_t>(static_cast<std::size_t>(num_classes), 0));
  for (std::size_t i = 0; i < pred.size(); ++i) {
    counts.at(static_cast<std::size_t>(truth[i]))
        .at(static_cast<std::size_t>(pred[i]))++;
  }
  return counts;
}

std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> top_confusions(
    const std::vector<std::vector<std::int64_t>>& counts, std::int64_t k) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> out;
  out.reserve(counts.size());
  for (std::size_t t = 0; t < counts.size(); ++t) {
    std::vector<std::pair<std::int64_t, std::int64_t>> row;
    for (std::size_t p = 0; p < counts[t].size(); ++p) {
      if (p == t) continue;
      row.emplace_back(static_cast<std::int64_t>(p), counts[t][p]);
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    if (static_cast<std::int64_t>(row.size()) > k) {
      row.resize(static_cast<std::size_t>(k));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace ibrar::train
