#pragma once
// Confusion statistics over predictions (paper Table 5, bench_table5).

#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar::train {

/// counts[t][p] = number of samples with true class t predicted as p.
std::vector<std::vector<std::int64_t>> confusion_counts(
    const std::vector<std::int64_t>& pred, const std::vector<std::int64_t>& truth,
    std::int64_t num_classes);

/// The top-k *wrong* predicted classes per true class (paper Table 5 rows):
/// returns for each true class a list of (predicted class, count) sorted by
/// count descending, excluding the diagonal.
std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> top_confusions(
    const std::vector<std::vector<std::int64_t>>& counts, std::int64_t k);

}  // namespace ibrar::train
