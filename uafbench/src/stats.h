// Sample statistics for the benchmark: percentile selection that refuses
// an unsupported tail, and the median of repeated figures.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace uafbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`. Returns nullopt
/// when fewer than kMinSamplesBeyond samples rank above the selected one:
/// such a tail is one outlier, not a percentile.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Median of `samples` (mean of the middle pair for even sizes); 0 when
/// empty. For repeated whole-run figures, where no tail is reported.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace uafbench
