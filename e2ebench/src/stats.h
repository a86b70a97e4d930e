// Order statistics for the benchmark's reported figures.
#pragma once

#include <optional>
#include <vector>

namespace e2e {

// Median of the values (mean of the two middle ones for an even count).
// Throws on an empty sample.
[[nodiscard]] double median(std::vector<double> v);

// Nearest-rank percentile, p in (0, 100]: the value at rank ceil(p/100 * n)
// of the sorted sample. Throws on an empty sample or p outside (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

// The highest percentile from a fixed ladder (50, 90, 95, 98, 99, 99.5,
// 99.9) that leaves at least 10 samples strictly above its rank in a sample
// of n. Empty when even the median leaves fewer, or when n < 40 (a
// percentile over fewer samples is no tail).
[[nodiscard]] std::optional<double> tail_percentile(long n);

[[nodiscard]] double mean(const std::vector<double>& v);

}  // namespace e2e
