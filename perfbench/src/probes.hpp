#pragma once
/// \file probes.hpp
/// \brief Measurements of the machine and the process, taken from outside
///        the library: cache size, CPU time, peak memory, and the two
///        memory-bandwidth ceilings the MTTKRP rate is compared against.

#include <cstdint>

namespace perfbench {

/// Size in bytes of the last-level cache cpu0 sees, read from sysfs; 0 when
/// sysfs does not report one.
std::uint64_t llc_bytes();

/// User + system CPU seconds of the whole process (every thread).
double cpu_seconds();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// A bandwidth ceiling: the best rate over a few passes, and the size of
/// each array the kernel streams.
struct Ceiling {
  double gb_per_s = 0.0;
  std::uint64_t array_bytes = 0;
};

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of at least
/// \p min_array_bytes each, counting 24 bytes per element.
Ceiling triad_ceiling(std::uint64_t min_array_bytes, int nthreads);

/// Random row gather: sums rows of \p width doubles picked uniformly at
/// random from a table of at least \p min_table_bytes, counting each row's
/// bytes once per gather. The access pattern of an MTTKRP factor-row read.
Ceiling gather_ceiling(std::uint64_t min_table_bytes, int width,
                       int nthreads, std::uint64_t seed);

}  // namespace perfbench
