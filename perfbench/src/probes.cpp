#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr int kPasses = 4;  // the first pass warms the pages and is dropped

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// Uninitialized so that the first-touch fill below places pages on the
// threads that stream them.
std::unique_ptr<double[]> alloc_doubles(std::uint64_t n) {
  return std::unique_ptr<double[]>(new double[n]);
}

}  // namespace

std::uint64_t llc_bytes() {
  int best_level = 0;
  std::uint64_t best = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) {
      break;
    }
    if (read_line(dir + "type") == "Instruction") {
      continue;
    }
    const std::string size = read_line(dir + "size");
    std::uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10U;
    if (size.back() == 'M') bytes <<= 20U;
    if (std::stoi(level) > best_level) {
      best_level = std::stoi(level);
      best = bytes;
    }
  }
  return best;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Ceiling triad_ceiling(std::uint64_t min_array_bytes, int nthreads) {
  const std::uint64_t n = (min_array_bytes + 7) / 8;
  auto a = alloc_doubles(n);
  auto b = alloc_doubles(n);
  auto c = alloc_doubles(n);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for num_threads(nthreads) schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const double s = 0.5 + pass;
    const double t0 = now_s();
#pragma omp parallel for num_threads(nthreads) schedule(static)
    for (std::int64_t i = 0; i < len; ++i) {
      a[i] = b[i] + s * c[i];
    }
    const double secs = now_s() - t0;
    if (pass > 0) {
      best = std::max(best, 24.0 * static_cast<double>(n) / secs / 1e9);
    }
  }
  if (a[n / 2] != 1.0 + (kPasses - 0.5) * 2.0) {
    throw std::runtime_error("triad ceiling: wrong result");
  }
  return {best, n * 8};
}

Ceiling gather_ceiling(std::uint64_t min_table_bytes, int width,
                       int nthreads, std::uint64_t seed) {
  if (width < 1 || width > 64) {
    throw std::invalid_argument("gather ceiling: width must be in [1, 64]");
  }
  const auto w = static_cast<std::uint64_t>(width);
  const std::uint64_t rows = (min_table_bytes + 8 * w - 1) / (8 * w);
  auto table = alloc_doubles(rows * w);
  std::unique_ptr<std::uint32_t[]> pick(new std::uint32_t[rows]);
  const auto nrows = static_cast<std::int64_t>(rows);
#pragma omp parallel for num_threads(nthreads) schedule(static)
  for (std::int64_t r = 0; r < nrows; ++r) {
    for (std::uint64_t j = 0; j < w; ++j) {
      table[static_cast<std::uint64_t>(r) * w + j] = 1.0;
    }
    // splitmix64 of (seed, r): a uniform row, independent per thread.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (r + 1);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    pick[r] = static_cast<std::uint32_t>((z ^ (z >> 31U)) % rows);
  }
  double best = 0.0;
  double sum = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    sum = 0.0;
    const double t0 = now_s();
#pragma omp parallel num_threads(nthreads) reduction(+ : sum)
    {
      double acc[64] = {};
#pragma omp for schedule(static)
      for (std::int64_t g = 0; g < nrows; ++g) {
        const double* row = &table[pick[g] * w];
        for (std::uint64_t j = 0; j < w; ++j) {
          acc[j] += row[j];
        }
      }
      for (std::uint64_t j = 0; j < w; ++j) {
        sum += acc[j];
      }
    }
    const double secs = now_s() - t0;
    if (pass > 0) {
      best = std::max(
          best, static_cast<double>(rows * w * 8) / secs / 1e9);
    }
  }
  if (sum != static_cast<double>(rows * w)) {
    throw std::runtime_error("gather ceiling: wrong result");
  }
  return {best, rows * w * 8};
}

}  // namespace perfbench
