/// \file main.cpp
/// \brief perfbench — the sptd benchmark: a tensor file in, a model out.
///
///   perfbench generate --workload W --seed N --dir D [--smoke]
///   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
///                 [--smoke] [--trace-out FILE]
///
/// `generate` writes workload W's input tensor (a Table I preset from
/// generate_synthetic, deterministic in the seed) into directory D; it is
/// a separate process so that neither its time nor its memory is measured.
/// `run` repeats the user path on that file for S seconds — load, norm,
/// sort + CSF build, solve, model write — through the library's public
/// API only, and checks every repetition's output. With --trace 0 it
/// prints the end-to-end metrics; with --trace 1 it interleaves untraced
/// and traced repetitions, adds the single-layer measurements, and prints
/// the per-layer metrics. A traced run also measures, once, the solver
/// its workload does not time end to end (Tucker-HOOI on nell-2, ALS
/// completion on yelp), so that every layer is measured on one of the two
/// workloads. The last line of standard output is the JSON result; `#`
/// lines before it report the input's properties and the sample counts.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "probes.hpp"
#include "sptd.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using sptd::CsfSet;
using sptd::KruskalModel;
using sptd::SparseTensor;
using sptd::idx_t;
using sptd::nnz_t;
using sptd::val_t;

/// The solver a traced run measures once, besides CP-ALS.
enum class Extra { kTucker, kCompletion };

struct Workload {
  const char* name;
  const char* preset;
  double scale;
  double smoke_scale;  ///< tiny scale for --smoke; same lock/privatize split
  const char* mode0;   ///< sync strategy MTTKRP mode 0 must take
  Extra extra;
};

/// The input no longer has the property its workload exists for: the run
/// fails instead of counting a failed repetition.
struct WorkloadDrift : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr std::array<Workload, 2> kWorkloads = {{
    {"cpd-yelp", "yelp", 0.25, 0.01, "lock", Extra::kCompletion},
    {"cpd-nell2", "nell-2", 0.05, 0.008, "privatize", Extra::kTucker},
}};

constexpr int kMaxThreads = 4;
constexpr idx_t kCpRank = 35;
constexpr int kCpIterations = 20;
constexpr idx_t kTuckerCore = 8;
constexpr int kTuckerIterations = 20;
constexpr idx_t kCompleteRank = 10;
constexpr int kCompleteIterations = 10;
constexpr double kHoldout = 0.2;
constexpr int kMinReps = 3;        ///< per timed kind, even past --seconds
constexpr int kKernelSweeps = 5;   ///< timed MTTKRP / TTMc sweeps
constexpr int kGatherWidth = 40;   ///< rank 35 rows padded to 40 doubles
constexpr double kFitTolerance = 1e-8;
constexpr double kThreadFitTolerance = 1e-9;
constexpr double kOrthoTolerance = 1e-8;
// glibc's mmap threshold: its initial value, and the ceiling its dynamic
// threshold climbs to once large blocks have been freed.
constexpr int kMmapThresholdInitial = 128 * 1024;
constexpr int kMmapThresholdMax = 32 * 1024 * 1024;

struct Args {
  std::string command;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: perfbench generate|run --workload W --seed N --dir D "
      "[--seconds S] [--trace 0|1] [--smoke] [--trace-out FILE]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing command");
  a.command = argv[1];
  if (a.command != "generate" && a.command != "run") {
    usage("unknown command '" + a.command + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || a.dir.empty()) {
    usage("--workload and --dir are required");
  }
  return a;
}

int thread_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = kMaxThreads;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = CPU_COUNT(&set);
  }
  return std::clamp(cpus, 1, kMaxThreads);
}

std::string input_path(const Args& a) { return a.dir + "/input.tns"; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Relative CP fit computed straight from the COO nonzeros and the model:
/// <X,Z> summed over the nonzeros, ||Z||^2 = lambda^T (hadamard of the
/// factor Grams) lambda. Independent of the solver's MTTKRP-based fit.
double direct_cp_fit(const SparseTensor& x, const KruskalModel& m,
                     int nthreads) {
  const int order = x.order();
  const idx_t rank = m.rank();
  double inner = 0.0;
  double xx = 0.0;
  const auto nnz = static_cast<std::int64_t>(x.nnz());
#pragma omp parallel for num_threads(nthreads) reduction(+ : inner, xx)
  for (std::int64_t i = 0; i < nnz; ++i) {
    const auto e = static_cast<nnz_t>(i);
    double z = 0.0;
    for (idx_t r = 0; r < rank; ++r) {
      double p = m.lambda[r];
      for (int n = 0; n < order; ++n) {
        p *= m.factors[static_cast<std::size_t>(n)](x.ind(n)[e], r);
      }
      z += p;
    }
    const double v = x.vals()[e];
    inner += v * z;
    xx += v * v;
  }
  const std::size_t rr = static_cast<std::size_t>(rank) * rank;
  std::vector<double> had(rr, 1.0);
  for (const sptd::la::Matrix& a : m.factors) {
    std::vector<double> gram(rr, 0.0);
    for (idx_t i = 0; i < a.rows(); ++i) {
      const double* row = a.row_ptr(i);
      for (idx_t r = 0; r < rank; ++r) {
        for (idx_t s = 0; s < rank; ++s) {
          gram[static_cast<std::size_t>(r) * rank + s] += row[r] * row[s];
        }
      }
    }
    for (std::size_t k = 0; k < rr; ++k) had[k] *= gram[k];
  }
  double zz = 0.0;
  for (idx_t r = 0; r < rank; ++r) {
    for (idx_t s = 0; s < rank; ++s) {
      zz += m.lambda[r] * m.lambda[s] *
            had[static_cast<std::size_t>(r) * rank + s];
    }
  }
  return 1.0 - std::sqrt(std::max(0.0, xx + zz - 2.0 * inner)) / std::sqrt(xx);
}

double sum_sq(const SparseTensor& x) {
  double s = 0.0;
  for (const val_t v : x.vals()) s += v * v;
  return s;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The model read back from \p path holds exactly the bits of \p m.
std::string check_model_file(const KruskalModel& m, const std::string& path) {
  const KruskalModel back = sptd::read_model_file(path);
  bool same = bitwise_equal(back.lambda, m.lambda) &&
              back.factors.size() == m.factors.size();
  for (std::size_t n = 0; same && n < m.factors.size(); ++n) {
    const sptd::la::Matrix& a = m.factors[n];
    const sptd::la::Matrix& b = back.factors[n];
    same = a.rows() == b.rows() && a.cols() == b.cols();
    for (idx_t i = 0; same && i < a.rows(); ++i) {
      same = bitwise_equal(a.row(i), b.row(i));
    }
  }
  return same ? "" : "model read back from " + path + " differs";
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Named samples, one vector per metric.
using Samples = std::map<std::string, std::vector<double>>;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr std::array<Metric, 5> kEndToEnd = {{
    {"total_s", "s"},
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"peak_rss_mb", "MB"},
    {"fit", "ratio"},
}};

constexpr std::array<Metric, 40> kPerLayer = {{
    {"tensor.io.load_s", "s"},
    {"tensor.io.load_mb_per_s", "MB/s"},
    {"tensor.norm_s", "s"},
    {"sort.sort_s", "s"},
    {"csf.build_s", "s"},
    {"csf.bytes", "bytes"},
    {"csf.value_bytes", "bytes"},
    {"mttkrp.execute_s", "s"},
    {"mttkrp.plan_s", "s"},
    {"mttkrp.mode0_s", "s"},
    {"mttkrp.mode1_s", "s"},
    {"mttkrp.mode2_s", "s"},
    {"mttkrp.speedup", "x"},
    {"mttkrp.cpu_util", "ratio"},
    {"mttkrp.model_bytes", "bytes"},
    {"mttkrp.gb_per_s", "GB/s"},
    {"mttkrp.gather_frac", "ratio"},
    {"la.inverse_s", "s"},
    {"la.ata_s", "s"},
    {"la.normalize_s", "s"},
    {"cpd.fit_s", "s"},
    {"cpd.other_s", "s"},
    {"cpd.speedup", "x"},
    {"model_io.write_s", "s"},
    {"model_io.bytes", "bytes"},
    {"tucker.iter_s", "s"},
    {"tucker.ttmc_s", "s"},
    {"tucker.cpu_util", "ratio"},
    {"completion.split_s", "s"},
    {"completion.iter_s", "s"},
    {"completion.rmse_s", "s"},
    {"completion.cpu_util", "ratio"},
    {"ceiling.triad_gb_per_s", "GB/s"},
    {"ceiling.gather_gb_per_s", "GB/s"},
    {"resilience.retries", "count"},
    {"resilience.gram_bumps", "count"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.spans", "count"},
}};

class Bench {
 public:
  explicit Bench(const Args& args)
      : a_(args), w_(*args.workload), nthreads_(thread_count()) {
    cp_.rank = kCpRank;
    cp_.max_iterations = kCpIterations;
    cp_.tolerance = 0.0;
    cp_.nthreads = nthreads_;
    cp_.csf_policy = sptd::CsfPolicy::kTwoMode;
    cp_.schedule = sptd::SchedulePolicy::kWeighted;
    sptd::apply_impl_variant(sptd::find_impl_variant("c"), cp_);

    tk_.core_dims.assign(3, kTuckerCore);
    tk_.max_iterations = kTuckerIterations;
    tk_.tolerance = 0.0;
    tk_.nthreads = nthreads_;

    co_.rank = kCompleteRank;
    co_.algorithm = sptd::CompletionAlgorithm::kAls;
    co_.max_iterations = kCompleteIterations;
    co_.tolerance = 0.0;
    co_.nthreads = nthreads_;
  }

  int run() {
    const double deadline = now_s() + a_.seconds;
    int untraced = 0;
    int traced = 0;
    // The first repetition warms the page cache, the thread team and the
    // allocator: it is checked like the others but not recorded. glibc's own
    // mmap threshold rises whenever a large block is freed, so whether a
    // block is mapped afresh or carved from the retained heap, and the
    // resident high-water mark with it, would depend on the allocation
    // history (by up to a sixth between runs). The warm-up runs with the
    // threshold fixed at its initial value, every large block mapped when
    // allocated and unmapped when freed, so peak_rss_mb reads the user
    // path's live memory; the timed repetitions run with it fixed at the
    // ceiling the dynamic threshold reaches after one repetition anyway.
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdInitial);
    warming_ = true;
    const double w0 = now_s();
    repetition(false);
    std::vector<double> rep_seconds = {now_s() - w0};
    warming_ = false;
    peak_rss_mb_ = peak_rss_mb();
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdMax);
    mallopt(M_TRIM_THRESHOLD, 2 * kMmapThresholdMax);
    // A repetition starts only if it should end by the deadline, once the
    // minimum count is met: a run measures for --seconds, not past them.
    while (untraced < kMinReps || (a_.trace && traced < kMinReps) ||
           now_s() + median(rep_seconds) <= deadline) {
      const bool trace_this = a_.trace && traced < untraced;
      const double t0 = now_s();
      repetition(trace_this);
      rep_seconds.push_back(now_s() - t0);
      (trace_this ? traced : untraced) += 1;
    }
    if (a_.trace) {
      single_layer_measurements();
    }
    report();
    return 0;
  }

 private:
  // --- timing helpers -----------------------------------------------------

  /// Runs \p f inside a span; returns its wall seconds.
  double timed(const char* name, const char* layer,
               const std::function<void()>& f) {
    const double t0 = now_s();
    {
      const Tracer::Scope s = tracer_.span(name, layer);
      f();
    }
    return now_s() - t0;
  }

  SparseTensor load(double* seconds) {
    SparseTensor x;
    *seconds = timed("read_tns_file", "tensor.io",
                     [&] { x = sptd::read_tns_file(input_path(a_)); });
    return x;
  }

  std::string model_path() const { return a_.dir + "/model.txt"; }

  // --- input properties ---------------------------------------------------

  /// Records the input's properties once, after the first repetition's
  /// timed window, and fails the run if the lock/privatize split the two
  /// workloads exist for is gone (\p set is the repetition's CSF set).
  void describe(const SparseTensor& x, const CsfSet& set) {
    if (!props_.empty()) {
      return;
    }
    file_bytes_ = std::filesystem::file_size(input_path(a_));
    props_["workload"] = w_.name;
    props_["scale"] = fmt(a_.smoke ? w_.smoke_scale : w_.scale);
    props_["nnz"] = std::to_string(x.nnz());
    std::string dims;
    for (const idx_t d : x.dims()) {
      dims += (dims.empty() ? "" : "x") + std::to_string(d);
    }
    props_["dims"] = dims;
    props_["file_bytes"] = std::to_string(file_bytes_);
    props_["threads"] = std::to_string(nthreads_);
    props_["backend"] = sptd::parallel_backend_name(
        sptd::default_parallel_backend());
    props_["llc_bytes"] = std::to_string(llc_bytes());
    const sptd::MttkrpPlan plan(set, cp_.rank, mttkrp_options(nthreads_));
    std::string strategies;
    for (int m = 0; m < plan.order(); ++m) {
      strategies += std::string(m == 0 ? "" : ",") +
                    sptd::sync_strategy_name(plan.mode_plan(m).strategy);
    }
    props_["mode_strategies"] = strategies;
    std::uint64_t factor_bytes = 0;
    for (const idx_t d : x.dims()) {
      factor_bytes += static_cast<std::uint64_t>(d) *
                      sptd::la::Matrix(1, cp_.rank).ld() * sizeof(val_t);
    }
    props_["csf_bytes"] = std::to_string(set.memory_bytes());
    props_["working_set_bytes"] =
        std::to_string(set.memory_bytes() + factor_bytes);
    const std::string mode0 =
        sptd::sync_strategy_name(plan.mode_plan(0).strategy);
    if (mode0 != w_.mode0) {
      throw WorkloadDrift(std::string(w_.name) + ": mode 0 takes the " +
                          mode0 + " path, expected " + w_.mode0);
    }
  }

  sptd::MttkrpOptions mttkrp_options(int nthreads) const {
    sptd::MttkrpOptions mo;
    mo.nthreads = nthreads;
    mo.row_access = cp_.row_access;
    mo.lock_kind = cp_.lock_kind;
    mo.schedule = cp_.schedule;
    mo.chunk_target = cp_.chunk_target;
    mo.privatization_threshold = cp_.privatization_threshold;
    mo.use_fixed_kernels = cp_.use_fixed_kernels;
    mo.csf_layout = cp_.csf_layout;
    mo.precision = cp_.precision;
    mo.backend = cp_.backend;
    return mo;
  }

  // --- the user path --------------------------------------------------------

  /// One repetition of the workload's user path plus its output check.
  void repetition(bool traced) {
    // Start from a trimmed heap, as a fresh process would: memory the
    // allocator kept from earlier repetitions would otherwise shift both
    // page-fault time and the resident high-water mark.
    malloc_trim(0);
    tracer_.enable(traced);
    ++attempted_;
    std::string error;
    try {
      error = rep_cpd(traced);
    } catch (const WorkloadDrift&) {
      throw;
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    tracer_.enable(false);
    if (!error.empty()) {
      ++failed_;
      std::printf("# repetition %d failed: %s\n", attempted_, error.c_str());
    }
  }

  /// Records the end-to-end numbers of an untraced repetition, or the
  /// span-derived ones of a traced repetition.
  void record_total(bool traced, double total, double setup, double solve,
                    double fit) {
    if (traced) {
      layer_["total_traced"].push_back(total);
      layer_["solve_traced"].push_back(solve);
      const double root_s =
          tracer_.spans()[static_cast<std::size_t>(last_root_)].seconds();
      const double unattributed = tracer_.self_seconds(last_root_);
      layer_["trace.coverage"].push_back(1.0 - unattributed / root_s);
      layer_["trace.unattributed_s"].push_back(unattributed);
      return;
    }
    std::printf("# repetition %d%s: total_s=%.4f setup_s=%.4f solve_s=%.4f\n",
                attempted_, warming_ ? " (warm-up)" : "", total, setup, solve);
    if (warming_) {
      return;
    }
    e2e_["total_s"].push_back(total);
    e2e_["setup_s"].push_back(setup);
    e2e_["solve_s"].push_back(solve);
    e2e_["fit"].push_back(fit);
  }

  /// Recovery work the solver reports: rollback retries and Tikhonov
  /// bumps of ill-conditioned normal equations.
  void record_resilience(const sptd::ResilienceCounters& c) {
    layer_["resilience.retries"].push_back(c.retries + c.rollbacks);
    layer_["resilience.gram_bumps"].push_back(
        static_cast<double>(c.gram_bumps));
  }

  /// Opens the repetition's root span; every layer call nests under it.
  Tracer::Scope open_root() {
    last_root_ = static_cast<int>(tracer_.spans().size());
    return tracer_.span("repetition", "bench");
  }

  std::string rep_cpd(bool traced) {
    double t_load = 0, t_norm = 0, t_csf = 0, t_solve = 0, t_write = 0;
    double sort_s = 0.0;
    sptd::CpalsResult r;
    SparseTensor x;
    std::optional<CsfSet> set;
    const double t0 = now_s();
    {
      const Tracer::Scope root = open_root();
      x = load(&t_load);
      val_t norm_sq = 0;
      t_norm = timed("SparseTensor::norm_sq", "tensor",
                     [&] { norm_sq = x.norm_sq(); });
      t_csf = timed("CsfSet", "csf", [&] {
        set.emplace(x, cp_.csf_policy, nthreads_, &sort_s, cp_.sort_variant,
                    cp_.csf_layout);
      });
      t_solve = timed("cp_als_csf", "cpd",
                      [&] { r = sptd::cp_als_csf(*set, norm_sq, cp_); });
      t_write = timed("write_model_file", "model_io",
                      [&] { sptd::write_model_file(r.model, model_path()); });
    }
    const double total = now_s() - t0;
    describe(x, *set);
    if (traced) {
      csf_bytes_ = set->memory_bytes();
      csf_value_bytes_ = set->value_bytes(cp_.precision);
    }
    set.reset();

    std::string error = check_model_file(r.model, model_path());
    const double fit = r.fit_history.back();
    const double direct = direct_cp_fit(x, r.model, nthreads_);
    if (error.empty() && !(std::abs(direct - fit) <= kFitTolerance)) {
      error = "fit " + fmt(fit) + " != direct fit " + fmt(direct);
    }
    record_total(traced, total, t_load + t_norm + t_csf, t_solve, fit);
    if (traced) {
      const sptd::RoutineTimers& tm = r.timers;
      using sptd::Routine;
      layer_["tensor.io.load_s"].push_back(t_load);
      layer_["tensor.io.load_mb_per_s"].push_back(file_bytes_ / 1e6 / t_load);
      layer_["tensor.norm_s"].push_back(t_norm);
      layer_["sort.sort_s"].push_back(sort_s);
      layer_["csf.build_s"].push_back(t_csf - sort_s);
      layer_["mttkrp.execute_s"].push_back(tm.seconds(Routine::kMttkrp));
      layer_["la.inverse_s"].push_back(tm.seconds(Routine::kInverse));
      layer_["la.ata_s"].push_back(tm.seconds(Routine::kMatAtA));
      layer_["la.normalize_s"].push_back(tm.seconds(Routine::kMatNorm));
      layer_["cpd.fit_s"].push_back(tm.seconds(Routine::kFit));
      layer_["cpd.other_s"].push_back(t_solve - tm.total_seconds());
      layer_["model_io.write_s"].push_back(t_write);
      record_resilience(r.resilience);
      last_fit_ = fit;
      last_model_ = r.model;
    }
    return error;
  }

  // --- single-layer measurements (traced runs only) ------------------------

  void single_layer_measurements() {
    tracer_.enable(true);
    ++attempted_;
    try {
      double t_load = 0;
      SparseTensor x = load(&t_load);
      cpd_layers(x);
      switch (w_.extra) {
        case Extra::kTucker: tucker_layers(x); break;
        case Extra::kCompletion: completion_layers(x); break;
      }
      ceilings();
    } catch (const std::exception& e) {
      ++failed_;
      std::printf("# layer measurements failed: %s\n", e.what());
    }
    tracer_.enable(false);
  }

  /// Timed MTTKRP sweeps over every mode at \p nthreads: returns the
  /// median seconds of each mode's launch.
  std::vector<double> mttkrp_sweeps(const CsfSet& set, int nthreads,
                                    double* plan_s, double* cpu_util) {
    std::optional<sptd::MttkrpPlan> plan;
    *plan_s = timed("MttkrpPlan", "mttkrp", [&] {
      plan.emplace(set, cp_.rank, mttkrp_options(nthreads));
    });
    const std::vector<sptd::la::Matrix>& factors = last_model_.factors;
    std::vector<sptd::la::Matrix> outs;
    for (const sptd::la::Matrix& f : factors) {
      outs.emplace_back(f.rows(), f.cols());
    }
    const int order = plan->order();
    for (int m = 0; m < order; ++m) {  // warm the plan's buffers
      plan->execute(factors, m, outs[static_cast<std::size_t>(m)]);
    }
    std::vector<std::vector<double>> per_mode(static_cast<std::size_t>(order));
    const double cpu0 = cpu_seconds();
    const double t0 = now_s();
    for (int k = 0; k < kKernelSweeps; ++k) {
      for (int m = 0; m < order; ++m) {
        per_mode[static_cast<std::size_t>(m)].push_back(
            timed("MttkrpPlan::execute", "mttkrp", [&] {
              plan->execute(factors, m, outs[static_cast<std::size_t>(m)]);
            }));
      }
    }
    *cpu_util = (cpu_seconds() - cpu0) / ((now_s() - t0) * nthreads);
    std::vector<double> med;
    for (const auto& v : per_mode) med.push_back(median(v));
    return med;
  }

  /// Modelled bytes of one sweep (every mode once): per launch, the serving
  /// representation's index streams and values, plus one padded factor row
  /// per fiber at each level other than the output level. Computed from
  /// the CSF width table, not measured.
  std::uint64_t mttkrp_model_bytes(const CsfSet& set) const {
    const sptd::CsfSetStats stats = sptd::compute_csf_stats(set);
    std::uint64_t bytes = 0;
    for (int m = 0; m < set.order(); ++m) {
      int level = 0;
      const sptd::CsfTensor& csf = set.csf_for_mode(m, level);
      for (const sptd::CsfRepStats& rep : stats.reps) {
        if (rep.root_mode != csf.mode_at_level(0)) continue;
        bytes += rep.index_bytes + csf.value_bytes(cp_.precision);
        for (const sptd::CsfLevelStats& l : rep.levels) {
          if (l.level == level) continue;
          const auto row = static_cast<std::uint64_t>(
              last_model_.factors[static_cast<std::size_t>(l.mode)].ld());
          bytes += l.nfibers * row * sizeof(val_t);
        }
        break;
      }
    }
    return bytes;
  }

  void cpd_layers(SparseTensor& x) {
    const val_t norm_sq = x.norm_sq();
    const CsfSet set(x, cp_.csf_policy, nthreads_, nullptr, cp_.sort_variant,
                     cp_.csf_layout);

    // Plain single-threaded run of the same problem: the scaling baseline.
    sptd::CpalsOptions one = cp_;
    one.nthreads = 1;
    sptd::CpalsResult r1;
    const double t1 = timed("cp_als_csf", "cpd",
                            [&] { r1 = sptd::cp_als_csf(set, norm_sq, one); });
    const double fit1 = r1.fit_history.back();
    if (!(std::abs(fit1 - last_fit_) <= kThreadFitTolerance)) {
      throw std::runtime_error("1-thread fit " + fmt(fit1) +
                               " != 4-thread fit " + fmt(last_fit_));
    }
    layer_["cpd.speedup"].push_back(t1 / median(layer_["solve_traced"]));

    double plan_s = 0, util = 0, plan1_s = 0, util1 = 0;
    const std::vector<double> modes =
        mttkrp_sweeps(set, nthreads_, &plan_s, &util);
    const std::vector<double> modes1 = mttkrp_sweeps(set, 1, &plan1_s, &util1);
    double sweep = 0.0;
    double sweep1 = 0.0;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      layer_["mttkrp.mode" + std::to_string(m) + "_s"].push_back(modes[m]);
      sweep += modes[m];
      sweep1 += modes1[m];
    }
    const auto bytes = static_cast<double>(mttkrp_model_bytes(set));
    layer_["mttkrp.plan_s"].push_back(plan_s);
    layer_["mttkrp.cpu_util"].push_back(util);
    layer_["mttkrp.speedup"].push_back(sweep1 / sweep);
    layer_["mttkrp.model_bytes"].push_back(bytes);
    layer_["mttkrp.gb_per_s"].push_back(bytes / sweep / 1e9);
  }

  /// One Tucker-HOOI solve on the workload's tensor, checked like a
  /// repetition, then timed TTMc sweeps over an all-mode CSF set.
  void tucker_layers(SparseTensor& x) {
    sptd::TuckerResult r;
    const double cpu0 = cpu_seconds();
    const double t_solve = timed("tucker_hooi", "tucker",
                                 [&] { r = sptd::tucker_hooi(x, tk_); });
    const double cpu = cpu_seconds() - cpu0;
    for (const sptd::la::Matrix& u : r.model.factors) {
      for (idx_t p = 0; p < u.cols(); ++p) {
        for (idx_t q = 0; q < u.cols(); ++q) {
          double g = 0.0;
          for (idx_t i = 0; i < u.rows(); ++i) g += u(i, p) * u(i, q);
          if (!(std::abs(g - (p == q ? 1.0 : 0.0)) <= kOrthoTolerance)) {
            throw std::runtime_error(
                "Tucker factor columns not orthonormal: <u" +
                std::to_string(p) + ",u" + std::to_string(q) +
                "> = " + fmt(g));
          }
        }
      }
    }
    const double core = r.model.core_norm_sq();
    const double xx = sum_sq(x);
    if (!(core <= xx)) {
      throw std::runtime_error("Tucker core norm^2 " + fmt(core) +
                               " exceeds tensor norm^2 " + fmt(xx));
    }
    props_["tucker_fit"] = fmt(r.fit_history.back());
    layer_["tucker.iter_s"].push_back(t_solve / r.iterations);
    layer_["tucker.cpu_util"].push_back(cpu / (t_solve * nthreads_));

    std::optional<CsfSet> set;
    timed("CsfSet", "csf", [&] {
      set.emplace(x, sptd::CsfPolicy::kAllMode, nthreads_, nullptr,
                  sptd::SortVariant::kAllOpts, tk_.csf_layout);
    });
    std::vector<sptd::la::Matrix> outs;
    for (const sptd::CsfTensor& csf : set->csfs()) {
      const int root = csf.mode_at_level(0);
      idx_t k = 1;
      for (int n = 0; n < csf.order(); ++n) {
        if (n != root) k *= tk_.core_dims[static_cast<std::size_t>(n)];
      }
      outs.emplace_back(csf.dims()[static_cast<std::size_t>(root)], k);
    }
    std::vector<double> sweeps;
    for (int s = 0; s <= kKernelSweeps; ++s) {  // sweep 0 warms
      double sweep = 0.0;
      for (std::size_t c = 0; c < outs.size(); ++c) {
        sweep += timed("ttmc_csf", "tucker", [&] {
          sptd::ttmc_csf(set->csfs()[c], r.model.factors, outs[c],
                         nthreads_);
        });
      }
      if (s > 0) sweeps.push_back(sweep);
    }
    layer_["tucker.ttmc_s"].push_back(median(sweeps));
  }

  /// One ALS completion on the workload's tensor with a 0.2 holdout,
  /// checked like a repetition: the written model reads back bitwise and
  /// rmse(holdout) equals the solver's best validation RMSE.
  void completion_layers(const SparseTensor& x) {
    SparseTensor train;
    SparseTensor holdout;
    const double t_split = timed("split_train_test", "completion", [&] {
      std::tie(train, holdout) = sptd::split_train_test(x, kHoldout, a_.seed);
    });
    sptd::CompletionResult r;
    const double cpu0 = cpu_seconds();
    const double t_solve = timed("complete_tensor", "completion", [&] {
      r = sptd::complete_tensor(train, &holdout, co_);
    });
    const double cpu = cpu_seconds() - cpu0;
    const std::string path = a_.dir + "/completion-model.txt";
    timed("write_model_file", "model_io",
          [&] { sptd::write_model_file(r.model, path); });
    const std::string error = check_model_file(r.model, path);
    if (!error.empty()) throw std::runtime_error(error);
    double again = 0.0;
    const double t_rmse = timed("rmse", "completion", [&] {
      again = sptd::rmse(holdout, r.model, nthreads_);
    });
    const double val =
        r.val_rmse[static_cast<std::size_t>(r.best_iteration) - 1];
    if (again != val) {
      throw std::runtime_error("rmse(holdout) " + fmt(again) +
                               " != val_rmse " + fmt(val));
    }
    props_["val_rmse"] = fmt(val);
    layer_["completion.split_s"].push_back(t_split);
    layer_["completion.iter_s"].push_back(t_solve / r.iterations);
    layer_["completion.rmse_s"].push_back(t_rmse);
    layer_["completion.cpu_util"].push_back(cpu / (t_solve * nthreads_));
  }

  /// Bandwidth ceilings over arrays of 4x the last-level cache each, so
  /// that they stream from memory (--smoke: 16 MiB, a cache-resident
  /// stand-in that only exercises the code).
  void ceilings() {
    std::uint64_t llc = llc_bytes();
    if (llc == 0) llc = std::uint64_t{64} << 20U;  // no sysfs: assume 64 MiB
    const std::uint64_t bytes = a_.smoke ? std::uint64_t{16} << 20U : 4 * llc;
    Ceiling triad;
    Ceiling gather;
    timed("triad_ceiling", "ceiling",
          [&] { triad = triad_ceiling(bytes, nthreads_); });
    timed("gather_ceiling", "ceiling", [&] {
      gather = gather_ceiling(bytes, kGatherWidth, nthreads_, a_.seed);
    });
    props_["triad_array_bytes"] = std::to_string(triad.array_bytes);
    props_["gather_table_bytes"] = std::to_string(gather.array_bytes);
    layer_["ceiling.triad_gb_per_s"].push_back(triad.gb_per_s);
    layer_["ceiling.gather_gb_per_s"].push_back(gather.gb_per_s);
    if (layer_.count("mttkrp.gb_per_s") != 0) {
      layer_["mttkrp.gather_frac"].push_back(
          median(layer_["mttkrp.gb_per_s"]) / gather.gb_per_s);
    }
  }

  // --- output --------------------------------------------------------------

  void report() {
    std::map<std::string, double> values;
    std::map<std::string, std::size_t> counts;
    const Samples& src = a_.trace ? layer_ : e2e_;
    for (const auto& [name, v] : src) {
      values[name] = median(v);
      counts[name] = v.size();
    }
    if (a_.trace) {
      values["trace.overhead_s"] =
          median(layer_["total_traced"]) - median(e2e_["total_s"]);
      values["trace.spans"] = static_cast<double>(tracer_.spans().size());
      values["csf.bytes"] = static_cast<double>(csf_bytes_);
      values["csf.value_bytes"] = static_cast<double>(csf_value_bytes_);
      values["model_io.bytes"] =
          static_cast<double>(std::filesystem::file_size(model_path()));
      print_self_times();
      if (!a_.trace_out.empty()) {
        tracer_.write_chrome_json(a_.trace_out, w_.name);
        props_["trace_file"] = a_.trace_out;
      }
    } else {
      values["peak_rss_mb"] = peak_rss_mb_;
    }

    std::printf("# properties");
    for (const auto& [k, v] : props_) std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n# samples per metric (median reported):");
    for (const auto& [k, n] : counts) std::printf(" %s=%zu", k.c_str(), n);
    std::printf("\n");

    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const Metric& m) {
      const auto it = values.find(m.name);
      // A layer the workload never calls spent no time and moved no bytes.
      const double v = it == values.end() ? 0.0 : it->second;
      out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
          << fmt(v) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    };
    if (a_.trace) {
      for (const Metric& m : kPerLayer) emit(m);
    } else {
      for (const Metric& m : kEndToEnd) emit(m);
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
  }

  /// Each layer's self time summed over the traced repetitions, per
  /// repetition.
  void print_self_times() {
    std::map<std::string, double> self;
    int reps = 0;
    const auto& spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].layer == "bench") ++reps;
      // Only spans inside a repetition: the layer measurements after the
      // repetitions are not part of total_s.
      int top = static_cast<int>(i);
      while (spans[static_cast<std::size_t>(top)].parent >= 0) {
        top = spans[static_cast<std::size_t>(top)].parent;
      }
      if (spans[static_cast<std::size_t>(top)].layer != "bench") continue;
      self[spans[i].layer] += tracer_.self_seconds(static_cast<int>(i));
    }
    std::printf("# layer self time per traced repetition (s):");
    for (const auto& [layer, s] : self) {
      std::printf(" %s=%.6f", layer.c_str(), s / std::max(reps, 1));
    }
    std::printf("\n");
  }

  const Args& a_;
  const Workload& w_;
  const int nthreads_;
  Tracer tracer_;
  sptd::CpalsOptions cp_;
  sptd::TuckerOptions tk_;
  sptd::CompletionOptions co_;

  Samples e2e_;
  Samples layer_;
  std::map<std::string, std::string> props_;
  int attempted_ = 0;
  int failed_ = 0;
  int last_root_ = -1;
  bool warming_ = false;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t csf_bytes_ = 0;
  std::uint64_t csf_value_bytes_ = 0;
  double peak_rss_mb_ = 0.0;
  double last_fit_ = 0.0;
  KruskalModel last_model_;
};

void generate(const Args& a) {
  const Workload& w = *a.workload;
  const sptd::DatasetPreset& preset = sptd::find_preset(w.preset);
  const SparseTensor x = sptd::generate_synthetic(
      preset.scaled(a.smoke ? w.smoke_scale : w.scale, a.seed));
  std::filesystem::create_directories(a.dir);
  sptd::write_tns_file(x, input_path(a));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "generate") {
      perfbench::generate(args);
      return 0;
    }
    perfbench::Bench bench(args);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
