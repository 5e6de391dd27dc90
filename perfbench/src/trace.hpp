#pragma once
/// \file trace.hpp
/// \brief Bench-side span recorder: one span around each call the benchmark
///        makes into a module's public function.
///
/// Spans live in memory (name, layer, start, end, parent) and are written
/// once at exit as Chrome trace-event JSON (open in chrome://tracing or
/// Perfetto). A disabled tracer records nothing, so the untraced
/// repetitions that produce the end-to-end metrics pay one branch per call
/// site.

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

struct Span {
  std::string name;   ///< the public function called, e.g. "read_tns_file"
  std::string layer;  ///< the module it belongs to, e.g. "tensor.io"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 for a root
  [[nodiscard]] double seconds() const { return end - start; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Opens a span nested in the innermost open one.
  [[nodiscard]] Scope span(const char* name, const char* layer);

  /// Starts or stops recording; spans already open still close normally.
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part its direct children cover (children of
  /// one span never overlap: the benchmark calls one layer at a time).
  [[nodiscard]] double self_seconds(int id) const;

  /// Writes the spans as Chrome trace-event JSON, each tagged with the
  /// workload and its parent's name. Throws on an I/O error.
  void write_chrome_json(const std::string& path,
                         const std::string& workload) const;

 private:
  void close(int id);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
