#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Tracer::Scope Tracer::span(const char* name, const char* layer) {
  if (!enabled_) {
    return {*this, -1};
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, layer, now_s(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return {*this, id};
}

void Tracer::close(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

double Tracer::self_seconds(int id) const {
  double self = spans_[static_cast<std::size_t>(id)].seconds();
  for (const Span& s : spans_) {
    if (s.parent == id) {
      self -= s.seconds();
    }
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& workload) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out.setf(std::ios::fixed);
  out.precision(3);  // microsecond timestamps to the nanosecond
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":\"" << parent
        << "\",\"workload\":\"" << workload << "\"}}";
  }
  out << "\n]}\n";
  if (!out.flush()) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace perfbench
