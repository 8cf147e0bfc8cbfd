#include "spans.hpp"

#include <fstream>
#include <iomanip>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dsem_bench {

int SpanRecorder::open(const char* name, const char* layer,
                       std::uint64_t id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int index) {
  DSEM_ENSURE(!open_.empty() && open_.back() == index,
              "spans: close() out of order");
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    out[span.layer] += span.self_seconds();
  }
  return out;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  DSEM_ENSURE(os.good(), "spans: cannot write " + path);
  os << std::fixed << std::setprecision(3)
     << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"";
    dsem::json::escape(os, span.name);
    os << "\",\"cat\":\"";
    dsem::json::escape(os, span.layer);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(span.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << span.parent;
    if (span.id != kNoId) {
      os << ",\"id\":" << span.id;
    }
    os << "}}";
  }
  os << "\n]}\n";
  DSEM_ENSURE(os.good(), "spans: write failed for " + path);
}

} // namespace dsem_bench
