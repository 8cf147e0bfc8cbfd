// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the library's public
// functions; nothing inside the library is instrumented. Every span has a
// name, the layer it is charged to, a start and an end, the span that was
// open when it started (its parent), and the request / job / fold id it
// belongs to. Spans are kept in memory and written out once, at the end,
// as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// Recording happens on the benchmark's main thread only, so children
// nest strictly inside their parent and a span's self time is its
// duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dsem_bench {

/// No id: the span belongs to no single request, job or fold.
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = kNoId;
  std::int64_t start_ns = 0; ///< since the recorder was created
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0; ///< time covered by direct children
  int parent = -1;           ///< index into spans(); -1 = root

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  double self_seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns - child_ns) * 1e-9;
  }
};

class SpanRecorder {
public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open one. `name` and
  /// `layer` must outlive the recorder (string literals).
  int open(const char* name, const char* layer, std::uint64_t id = kNoId);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self seconds of every span of one layer, summed.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write_chrome_json(const std::string& path) const;

private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op, so the same workload code
/// runs traced and untraced.
class Scoped {
public:
  Scoped(SpanRecorder* recorder, const char* name, const char* layer,
         std::uint64_t id = kNoId)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, layer, id) : -1) {}
  ~Scoped() {
    if (recorder_ != nullptr) {
      recorder_->close(index_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

private:
  SpanRecorder* recorder_;
  int index_;
};

} // namespace dsem_bench
