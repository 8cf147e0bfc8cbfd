#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace dsem::trace {

namespace detail {

std::atomic<bool> g_enabled{false};

} // namespace detail

namespace {

/// Per-thread event sink. Owned by the registry, never freed: a thread
/// may record until process exit. The per-buffer mutex is uncontended in
/// steady state (only its thread appends) and exists so exporters can
/// take consistent snapshots while recording continues.
struct Buffer {
  std::mutex mutex;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct Registry {
  mutable std::mutex mutex;
  std::deque<std::unique_ptr<Buffer>> buffers;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Registry& registry() {
  static Registry* r = new Registry; // leaked: see Tracer doc comment
  return *r;
}

/// Calling thread's logical-trace state. `scope_*` is the active root
/// scope; `thread_seq` orders scope-less stable events (serial driver
/// code); `pool_depth` > 0 marks pool-executed tasks, whose scope-less
/// events are downgraded to timing-dependent (their thread placement is
/// a scheduling accident).
struct TlState {
  Buffer* buffer = nullptr;
  std::uint64_t scope_path = 0;
  std::uint64_t scope_seq = 0;
  bool scope_active = false;
  std::uint64_t thread_seq = 0;
  int pool_depth = 0;
};

thread_local TlState tl_state;

Buffer& local_buffer() {
  TlState& tl = tl_state;
  if (tl.buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<Buffer>());
    reg.buffers.back()->tid =
        static_cast<std::uint32_t>(reg.buffers.size() - 1);
    tl.buffer = reg.buffers.back().get();
  }
  return *tl.buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - registry().epoch)
      .count();
}

constexpr std::uint64_t kUnstableSeq = ~0ULL;

std::uint64_t hash_cstr(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001b3ULL;
  }
  return h;
}

/// Logical path of a root scope: a pure function of (name, index).
std::uint64_t root_path(const char* name, std::uint64_t index) noexcept {
  const std::uint64_t h = derive_seed(hash_cstr(name), index);
  return h == 0 ? 1 : h;
}

/// Stability + logical key assignment for a non-root event. Stable events
/// consume one sequence number from the enclosing scope (or the thread's
/// root stream when serial driver code records outside any scope).
struct LogicalKey {
  std::uint64_t path = 0;
  std::uint64_t seq = kUnstableSeq;
  bool stable = false;
};

LogicalKey next_key(Reliability r) noexcept {
  TlState& tl = tl_state;
  LogicalKey key;
  if (r != Reliability::kStable) {
    key.path = tl.scope_active ? tl.scope_path : 0;
    return key;
  }
  if (tl.scope_active) {
    key.path = tl.scope_path;
    key.seq = tl.scope_seq++;
    key.stable = true;
  } else if (tl.pool_depth == 0) {
    key.seq = tl.thread_seq++;
    key.stable = true;
  }
  return key;
}

void push_event(Event&& event) {
  Buffer& buf = local_buffer();
  event.tid = buf.tid;
  std::lock_guard lock(buf.mutex);
  buf.events.push_back(std::move(event));
}

} // namespace

namespace detail {

void record_instant(const char* name, const char* category, Reliability r,
                    const std::string& arg) {
  Event e;
  e.kind = EventKind::kInstant;
  e.name = name;
  e.category = category;
  e.start_ns = now_ns();
  e.arg = arg;
  const LogicalKey key = next_key(r);
  e.logical_path = key.path;
  e.logical_seq = key.seq;
  e.stable = key.stable;
  push_event(std::move(e));
}

} // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Span::begin(const char* name, const char* category,
                 std::uint64_t logical_index, bool root,
                 Reliability r) noexcept {
  name_ = name;
  category_ = category;
  root_ = root;
  active_ = true;
  TlState& tl = tl_state;
  if (root) {
    saved_path_ = tl.scope_path;
    saved_seq_ = tl.scope_seq;
    saved_active_ = tl.scope_active;
    path_ = root_path(name, logical_index);
    seq_ = 0;
    stable_ = true;
    tl.scope_path = path_;
    tl.scope_seq = 1; // 0 is the root span's own event
    tl.scope_active = true;
  } else {
    const LogicalKey key = next_key(r);
    path_ = key.path;
    seq_ = key.seq;
    stable_ = key.stable;
  }
  start_ns_ = now_ns();
}

void Span::end() noexcept {
  const std::int64_t stop = now_ns();
  TlState& tl = tl_state;
  if (root_) {
    tl.scope_path = saved_path_;
    tl.scope_seq = saved_seq_;
    tl.scope_active = saved_active_;
  }
  try {
    Event e;
    e.kind = EventKind::kSpan;
    e.name = name_;
    e.category = category_;
    e.start_ns = start_ns_;
    e.dur_ns = stop - start_ns_;
    e.value = value_;
    e.has_value = has_value_;
    e.logical_path = path_;
    e.logical_seq = seq_;
    e.stable = stable_;
    e.arg = std::move(arg_);
    push_event(std::move(e));
  } catch (...) {
    // Recording must never take down the traced program (spans unwind
    // through exception paths); a lost event is the lesser evil.
  }
}

ScopeReset::ScopeReset() noexcept {
  TlState& tl = tl_state;
  saved_path_ = tl.scope_path;
  saved_seq_ = tl.scope_seq;
  saved_active_ = tl.scope_active;
  tl.scope_active = false;
  ++tl.pool_depth;
}

ScopeReset::~ScopeReset() {
  TlState& tl = tl_state;
  tl.scope_path = saved_path_;
  tl.scope_seq = saved_seq_;
  tl.scope_active = saved_active_;
  --tl.pool_depth;
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer; // leaked: threads record until exit
  return *tracer;
}

void Tracer::clear() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (auto& buf : reg.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    buf->events.clear();
  }
  // Restart the caller's scope-less sequence so back-to-back golden runs
  // compare equal. Other threads' sequences only matter inside scopes,
  // which reset themselves.
  tl_state.thread_seq = 0;
}

std::size_t Tracer::event_count() const {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::size_t n = 0;
  for (const auto& buf : reg.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

std::vector<Event> Tracer::events() const {
  Registry& reg = registry();
  std::vector<Event> out;
  {
    std::lock_guard lock(reg.mutex);
    for (const auto& buf : reg.buffers) {
      std::lock_guard buf_lock(buf->mutex);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<LogicalEvent> Tracer::logical_events() const {
  std::vector<LogicalEvent> out;
  for (const Event& e : events()) {
    if (!e.stable) {
      continue;
    }
    LogicalEvent le;
    le.path = e.logical_path;
    le.seq = e.logical_seq;
    le.kind = e.kind;
    le.name = e.name;
    le.category = e.category;
    le.arg = e.arg;
    le.value = e.value;
    out.push_back(std::move(le));
  }
  // Canonical order: logical key first, full content as tie-break, so two
  // runs with the same stable-event multiset compare equal element-wise.
  std::sort(out.begin(), out.end(),
            [](const LogicalEvent& a, const LogicalEvent& b) {
              return std::tie(a.path, a.seq, a.name, a.category, a.arg,
                              a.value, a.kind) <
                     std::tie(b.path, b.seq, b.name, b.category, b.arg,
                              b.value, b.kind);
            });
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events()) {
    const bool span = e.kind == EventKind::kSpan;
    os << (first ? "" : ",") << "{\"name\":\"";
    first = false;
    json::escape(os, e.name);
    os << "\",\"cat\":\"";
    json::escape(os, e.category);
    os << "\",\"ph\":\"" << (span ? "X" : "i") << "\",\"pid\":1,\"tid\":"
       << e.tid << ",\"ts\":" << static_cast<double>(e.start_ns) / 1000.0;
    if (span) {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",\"args\":{";
    const char* sep = "";
    if (e.has_value) {
      os << "\"value\":" << e.value;
      sep = ",";
    }
    if (!e.arg.empty()) {
      os << sep << "\"arg\":\"";
      json::escape(os, e.arg);
      os << "\"";
      sep = ",";
    }
    if (e.stable) {
      os << sep << "\"logical_path\":\"" << e.logical_path
         << "\",\"logical_seq\":" << e.logical_seq;
    }
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::write_summary(std::ostream& os) const {
  struct SpanStats {
    std::size_t count = 0;
    double total_ns = 0.0;
    double min_ns = 0.0;
    double max_ns = 0.0;
  };
  std::map<std::string, SpanStats> spans;
  std::map<std::string, std::size_t> instants;
  std::size_t instant_count = 0;
  for (const Event& e : events()) {
    if (e.kind == EventKind::kInstant) {
      ++instants[e.name];
      ++instant_count;
      continue;
    }
    SpanStats& s = spans[e.name];
    const auto dur = static_cast<double>(e.dur_ns);
    if (s.count == 0 || dur < s.min_ns) {
      s.min_ns = dur;
    }
    if (s.count == 0 || dur > s.max_ns) {
      s.max_ns = dur;
    }
    ++s.count;
    s.total_ns += dur;
  }

  InstrumentTable table;
  for (const auto& [name, s] : spans) {
    const double n = static_cast<double>(s.count);
    table.add_distribution("span", name, s.count, fmt(s.total_ns / 1e6, 3),
                           fmt(s.total_ns / n / 1e3, 3), fmt(s.min_ns / 1e3, 3),
                           fmt(s.max_ns / 1e3, 3));
  }
  for (const auto& [name, count] : instants) {
    table.add_value("instant", name, count, "");
  }
  os << "trace summary (" << event_count() << " events, " << instant_count
     << " instants; span times ms total / us mean-min-max)\n";
  table.print(os);
}

void write_chrome_file(const std::string& path) {
  std::ofstream out(path);
  DSEM_ENSURE(out.good(), "cannot open trace output file: " + path);
  Tracer::global().write_chrome_trace(out);
  DSEM_ENSURE(out.good(), "failed writing trace output file: " + path);
}

} // namespace dsem::trace
