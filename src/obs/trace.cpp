#include "obs/trace.hpp"

#include <chrono>
#include <memory>
#include <ostream>
#include <vector>

#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace spgcmp::obs {

namespace {

struct Event {
  const char* name;     // static-storage string from the instrumentation site
  std::string args;     // pre-rendered `"k":v` pairs, comma-joined; may be empty
  std::uint64_t ts_us;  // microseconds since trace_start
  std::uint64_t dur_us; // "X" events only
  char ph;              // 'X', 'B', 'E', 'i'
};

/// Cap per thread: a runaway instrumentation loop degrades to dropped
/// events (counted) instead of unbounded memory growth.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct ThreadBuffer {
  util::Mutex mutex;  // uncontended in steady state: owner appends, stop drains
  std::vector<Event> events SPGCMP_GUARDED_BY(mutex);
  std::uint32_t tid = 0;  // written once before publication, then immutable
  const char* label = "thread";  // track name prefix; "lane" for lanes
};

struct BufferRegistry {
  util::Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers SPGCMP_GUARDED_BY(mutex);
  std::uint32_t next_tid SPGCMP_GUARDED_BY(mutex) = 1;
};

/// The tracks of Lane spans: buffers no thread owns, each held by at most
/// one live Lane span, created on first need and reused lowest-first.
struct LaneRegistry {
  util::Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> lanes SPGCMP_GUARDED_BY(mutex);
  std::vector<bool> busy SPGCMP_GUARDED_BY(mutex);
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_t0_ns{0};
std::atomic<std::uint64_t> g_dropped{0};

BufferRegistry& registry() {
  // Leaked: worker threads may emit events during static destruction.
  static BufferRegistry* reg = new BufferRegistry();
  return *reg;
}

LaneRegistry& lane_registry() {
  static LaneRegistry* reg = new LaneRegistry();  // leaked, as registry()
  return *reg;
}

thread_local std::shared_ptr<ThreadBuffer> t_buffer;

std::uint64_t now_us() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() -
      g_t0_ns.load(std::memory_order_relaxed);
  return ns > 0 ? static_cast<std::uint64_t>(ns) / 1000u : 0u;
}

ThreadBuffer& local_buffer() {
  if (!t_buffer) {
    auto buf = std::make_shared<ThreadBuffer>();
    BufferRegistry& reg = registry();
    const util::MutexLock lock(reg.mutex);
    buf->tid = reg.next_tid++;
    reg.buffers.push_back(buf);
    t_buffer = std::move(buf);
  }
  return *t_buffer;
}

void append(ThreadBuffer& buf, Event e) {
  const util::MutexLock lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(std::move(e));
}

void emit(char ph, const char* name, std::uint64_t ts, std::uint64_t dur,
          std::string args) {
  append(local_buffer(), Event{name, std::move(args), ts, dur, ph});
}

/// Hold the lowest free lane, registering a new track when all are held.
std::size_t take_lane() {
  LaneRegistry& lanes = lane_registry();
  const util::MutexLock lock(lanes.mutex);
  for (std::size_t i = 0; i < lanes.busy.size(); ++i) {
    if (!lanes.busy[i]) {
      lanes.busy[i] = true;
      return i;
    }
  }
  auto buf = std::make_shared<ThreadBuffer>();
  buf->label = "lane";
  {
    BufferRegistry& reg = registry();
    const util::MutexLock reg_lock(reg.mutex);
    buf->tid = reg.next_tid++;
    reg.buffers.push_back(buf);
  }
  lanes.lanes.push_back(std::move(buf));
  lanes.busy.push_back(true);
  return lanes.lanes.size() - 1;
}

/// Free a span's lane and append its "X" event there.  The span's end was
/// read before the lane is freed, and a span reads its start only once it
/// holds its lane, so the next span on the lane starts after this one ends.
void close_lane(std::size_t lane, Event e) {
  LaneRegistry& lanes = lane_registry();
  std::shared_ptr<ThreadBuffer> buf;
  {
    const util::MutexLock lock(lanes.mutex);
    buf = lanes.lanes[lane];
    lanes.busy[lane] = false;
  }
  append(*buf, std::move(e));
}

void render_event(std::ostream& os, const Event& e, std::uint32_t tid) {
  os << "{\"name\":\"" << util::json_escape(e.name)
     << "\",\"cat\":\"spgcmp\",\"ph\":\"" << e.ph << "\",\"pid\":1,\"tid\":" << tid
     << ",\"ts\":" << e.ts_us;
  if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
  if (e.ph == 'i') os << ",\"s\":\"t\"";
  if (!e.args.empty()) os << ",\"args\":{" << e.args << '}';
  os << '}';
}

}  // namespace

bool trace_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t trace_dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

void trace_start() {
  BufferRegistry& reg = registry();
  const util::MutexLock lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    const util::MutexLock buf_lock(buf->mutex);
    buf->events.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
  g_t0_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count(),
                std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

std::size_t trace_stop(std::ostream& os) {
  g_enabled.store(false, std::memory_order_release);
  BufferRegistry& reg = registry();
  const util::MutexLock lock(reg.mutex);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::size_t written = 0;
  for (const auto& buf : reg.buffers) {
    std::vector<Event> events;
    {
      const util::MutexLock buf_lock(buf->mutex);
      events.swap(buf->events);
    }
    if (events.empty()) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << buf->tid
       << ",\"args\":{\"name\":\"" << buf->label << '-' << buf->tid << "\"}}";
    for (const Event& e : events) {
      os << ',';
      render_event(os, e, buf->tid);
      ++written;
    }
  }
  os << "]}\n";
  return written;
}

void trace_instant(const char* name) noexcept {
  if (!trace_enabled()) return;
  try {
    emit('i', name, now_us(), 0, std::string());
  } catch (...) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

Span::Span(const char* name, SpanMode mode) noexcept {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  name_ = name;
  state_ = mode == SpanMode::Complete ? 1 : mode == SpanMode::BeginEnd ? 2 : 3;
  try {
    // The lane first, then the clock: the span then starts no earlier
    // than the lane's previous span ended.
    if (state_ == 3) lane_ = take_lane();
    start_us_ = now_us();
    if (state_ == 2) emit('B', name_, start_us_, 0, std::string());
  } catch (...) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    state_ = 0;
  }
}

Span::~Span() {
  if (state_ == 0) return;
  const std::uint64_t end = now_us();
  const std::uint64_t dur = end > start_us_ ? end - start_us_ : 0;
  try {
    if (state_ == 1) {
      emit('X', name_, start_us_, dur, std::move(args_));
    } else if (state_ == 2) {
      emit('E', name_, end, 0, std::move(args_));
    } else {
      close_lane(lane_, Event{name_, std::move(args_), start_us_, dur, 'X'});
    }
  } catch (...) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void Span::detail(std::string_view key, std::string_view value) {
  if (state_ == 0) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += util::json_escape(key);
  args_ += "\":\"";
  args_ += util::json_escape(value);
  args_ += '"';
}

void Span::detail(std::string_view key, std::uint64_t value) {
  if (state_ == 0) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += util::json_escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

}  // namespace spgcmp::obs
