// Tests for the observability layer (src/obs/): histogram bucket edges,
// registry snapshot JSON round-trips, Chrome trace-event well-formedness
// (balanced B/E pairs under pool load, tid metadata, lane tracks for
// overlapping spans) and the disabled-by-default contract — no
// tracing, no events, zero effect on instrumented code paths.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;

// ------------------------------------------------------------- metrics --

TEST(Histogram, BucketEdgesArePowersOfTwo) {
  using H = obs::Histogram;
  // Bucket 0 absorbs everything below 1 plus every non-usable input.
  EXPECT_EQ(H::bucket_of(0.0), 0u);
  EXPECT_EQ(H::bucket_of(0.999), 0u);
  EXPECT_EQ(H::bucket_of(-5.0), 0u);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Bucket b covers [2^(b-1), 2^b): the lower edge lands in its bucket,
  // the upper edge in the next.
  EXPECT_EQ(H::bucket_of(1.0), 1u);
  EXPECT_EQ(H::bucket_of(1.999), 1u);
  EXPECT_EQ(H::bucket_of(2.0), 2u);
  EXPECT_EQ(H::bucket_of(1024.0), 11u);
  EXPECT_EQ(H::bucket_of(1023.999), 10u);
  // Huge values clamp to the open-ended last bucket.
  EXPECT_EQ(H::bucket_of(1e300), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::infinity()),
            H::kBuckets - 1);
  // Edges: bucket b's exclusive upper bound is 2^b; the last is infinite.
  EXPECT_EQ(H::bucket_upper_edge(0), 1.0);
  EXPECT_EQ(H::bucket_upper_edge(10), 1024.0);
  EXPECT_TRUE(std::isinf(H::bucket_upper_edge(H::kBuckets - 1)));
  // Consistency: every sample is strictly below its bucket's upper edge
  // and at least its bucket's lower edge.
  for (const double v : {0.1, 1.0, 3.5, 100.0, 1e6, 1e18}) {
    const std::size_t b = H::bucket_of(v);
    EXPECT_LT(v, H::bucket_upper_edge(b)) << v;
    if (b > 0) {
      EXPECT_GE(v, H::bucket_upper_edge(b - 1)) << v;
    }
  }
}

TEST(Histogram, ObserveAccumulatesCountSumAndBuckets) {
  obs::Histogram h;
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.5);
  h.observe(1000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1003.5);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  // Non-finite samples count but contribute 0 to the sum.
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1003.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(1), 0u);
}

TEST(Registry, SnapshotRoundTripsThroughJsonParser) {
  auto& reg = obs::Registry::instance();
  // The registry is process-global; use namespaced names and read back
  // only those, so this test coexists with instrumented code paths.
  auto& c = reg.counter("test_obs.counter");
  auto& g = reg.gauge("test_obs.gauge");
  auto& h = reg.histogram("test_obs.hist");
  c.reset();
  g.reset();
  h.reset();
  c.add(41);
  c.inc();
  g.set(-7);
  h.observe(3.0);
  h.observe(300.0);

  // Same instrument name returns the same handle.
  EXPECT_EQ(&c, &reg.counter("test_obs.counter"));

  for (const int indent : {2, -1}) {
    const auto doc = util::parse_json(reg.snapshot_json(indent));
    EXPECT_EQ(doc.at("counters").at("test_obs.counter").as_number("c"), 42.0);
    EXPECT_EQ(doc.at("gauges").at("test_obs.gauge").as_number("g"), -7.0);
    const auto& hist = doc.at("histograms").at("test_obs.hist");
    EXPECT_EQ(hist.at("count").as_number("count"), 2.0);
    EXPECT_EQ(hist.at("sum").as_number("sum"), 303.0);
    // Sparse buckets: [edge, count] pairs for nonzero buckets only.
    std::map<double, double> buckets;
    for (const auto& pair : hist.at("buckets").as_array("buckets")) {
      const auto& kv = pair.as_array("bucket");
      ASSERT_EQ(kv.size(), 2u);
      buckets[kv[0].as_number("edge")] = kv[1].as_number("n");
    }
    EXPECT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[4.0], 1.0);    // 3.0 in [2, 4)
    EXPECT_EQ(buckets[512.0], 1.0);  // 300.0 in [256, 512)
  }

  // Compact and indented snapshots agree after parsing, and the compact
  // form is a single line.
  const std::string compact = reg.snapshot_json(-1);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

// --------------------------------------------------------------- trace --

/// Parse a trace document and return its events.
std::vector<util::JsonValue> trace_events(const std::string& text) {
  const auto doc = util::parse_json(text);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string("unit"), "ms");
  std::vector<util::JsonValue> out;
  for (const auto& e : doc.at("traceEvents").as_array("traceEvents")) {
    out.push_back(e);
  }
  return out;
}

TEST(Trace, DisabledByDefaultProducesNoEvents) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    obs::Span span("test_obs.noop");
    EXPECT_FALSE(span.active());
    span.detail("ignored", std::uint64_t{1});
    obs::trace_instant("test_obs.instant");
  }
  // A stop without a start drains nothing but still writes a valid
  // (empty) document.
  std::ostringstream os;
  const std::size_t n = obs::trace_stop(os);
  EXPECT_EQ(n, 0u);
  for (const auto& e : trace_events(os.str())) {
    // Only thread-name metadata may appear; no recorded spans.
    EXPECT_EQ(e.at("ph").as_string("ph"), "M");
  }
}

TEST(Trace, CompleteSpansAndInstantsRecordWhenEnabled) {
  obs::trace_start();
  ASSERT_TRUE(obs::trace_enabled());
  {
    obs::Span span("test_obs.outer");
    EXPECT_TRUE(span.active());
    span.detail("solver", std::string_view("greedy"));
    span.detail("index", std::uint64_t{3});
    obs::trace_instant("test_obs.mark");
  }
  std::ostringstream os;
  const std::size_t n = obs::trace_stop(os);
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(obs::trace_dropped(), 0u);

  bool saw_span = false, saw_instant = false;
  for (const auto& e : trace_events(os.str())) {
    const auto& ph = e.at("ph").as_string("ph");
    if (ph == "X" && e.at("name").as_string("name") == "test_obs.outer") {
      saw_span = true;
      EXPECT_GE(e.at("dur").as_number("dur"), 0.0);
      const auto& args = e.at("args");
      EXPECT_EQ(args.at("solver").as_string("solver"), "greedy");
      EXPECT_EQ(args.at("index").as_number("index"), 3.0);
    }
    if (ph == "i" && e.at("name").as_string("name") == "test_obs.mark") {
      saw_instant = true;
      EXPECT_EQ(e.at("s").as_string("s"), "t");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(Trace, BeginEndPairsBalanceUnderPoolLoad) {
  obs::trace_start();
  {
    // Worker-loop instrumentation emits a pool.task B/E pair per task.
    util::ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([] {
        const obs::Span inner("test_obs.task", obs::SpanMode::BeginEnd);
      });
    }
    pool.wait_idle();
  }
  std::ostringstream os;
  obs::trace_stop(os);

  // Per (tid, name): every E closes an open B, none left open at the end.
  std::map<std::pair<double, std::string>, int> open;
  std::size_t pool_tasks = 0, inner_spans = 0;
  for (const auto& e : trace_events(os.str())) {
    const auto& ph = e.at("ph").as_string("ph");
    if (ph != "B" && ph != "E") continue;
    const auto key = std::make_pair(e.at("tid").as_number("tid"),
                                    e.at("name").as_string("name"));
    if (ph == "B") {
      ++open[key];
      if (key.second == "pool.task") ++pool_tasks;
      if (key.second == "test_obs.task") ++inner_spans;
    } else {
      ASSERT_GT(open[key], 0) << key.second;
      --open[key];
    }
  }
  for (const auto& [key, n] : open) EXPECT_EQ(n, 0) << key.second;
  EXPECT_EQ(pool_tasks, 64u);
  EXPECT_EQ(inner_spans, 64u);
}

TEST(Trace, LaneSpansOverlapOnTracksOfTheirOwn) {
  // Two Lane spans that overlap without nesting, the first closed on
  // another thread, then a third once both are gone: the first two get
  // tracks of their own (not the thread's), and the third reuses the
  // lowest free one.
  obs::trace_start();
  obs::trace_instant("test_obs.owner");
  {
    auto a = std::make_unique<obs::Span>("test_obs.a", obs::SpanMode::Lane);
    obs::Span b("test_obs.b", obs::SpanMode::Lane);
    std::thread([&a] { a.reset(); }).join();
  }
  { const obs::Span c("test_obs.c", obs::SpanMode::Lane); }
  std::ostringstream os;
  obs::trace_stop(os);

  double owner = -1.0;
  std::map<std::string, double> tid;
  std::map<double, std::string> track_names;
  for (const auto& e : trace_events(os.str())) {
    const auto& name = e.at("name").as_string("name");
    const double t = e.at("tid").as_number("tid");
    if (name == "test_obs.owner") owner = t;
    if (name.rfind("test_obs.", 0) == 0 && e.at("ph").as_string("ph") == "X") {
      tid[name] = t;
    }
    if (name == "thread_name") track_names[t] = e.at("args").at("name").as_string("name");
  }
  ASSERT_EQ(tid.size(), 3u);
  EXPECT_NE(tid["test_obs.a"], tid["test_obs.b"]);
  EXPECT_NE(tid["test_obs.a"], owner);
  EXPECT_NE(tid["test_obs.b"], owner);
  EXPECT_EQ(tid["test_obs.c"], std::min(tid["test_obs.a"], tid["test_obs.b"]));
  EXPECT_EQ(track_names[tid["test_obs.a"]].rfind("lane-", 0), 0u);
}

}  // namespace
