// Tests for the campaign subsystem: spec parsing (round trip and golden
// error messages), deterministic sharding, the resumable service (killed
// campaigns resume with zero re-execution) and byte-identical merged
// BENCH output across thread counts, interruption and the one-shot bench
// path.  Also covers the util JSON parser / JSONL reader and the single
// --threads normalization point.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/lease.hpp"
#include "campaign/service.hpp"
#include "harness/sweep_engine.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/spec.hpp"
#include "util/thread_annotations.hpp"

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

// ----------------------------------------------------------------- util --

TEST(NormalizeThreads, ZeroMeansHardwareConcurrencyAtLeastOne) {
  const std::size_t hw = harness::normalize_threads(0);
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(hw, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(harness::normalize_threads(1), 1u);
  EXPECT_EQ(harness::normalize_threads(7), 7u);
}

// ------------------------------------------------------------- pipeline --

TEST(Pipeline, OpensTheNextBatchWhileASlowInstanceRuns) {
  // Batch 0 holds one slow instance and one cheap one, batch 1 cheap ones.
  // The slow instance waits until an instance of batch 1 has started, so
  // the test does not hang on timing: with a barrier between batches that
  // never happens, the wait runs out and the test fails.
  util::Mutex mutex;
  util::CondVar cv;
  bool batch1_started = false;
  bool slow_saw_batch1 = false;
  std::vector<std::string> order;
  std::vector<harness::Batch> batches;
  batches.push_back({2,
                     [&](std::size_t i) {
                       if (i != 0) return;
                       const auto deadline =
                           std::chrono::steady_clock::now() + std::chrono::seconds(20);
                       const util::MutexLock lk(mutex);
                       while (!batch1_started && std::chrono::steady_clock::now() < deadline) {
                         (void)cv.wait_for(mutex, std::chrono::milliseconds(50));
                       }
                       slow_saw_batch1 = batch1_started;
                     },
                     [&] { order.push_back("0"); }});
  batches.push_back({3,
                     [&](std::size_t) {
                       {
                         const util::MutexLock lk(mutex);
                         batch1_started = true;
                       }
                       cv.notify_all();
                     },
                     [&] { order.push_back("1"); }});
  harness::run_pipeline(std::move(batches), 2);
  // An instance of batch 1 started before batch 0's slow instance ended,
  // so before batch 0 was handed back; batch 1 may also finish first, but
  // batches are handed back in open order.
  EXPECT_TRUE(slow_saw_batch1);
  EXPECT_EQ(order, (std::vector<std::string>{"0", "1"}));
}

TEST(Pipeline, HandsBatchesBackInOpenOrderWithEveryResult) {
  // Batches of uneven sizes, empty ones among them, on 1, 2 and 4 workers:
  // each `done` sees all of its own results and runs in open order.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const std::vector<std::size_t> sizes = {5, 0, 1, 7, 0, 0, 3, 16};
    std::vector<std::vector<std::size_t>> results(sizes.size());
    std::vector<std::size_t> order;
    std::size_t opened = 0;
    harness::run_pipeline(
        [&]() -> std::optional<harness::Batch> {
          if (opened == sizes.size()) return std::nullopt;
          const std::size_t b = opened++;
          results[b].assign(sizes[b], 0);
          return harness::Batch{sizes[b],
                                [&, b](std::size_t i) { results[b][i] = 100 * b + i; },
                                [&, b] {
                                  for (std::size_t i = 0; i < sizes[b]; ++i) {
                                    EXPECT_EQ(results[b][i], 100 * b + i);
                                  }
                                  order.push_back(b);
                                }};
        },
        threads);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7})) << threads;
  }
}

TEST(Pipeline, AnInstanceErrorStopsThePipelineAndSurfaces) {
  std::atomic<std::size_t> opened{0};
  std::atomic<bool> done_after_error{false};
  EXPECT_THROW(
      harness::run_pipeline(
          [&]() -> std::optional<harness::Batch> {
            const std::size_t b = opened++;
            if (b == 100000) return std::nullopt;
            return harness::Batch{4,
                                  [b](std::size_t i) {
                                    if (b == 1 && i == 2) throw std::runtime_error("boom");
                                  },
                                  [&, b] {
                                    if (b >= 1) done_after_error = true;
                                  }};
          },
          2),
      std::runtime_error);
  EXPECT_FALSE(done_after_error.load());
  EXPECT_LT(opened.load(), 100000u);  // the source stopped being asked
}

TEST(JsonParser, RoundTripsWriterOutput) {
  const auto v = util::parse_json(
      R"({"a": 1.5, "b": [1, 2, 3], "s": "x\n\"y\"", "t": true, "n": null})");
  EXPECT_EQ(v.at("a").as_number("a"), 1.5);
  EXPECT_EQ(v.at("b").as_array("b").size(), 3u);
  EXPECT_EQ(v.at("s").as_string("s"), "x\n\"y\"");
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_EQ(v.at("n").type, util::JsonValue::Type::Null);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, ExactDoubleRoundTripThroughJsonNumber) {
  // The byte-identity of merged campaigns rests on this property.
  for (const double x : {1.0 / 3.0, 6e-12 * 8.0, 1.23456789012345e300, 0.1}) {
    const std::string s = util::json_number(x);
    EXPECT_EQ(util::parse_json(s).as_number("x"), x) << s;
  }
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW((void)util::parse_json("{"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("[1, ]"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("1 2"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("nul"), util::JsonParseError);
}

TEST(Jsonl, ReaderToleratesTruncatedFinalRecordOnly) {
  const fs::path path = fs::temp_directory_path() / "spgcmp_jsonl_test.jsonl";
  {
    std::ofstream os(path);
    os << R"({"a": 1})" << "\n" << R"({"a": 2})" << "\n" << R"({"a": )";
  }
  const auto records = util::read_jsonl(path.string());
  ASSERT_EQ(records.size(), 2u);  // the torn tail is dropped
  EXPECT_EQ(records[1].at("a").as_number("a"), 2.0);

  {
    std::ofstream os(path);
    os << R"({"a": )" << "\n" << R"({"a": 2})" << "\n";
  }
  EXPECT_THROW((void)util::read_jsonl(path.string()), std::runtime_error);
  fs::remove(path);
}

// ----------------------------------------------------------------- spec --

TEST(CampaignSpec, PaperRoundTripsThroughTextExactly) {
  const auto spec = campaign::CampaignSpec::paper(5, 3, 3, 5, "mesh");
  const std::string text = spec.to_text();
  const auto reparsed = campaign::CampaignSpec::parse_string(text);
  EXPECT_EQ(reparsed.to_text(), text);
  EXPECT_EQ(reparsed.name, "paper");
  EXPECT_EQ(reparsed.sweeps.size(), 6u);
  EXPECT_EQ(reparsed.tables.size(), 2u);
  ASSERT_NE(reparsed.find_sweep("fig10_random_n50_4x4"), nullptr);
  EXPECT_EQ(reparsed.find_sweep("fig10_random_n50_4x4")->apps, 5u);
  EXPECT_EQ(reparsed.find_sweep("nope"), nullptr);
}

/// Expect parse_string(text) to throw with exactly `message`.
void expect_spec_error(const std::string& text, const std::string& message) {
  try {
    (void)campaign::CampaignSpec::parse_string(text);
    FAIL() << "expected an error: " << message;
  } catch (const util::SpecError& e) {
    EXPECT_STREQ(e.what(), message.c_str());
  }
}

TEST(CampaignSpec, HeuristicsKeyRoundTripsAndResolvesNames) {
  const char* text =
      "campaign subset\n"
      "topology mesh\n"
      "\n"
      "[sweep s1]\n"
      "kind streamit\n"
      "rows 4\n"
      "cols 4\n"
      "heuristics random,dpa2d1d,exact(cap=9)\n";
  const auto spec = campaign::CampaignSpec::parse_string(text);
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].solvers,
            (std::vector<std::string>{"random", "dpa2d1d", "exact(cap=9)"}));
  EXPECT_EQ(campaign::sweep_solver_names(spec.sweeps[0]),
            (std::vector<std::string>{"Random", "DPA2D1D", "Exact"}));
  // Round trip through the text format exactly (resume depends on this).
  EXPECT_EQ(campaign::CampaignSpec::parse_string(spec.to_text()).to_text(),
            spec.to_text());
  // No heuristics key -> the paper set, so pre-existing specs and their
  // merged outputs are untouched.
  campaign::SweepSpec plain;
  EXPECT_EQ(campaign::sweep_solver_names(plain),
            (std::vector<std::string>{"Random", "Greedy", "DPA2D", "DPA1D",
                                      "DPA2D1D"}));
}

TEST(CampaignSpec, GoldenSolverErrors) {
  expect_spec_error(
      "[sweep s1]\nkind streamit\nheuristics frobnicate\n",
      "line 3: unknown solver 'frobnicate' (expected random, greedy, dpa2d, "
      "dpa1d, dpa2d1d, exact, anneal, peft, refine)");
  expect_spec_error(
      "[sweep s1]\nkind streamit\nheuristics exact(cap=banana)\n",
      "line 3: solver 'exact': option 'cap': expected an integer, got "
      "'banana'");
  expect_spec_error("[sweep s1]\nkind streamit\nheuristics ,\n",
                    "line 3: empty solver list");
}

TEST(CampaignSpec, GoldenParseErrors) {
  expect_spec_error("flavor cherry\n", "line 1: unknown campaign key 'flavor'");
  expect_spec_error("topology klein-bottle\n",
                    "line 1: unknown topology 'klein-bottle' (expected mesh, "
                    "snake, torus, hetero)");
  expect_spec_error("[sweep s1]\nkind streamish\n",
                    "line 2: unknown sweep kind 'streamish' (expected streamit "
                    "or random)");
  expect_spec_error("[sweep s1]\nrows 2\n", "line 1: sweep 's1': missing 'kind'");
  expect_spec_error("[sweep s1]\nkind random\napps many\nmax_y 4\n",
                    "line 3: key 'apps': expected an integer, got 'many'");
  // Numeric-hardening regression: spec_int shares util::parse_number's
  // strict grammar, so '+'-signed and hex values are spec errors too.
  expect_spec_error("[sweep s1]\nkind random\napps +3\nmax_y 4\n",
                    "line 3: key 'apps': expected an integer, got '+3'");
  expect_spec_error("[sweep s1]\nkind random\napps 0x3\nmax_y 4\n",
                    "line 3: key 'apps': expected an integer, got '0x3'");
  expect_spec_error("[sweep s1]\nkind random\nmax_y 4\nrows 0\n",
                    "line 4: key 'rows': value 0 out of range [1, 64]");
  expect_spec_error(
      "[sweep s1]\nkind streamit\n[sweep s1]\nkind streamit\n",
      "line 3: duplicate sweep name 's1'");
  expect_spec_error(
      "[sweep s1]\nkind streamit\n"
      "[table t1]\nkind streamit_failures\nkey platform\nfrom s1\nlabels a\n"
      "[table t1]\nkind streamit_failures\nkey platform\nfrom s1\nlabels a\n",
      "line 8: duplicate table name 't1'");
  expect_spec_error(
      "[sweep s1]\nkind streamit\n"
      "[table s1]\nkind streamit_failures\nkey platform\nfrom s1\nlabels a\n",
      "line 3: table 's1' collides with a sweep of the same name");
  expect_spec_error("[sweep s1]\nkind streamit\nelevations 1 2\n",
                    "line 1: sweep 's1': elevation keys apply to random sweeps "
                    "only");
  expect_spec_error("[sweep s1]\nkind random\n",
                    "line 1: sweep 's1': random sweeps need 'elevations' or "
                    "'max_y'");
  expect_spec_error(
      "[table t1]\nkind random_failures_by_ccr\nkey ccr\nfrom ghost\n",
      "line 1: table 't1': unknown source sweep 'ghost'");
  expect_spec_error(
      "[sweep s1]\nkind streamit\n"
      "[table t1]\nkind random_failures_by_ccr\nkey ccr\nfrom s1\n",
      "line 3: table 't1': source sweep 's1' is not a random sweep");
  expect_spec_error("[bucket b1]\nkind streamit\n",
                    "line 1: unknown section kind 'bucket' (expected sweep or "
                    "table)");
  expect_spec_error("[sweep missing-close\n",
                    "line 1: section header missing closing ']'");
}

// --------------------------------------------------------------- shards --

TEST(SweepPlan, ShardGridCoversAllInstancesExactlyOnce) {
  campaign::SweepSpec spec;
  spec.name = "probe";
  spec.kind = campaign::SweepKind::Random;
  spec.n = 10;
  spec.rows = 2;
  spec.cols = 2;
  spec.elevations = {1, 2};
  spec.apps = 3;
  spec.shard_size = 4;
  const campaign::SweepPlan plan(spec, "mesh");
  // 3 CCRs x 2 elevations x 3 apps = 18 instances in shards of 4.
  EXPECT_EQ(plan.instance_count(), 18u);
  EXPECT_EQ(plan.shard_count(), 5u);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const auto [first, last] = plan.shard_range(s);
    EXPECT_EQ(first, covered);
    EXPECT_GT(last, first);
    covered = last;
  }
  EXPECT_EQ(covered, plan.instance_count());
}

// -------------------------------------------------------------- service --

/// A tiny two-sweep campaign (random + derived table) that runs in well
/// under a second per full pass.
const char* tiny_spec_text() {
  return R"(campaign tiny
topology mesh

[sweep tiny_random]
kind random
n 10
rows 2
cols 2
elevations 1 2
apps 2
seed 7
shard_size 4

[table tiny_failures]
kind random_failures_by_ccr
key ccr
from tiny_random
)";
}

/// Fresh scratch directory under the system temp dir.
class CampaignDir {
 public:
  explicit CampaignDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("spgcmp_campaign_" + tag + "_" +
               std::to_string(::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path_);
  }
  ~CampaignDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// The one-shot path over a spec, as bench_run_all runs it: each sweep
/// through SweepPlan::run_all and sweep_report, then the derived tables.
std::vector<harness::BenchReport> oneshot_reports(const campaign::CampaignSpec& spec,
                                                  std::size_t threads) {
  std::vector<harness::BenchReport> reports;
  for (const auto& sweep : spec.sweeps) {
    const campaign::SweepPlan plan(sweep, spec.topology);
    reports.push_back(
        campaign::sweep_report(sweep, spec.topology, plan.run_all(threads)));
  }
  for (auto& table : campaign::table_reports(spec, reports)) {
    reports.push_back(std::move(table));
  }
  return reports;
}

/// Every report's BENCH bytes, compared one by one.
void expect_same_reports(const std::vector<harness::BenchReport>& got,
                         const std::vector<harness::BenchReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::ostringstream a, b;
    got[i].write_json(a);
    want[i].write_json(b);
    EXPECT_EQ(a.str(), b.str()) << want[i].name;
  }
}

/// All merged reports of a campaign rendered to one string.
std::string merged_bytes(const campaign::CampaignService& service) {
  std::ostringstream os;
  for (const auto& rep : service.merged_reports()) {
    os << "=== " << rep.name << " ===\n";
    rep.write_json(os);
  }
  return os.str();
}

TEST(CampaignService, InterruptedCampaignResumesWithZeroReexecution) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());

  // Reference: uninterrupted at 1 thread.
  CampaignDir ref_dir("ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 1;
  const auto ref_summary = ref.run(opt);
  EXPECT_TRUE(ref_summary.complete);
  EXPECT_EQ(ref_summary.shards_total, 3u);
  EXPECT_EQ(ref_summary.shards_executed, 3u);
  const std::string ref_bytes = merged_bytes(ref);

  // Killed after one shard (shard-limit injection), resumed at 8 threads.
  CampaignDir cut_dir("cut");
  {
    campaign::CampaignService cut(spec, cut_dir.str());
    campaign::ServiceOptions first;
    first.threads = 1;
    first.max_shards = 1;
    const auto s1 = cut.run(first);
    EXPECT_FALSE(s1.complete);
    EXPECT_EQ(s1.shards_executed, 1u);
    EXPECT_THROW((void)cut.merged_reports(), std::runtime_error);
  }
  {
    // Re-open from disk, as `spgcmp_campaign resume` does.
    auto resumed = campaign::CampaignService::open(cut_dir.str());
    campaign::ServiceOptions rest;
    rest.threads = 8;
    const auto s2 = resumed.run(rest);
    EXPECT_TRUE(s2.complete);
    EXPECT_EQ(s2.shards_skipped, 1u);   // nothing re-executed...
    EXPECT_EQ(s2.shards_executed, 2u);  // ...only the pending shards ran
    EXPECT_EQ(merged_bytes(resumed), ref_bytes);

    // A further resume is a no-op.
    const auto s3 = resumed.run(rest);
    EXPECT_TRUE(s3.complete);
    EXPECT_EQ(s3.shards_executed, 0u);
    EXPECT_EQ(s3.shards_skipped, 3u);
  }

  // Uninterrupted 8-thread run: byte-identical too.
  CampaignDir par_dir("par");
  campaign::CampaignService par(spec, par_dir.str());
  campaign::ServiceOptions wide;
  wide.threads = 8;
  EXPECT_TRUE(par.run(wide).complete);
  EXPECT_EQ(merged_bytes(par), ref_bytes);
}

TEST(CampaignService, MergeMatchesOneShotBenchReportByteForByte) {
  // Shards of two instances, so at 2 and 4 threads the pipeline overlaps
  // them; the merge still equals the one-shot path at every thread count.
  auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  spec.sweeps[0].shard_size = 2;
  const auto want = oneshot_reports(spec, /*threads=*/1);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    CampaignDir dir("oneshot" + std::to_string(threads));
    campaign::CampaignService service(spec, dir.str());
    campaign::ServiceOptions opt;
    opt.threads = threads;
    ASSERT_TRUE(service.run(opt).complete);
    const auto reports = service.merged_reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[1].name, "tiny_failures");

    // The one-shot path over the same spec, derived table included.
    expect_same_reports(reports, oneshot_reports(spec, threads));
    expect_same_reports(reports, want);
  }
}

TEST(CampaignService, TruncatedShardLogTailIsReexecutedCleanly) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("torn");
  campaign::CampaignService service(spec, dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 1;
  opt.max_shards = 2;
  EXPECT_EQ(service.run(opt).shards_executed, 2u);

  // Simulate a kill mid-append: a torn record for the third shard, with no
  // trailing newline (exactly what an interrupted write leaves behind).
  {
    std::ofstream os(service.store().shards_path(), std::ios::app);
    os << R"({"sweep": "tiny_random", "shard": 2, "instances": [{"per)";
  }
  auto reopened = campaign::CampaignService::open(dir.str());
  EXPECT_EQ(reopened.status().shards_done(), 2u);  // torn tail ignored
  campaign::ServiceOptions rest;
  rest.threads = 1;
  const auto s = reopened.run(rest);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.shards_executed, 1u);  // exactly the torn shard re-ran

  // The re-appended record must start on a fresh line (the writer truncates
  // the torn fragment), so the log stays fully readable afterwards: merge
  // works and a fresh open sees all three shards, none malformed.
  EXPECT_EQ(reopened.merged_reports().size(), 2u);
  auto again = campaign::CampaignService::open(dir.str());
  EXPECT_EQ(again.status().shards_done(), 3u);
  EXPECT_EQ(again.run(rest).shards_executed, 0u);
}

/// tiny_spec_text() restricted to a two-solver subset via the
/// `heuristics` key (same grid, same shard geometry).
const char* tiny_subset_spec_text() {
  return R"(campaign tiny_subset
topology mesh

[sweep tiny_random]
kind random
n 10
rows 2
cols 2
elevations 1 2
apps 2
seed 7
heuristics random,dpa2d1d
shard_size 4

[table tiny_failures]
kind random_failures_by_ccr
key ccr
from tiny_random
)";
}

TEST(CampaignService, SolverSubsetShardsResumeAndMergeByteIdentically) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_subset_spec_text());

  // Shard-count golden: the subset changes result width, not the instance
  // grid — 3 CCRs x 2 elevations x 2 apps = 12 instances in shards of 4.
  const campaign::SweepPlan plan(spec.sweeps[0], spec.topology);
  EXPECT_EQ(plan.instance_count(), 12u);
  EXPECT_EQ(plan.shard_count(), 3u);
  EXPECT_EQ(plan.solvers().names(),
            (std::vector<std::string>{"Random", "DPA2D1D"}));

  // Reference: uninterrupted single-threaded run.
  CampaignDir ref_dir("subset_ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 1;
  ASSERT_TRUE(ref.run(opt).complete);
  const std::string ref_bytes = merged_bytes(ref);

  // Interrupted after one shard, resumed wide: byte-identical merge.
  CampaignDir cut_dir("subset_cut");
  {
    campaign::CampaignService cut(spec, cut_dir.str());
    campaign::ServiceOptions first;
    first.threads = 1;
    first.max_shards = 1;
    EXPECT_FALSE(cut.run(first).complete);
  }
  auto resumed = campaign::CampaignService::open(cut_dir.str());
  campaign::ServiceOptions rest;
  rest.threads = 8;
  const auto s = resumed.run(rest);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.shards_skipped, 1u);
  EXPECT_EQ(s.shards_executed, 2u);
  EXPECT_EQ(merged_bytes(resumed), ref_bytes);

  // Every record is two solvers wide, and the reports carry their names.
  const auto reports = resumed.merged_reports();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.heuristics,
              (std::vector<std::string>{"Random", "DPA2D1D"}));
    for (const auto& cell : rep.cells) EXPECT_EQ(cell.failures.size(), 2u);
  }

  // Parity with the one-shot path over the same subset.
  expect_same_reports(reports, oneshot_reports(spec, /*threads=*/1));
}

TEST(CampaignService, SubsetColumnsMatchThePaperSetSlice) {
  // The subset's per-solver values must equal the paper-set run's values
  // for the same solvers whenever the subset contains the per-instance
  // best solver (normalization divides by the set's best energy, and on
  // these instances Random or DPA2D1D is the paper-set winner too); the
  // failure *counts* are normalization-free and must always match.
  const auto subset = oneshot_reports(
      campaign::CampaignSpec::parse_string(tiny_subset_spec_text()), 1)[0];
  const auto full =
      oneshot_reports(campaign::CampaignSpec::parse_string(tiny_spec_text()), 1)[0];
  ASSERT_EQ(subset.cells.size(), full.cells.size());
  for (std::size_t c = 0; c < subset.cells.size(); ++c) {
    EXPECT_EQ(subset.cells[c].failures[0], full.cells[c].failures[0]);  // Random
    EXPECT_EQ(subset.cells[c].failures[1], full.cells[c].failures[4]);  // DPA2D1D
  }
}

TEST(CampaignService, RejectsDirectoryBoundToDifferentSpec) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("clash");
  campaign::CampaignService service(spec, dir.str());
  auto other = spec;
  other.sweeps[0].apps = 3;
  EXPECT_THROW(campaign::CampaignService(other, dir.str()), std::runtime_error);
  // The original spec re-binds fine (idempotent init).
  EXPECT_NO_THROW(campaign::CampaignService(spec, dir.str()));
}

TEST(CampaignService, StopFlagPausesWithValidManifestAndResumes) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("sigpause");
  campaign::CampaignService service(spec, dir.str());

  // The flag is already up (as after a SIGINT between shards): the run
  // pauses before executing anything, but still checkpoints a valid
  // manifest so `status` and `resume` see consistent state.
  std::atomic<bool> stop{true};
  std::ostringstream log;
  campaign::ServiceOptions opt;
  opt.threads = 1;
  opt.stop = &stop;
  opt.log = &log;
  const auto paused = service.run(opt);
  EXPECT_FALSE(paused.complete);
  EXPECT_TRUE(paused.interrupted);
  EXPECT_EQ(paused.shards_executed, 0u);
  EXPECT_NE(log.str().find("stop requested"), std::string::npos);
  const auto manifest = service.store().read_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->campaign, "tiny");
  EXPECT_EQ(manifest->shards_total, 3u);
  EXPECT_EQ(manifest->shards_done, 0u);

  // Clearing the flag resumes to completion; nothing was lost or redone.
  stop.store(false);
  const auto resumed = service.run(opt);
  EXPECT_TRUE(resumed.complete);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.shards_executed, 3u);
  EXPECT_EQ(resumed.shards_skipped, 0u);
}

/// A log stream that raises `stop` once a line holding `trigger` is
/// flushed.  The service writes its log only while opening shards, which
/// the pipeline never does on two workers at once.
class TripwireLog : public std::stringbuf {
 public:
  TripwireLog(std::string trigger, std::atomic<bool>& stop)
      : trigger_(std::move(trigger)), stop_(stop) {}

 protected:
  int sync() override {
    if (str().find(trigger_) != std::string::npos) stop_.store(true);
    return 0;
  }

 private:
  std::string trigger_;
  std::atomic<bool>& stop_;
};

/// The (sweep, shard) keys of a shard log, in append order.
std::vector<std::pair<std::string, std::size_t>> log_order(const std::string& path) {
  std::vector<std::pair<std::string, std::size_t>> keys;
  for (const auto& rec : util::read_jsonl(path)) {
    keys.emplace_back(rec.at("sweep").as_string("sweep"),
                      static_cast<std::size_t>(rec.at("shard").as_number("shard")));
  }
  return keys;
}

TEST(CampaignService, StopMidRunPersistsTheOpenShardsInOrderAndResumes) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir ref_dir("stop_ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions one;
  one.threads = 1;
  ASSERT_TRUE(ref.run(one).complete);

  // The flag goes up as the second shard opens, while the first may still
  // run: both open shards finish and persist, in open order, and no third
  // shard opens.
  CampaignDir dir("stop_mid");
  std::atomic<bool> stop{false};
  TripwireLog buf("shard 2/3", stop);
  std::ostream log(&buf);
  campaign::ServiceOptions opt;
  opt.threads = 2;
  opt.stop = &stop;
  opt.log = &log;
  campaign::CampaignService service(spec, dir.str());
  const auto paused = service.run(opt);
  EXPECT_TRUE(paused.interrupted);
  EXPECT_FALSE(paused.complete);
  EXPECT_EQ(paused.shards_executed, 2u);
  EXPECT_EQ(log_order(service.store().shards_path()),
            (std::vector<std::pair<std::string, std::size_t>>{{"tiny_random", 0},
                                                              {"tiny_random", 1}}));
  EXPECT_NE(buf.str().find("stop requested; pausing after 2 shards"), std::string::npos)
      << buf.str();
  const auto manifest = service.store().read_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->shards_done, 2u);

  // Resume re-executes nothing that was persisted and merges byte for byte.
  auto resumed = campaign::CampaignService::open(dir.str());
  campaign::ServiceOptions rest;
  rest.threads = 2;
  const auto s = resumed.run(rest);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.shards_skipped, 2u);
  EXPECT_EQ(s.shards_executed, 1u);
  EXPECT_EQ(merged_bytes(resumed), merged_bytes(ref));
}

TEST(CampaignService, ShardSpansOverlapOnLanesAndEveryTrackNests) {
  // A traced two-thread run: one campaign.shard span per shard, from open
  // to persisted, with its sweep and shard args, and one campaign.persist
  // span per record.  Shards overlap, so their spans sit on lanes; every
  // track of the trace, lane or thread, must still nest.
  auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  spec.sweeps[0].shard_size = 2;
  CampaignDir dir("trace");
  campaign::CampaignService service(spec, dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 2;
  obs::trace_start();
  ASSERT_TRUE(service.run(opt).complete);
  std::ostringstream os;
  obs::trace_stop(os);

  struct Interval {
    std::uint64_t begin, end;
  };
  std::map<std::uint64_t, std::vector<Interval>> tracks;
  std::map<std::uint64_t, std::vector<std::uint64_t>> open_begins;
  std::set<std::size_t> shard_spans;
  std::size_t persist_spans = 0;
  const auto trace = util::parse_json(os.str());
  for (const auto& e : trace.at("traceEvents").as_array("events")) {
    const std::string ph = e.at("ph").as_string("ph");
    const auto tid = static_cast<std::uint64_t>(e.at("tid").as_number("tid"));
    if (ph == "M" || ph == "i") continue;
    const auto ts = static_cast<std::uint64_t>(e.at("ts").as_number("ts"));
    if (ph == "B") {
      open_begins[tid].push_back(ts);
      continue;
    }
    if (ph == "E") {
      ASSERT_FALSE(open_begins[tid].empty()) << "an E without its B on " << tid;
      tracks[tid].push_back({open_begins[tid].back(), ts});
      open_begins[tid].pop_back();
      continue;
    }
    ASSERT_EQ(ph, "X");
    const auto dur = static_cast<std::uint64_t>(e.at("dur").as_number("dur"));
    tracks[tid].push_back({ts, ts + dur});
    const std::string name = e.at("name").as_string("name");
    if (name == "campaign.shard") {
      EXPECT_EQ(e.at("args").at("sweep").as_string("sweep"), "tiny_random");
      shard_spans.insert(static_cast<std::size_t>(e.at("args").at("shard").as_number("shard")));
    }
    if (name == "campaign.persist") ++persist_spans;
  }
  EXPECT_EQ(shard_spans, (std::set<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(persist_spans, 6u);
  for (auto& [tid, spans] : tracks) {
    EXPECT_TRUE(open_begins[tid].empty()) << "an open B on " << tid;
    std::sort(spans.begin(), spans.end(), [](const Interval& a, const Interval& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<Interval> stack;
    for (const auto& span : spans) {
      while (!stack.empty() && stack.back().end <= span.begin) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(span.end, stack.back().end)
            << "track " << tid << ": [" << span.begin << ", " << span.end
            << "] overlaps [" << stack.back().begin << ", " << stack.back().end << "]";
      }
      stack.push_back(span);
    }
  }
}

/// A log stream several threads may write and read at once.
class SharedLog : public std::streambuf {
 public:
  [[nodiscard]] std::string str() const {
    const std::lock_guard<std::mutex> lk(mutex_);
    return text_;
  }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const std::lock_guard<std::mutex> lk(mutex_);
      text_.push_back(traits_type::to_char_type(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::lock_guard<std::mutex> lk(mutex_);
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::string text_;
};

/// The shards a service log says were opened: "<sweep> shard K/N" lines.
std::set<std::pair<std::string, std::size_t>> opened_shards(const std::string& log) {
  std::set<std::pair<std::string, std::size_t>> out;
  std::istringstream is(log);
  for (std::string line; std::getline(is, line);) {
    std::istringstream words(line);
    std::string tag, sweep, shard_word, frac;
    if (!(words >> tag >> sweep >> shard_word >> frac) || shard_word != "shard") continue;
    out.emplace(sweep, std::stoul(frac.substr(0, frac.find('/'))) - 1);
  }
  return out;
}

TEST(CampaignService, LeasedWorkersHoldLeasesOnlyForShardsTheyOpened) {
  // Two leased workers of two threads each.  A lease is claimed only as
  // its shard opens, never ahead: sampled at any moment, each worker's
  // leases are shards its log says it opened, except at most the one it
  // is opening (claimed, not yet logged).  Leases are read before the
  // logs, so a lease seen is either logged by then or that one shard.
  auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  spec.sweeps[0].shard_size = 2;
  CampaignDir ref_dir("lease_bound_ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions one;
  one.threads = 1;
  ASSERT_TRUE(ref.run(one).complete);

  CampaignDir dir("lease_bound");
  campaign::CampaignService bind(spec, dir.str());
  auto w1 = campaign::CampaignService::open(dir.str());
  auto w2 = campaign::CampaignService::open(dir.str());
  SharedLog buf1, buf2;
  std::ostream log1(&buf1), log2(&buf2);
  std::atomic<int> running{2};
  std::atomic<bool> stop{false};  // raised only if the workers never finish
  campaign::RunSummary s1, s2;
  const auto run_worker = [&](campaign::CampaignService& svc, const std::string& name,
                              std::ostream& log, campaign::RunSummary& out) {
    campaign::ServiceOptions o;
    o.threads = 2;
    o.worker = name;
    o.log = &log;
    o.stop = &stop;
    out = svc.run(o);
    --running;
  };
  std::thread t1(run_worker, std::ref(w1), "w1", std::ref(log1), std::ref(s1));
  std::thread t2(run_worker, std::ref(w2), "w2", std::ref(log2), std::ref(s2));
  std::size_t samples = 0;
  std::size_t worst_unopened = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (running.load() > 0) {
    if (!stop.load() && std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "the workers did not finish within 60 s";
      stop.store(true);
    }
    const auto leases = campaign::scan_leases(dir.str(), 30.0);
    const std::map<std::string, std::set<std::pair<std::string, std::size_t>>> opened = {
        {"w1", opened_shards(buf1.str())}, {"w2", opened_shards(buf2.str())}};
    std::map<std::string, std::size_t> unopened;
    for (const auto& [key, info] : leases) {
      const auto it = opened.find(info.worker);
      ASSERT_NE(it, opened.end()) << info.worker;
      if (it->second.count(key) == 0) ++unopened[info.worker];
    }
    for (const auto& [worker, n] : unopened) worst_unopened = std::max(worst_unopened, n);
    ++samples;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  t1.join();
  t2.join();
  EXPECT_GT(samples, 0u);
  EXPECT_LE(worst_unopened, 1u);
  EXPECT_TRUE(s1.complete);
  EXPECT_TRUE(s2.complete);
  EXPECT_EQ(merged_bytes(w1), merged_bytes(ref));
  EXPECT_TRUE(campaign::scan_leases(dir.str(), 30.0).empty());
}

TEST(CampaignStore, WriteManifestSurfacesUnwritableDirectory) {
  // The durability path must report failures instead of silently
  // installing nothing (the old code ignored the stream state entirely).
  const campaign::CampaignStore store(
      (fs::temp_directory_path() / "spgcmp_no_such_dir" / "campaign").string());
  EXPECT_THROW(store.write_manifest({"x", 1, 0}), std::runtime_error);
}

TEST(CampaignStore, WriteManifestReplacesStaleTmpAtomically) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("durable");
  campaign::CampaignService service(spec, dir.str());  // creates the directory
  const auto& store = service.store();

  // A stale, oversized tmp from a crashed earlier attempt must never leak
  // trailing bytes into the next manifest, and the per-writer temp the
  // install goes through must be renamed away, not left behind.
  {
    std::ofstream os(store.manifest_path() + ".tmp");
    os << std::string(4096, 'x');
  }
  store.write_manifest({"tiny", 3, 2});
  std::size_t writer_tmps = 0;
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("MANIFEST.json.tmp.", 0) == 0) ++writer_tmps;
  }
  EXPECT_EQ(writer_tmps, 0u);
  const auto m = store.read_manifest();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->campaign, "tiny");
  EXPECT_EQ(m->shards_total, 3u);
  EXPECT_EQ(m->shards_done, 2u);
}

TEST(CampaignStore, ConcurrentManifestWritersNeverStrandEachOther) {
  // Regression: the manifest temp name used to be the fixed
  // MANIFEST.json.tmp, and obs's writer used `path + ".tmp"`, so two
  // writers installing one file concurrently (threads sharing a pid, or
  // independent processes: leased workers checkpointing, tools sharing a
  // REPRO_METRICS path) shared one temp file and the loser's rename failed
  // with ENOENT.  Per-writer names make every install independent.
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("manifest_race");
  campaign::CampaignService service(spec, dir.str());
  const auto& store = service.store();
  const std::string metrics = dir.str() + "/metrics.json";

  // 4 threads x 50 installs of one file; false once any install failed.
  const auto race = [](const std::function<bool()>& install) {
    std::atomic<bool> failed{false};
    std::vector<std::thread> writers;
    writers.reserve(4);
    for (std::size_t t = 0; t < 4; ++t) {
      writers.emplace_back([&install, &failed] {
        for (int i = 0; i < 50 && !failed.load(); ++i) {
          if (!install()) failed.store(true);
        }
      });
    }
    for (auto& w : writers) w.join();
    return !failed.load();
  };
  EXPECT_TRUE(race([&store] {
    try {
      store.write_manifest({"tiny", 3, 1});
      return true;
    } catch (const std::exception&) {
      return false;
    }
  })) << "CampaignStore::write_manifest";
  EXPECT_TRUE(race([&metrics] {
    return obs::write_text_file_durable(metrics, "{}\n");
  })) << "obs::write_text_file_durable";

  const auto m = store.read_manifest();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->campaign, "tiny");
  EXPECT_EQ(m->shards_total, 3u);
  EXPECT_EQ(m->shards_done, 1u);
  std::ifstream is(metrics);
  std::ostringstream text;
  text << is.rdbuf();
  EXPECT_EQ(text.str(), "{}\n");
}

TEST(CampaignStore, ShardWallSecondsPersistAndOldLogsStayLoadable) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("walltime");
  campaign::CampaignService service(spec, dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 2;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(service.run(opt).complete);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Every freshly executed shard carries a nonnegative wall timing, and
  // the manifest checkpoints their sum.  A record times the run from its
  // previous record (or the start) to its own persistence, so however the
  // two workers overlap shards, the records add up to the run's elapsed
  // time less its set-up and final manifest: never more.  (No lower bound:
  // on a run this short, the final manifest's fsync can take half of it.)
  const auto shards = service.store().load_shards();
  ASSERT_EQ(shards.size(), 3u);
  double sum = 0.0;
  for (const auto& [key, rec] : shards) {
    EXPECT_GE(rec.wall_seconds, 0.0) << key.first;
    sum += rec.wall_seconds;
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, elapsed);
  const auto manifest = service.store().read_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_DOUBLE_EQ(manifest->wall_seconds_done, sum);
  const auto timed = service.status();
  EXPECT_EQ(timed.shards_timed(), 3u);
  EXPECT_GT(timed.shards_per_second(), 0.0);

  // A log written before shard timing existed has no wall_seconds field:
  // strip it from every record and re-open.  The records must still load
  // (field optional on read), reporting -1 / untimed.
  const std::string shards_path = service.store().shards_path();
  std::string log;
  {
    std::ifstream is(shards_path);
    std::ostringstream os;
    os << is.rdbuf();
    log = os.str();
  }
  for (std::string::size_type pos; (pos = log.find("\"wall_seconds\":")) !=
                                   std::string::npos;) {
    const auto comma = log.find(',', pos);
    ASSERT_NE(comma, std::string::npos);
    log.erase(pos, comma - pos + 1);
  }
  {
    std::ofstream os(shards_path, std::ios::trunc);
    os << log;
  }
  const auto reopened = campaign::CampaignService::open(dir.str());
  const auto old = reopened.store().load_shards();
  ASSERT_EQ(old.size(), 3u);
  for (const auto& [key, rec] : old) {
    EXPECT_LT(rec.wall_seconds, 0.0) << key.first;
    EXPECT_FALSE(rec.results.empty()) << key.first;
  }
  const auto untimed = reopened.status();
  EXPECT_EQ(untimed.shards_done(), 3u);
  EXPECT_EQ(untimed.shards_timed(), 0u);
  EXPECT_EQ(untimed.shards_per_second(), 0.0);
  EXPECT_LT(untimed.eta_seconds(), 0.0);
}

TEST(CampaignService, RenderStatusJsonGolden) {
  // `spgcmp_campaign status --json` output on a hand-built report; the
  // exact bytes are the machine-consumer contract.
  campaign::StatusReport rep;
  rep.campaign = "tiny";
  rep.sweeps.push_back({"alpha", 2, 2, 8, 4.0, 2});
  rep.sweeps.push_back({"beta", 1, 3, 12, 2.0, 1, 1});  // one leased shard
  std::ostringstream os;
  campaign::render_status_json(rep, os);
  EXPECT_EQ(os.str(), R"({
  "campaign": "tiny",
  "complete": false,
  "shards_done": 3,
  "shards_total": 5,
  "shards_leased": 1,
  "shards_timed": 3,
  "wall_seconds": 6,
  "shards_per_second": 0.5,
  "eta_seconds": 4,
  "sweeps": [
    {
      "name": "alpha",
      "shards_done": 2,
      "shards_total": 2,
      "shards_leased": 0,
      "instances_total": 8,
      "shards_timed": 2,
      "wall_seconds": 4
    },
    {
      "name": "beta",
      "shards_done": 1,
      "shards_total": 3,
      "shards_leased": 1,
      "instances_total": 12,
      "shards_timed": 1,
      "wall_seconds": 2
    }
  ]
}
)");

  // Untimed report: throughput and ETA are unknown, rendered as null.
  campaign::StatusReport untimed;
  untimed.campaign = "tiny";
  untimed.sweeps.push_back({"alpha", 2, 2, 8, 0.0, 0});
  std::ostringstream os2;
  campaign::render_status_json(untimed, os2);
  EXPECT_EQ(os2.str(), R"({
  "campaign": "tiny",
  "complete": true,
  "shards_done": 2,
  "shards_total": 2,
  "shards_leased": 0,
  "shards_timed": 0,
  "wall_seconds": 0,
  "shards_per_second": null,
  "eta_seconds": null,
  "sweeps": [
    {
      "name": "alpha",
      "shards_done": 2,
      "shards_total": 2,
      "shards_leased": 0,
      "instances_total": 8,
      "shards_timed": 0,
      "wall_seconds": 0
    }
  ]
}
)");
  // The document parses and agrees with the report's accessors.
  const auto doc = util::parse_json(os.str());
  EXPECT_EQ(doc.at("shards_per_second").as_number("sps"),
            rep.shards_per_second());
  EXPECT_EQ(doc.at("eta_seconds").as_number("eta"), rep.eta_seconds());
}

// --------------------------------------------------------------- leases --

/// Backdate a lease file so its holder looks crashed or hung.
void backdate_lease(const fs::path& lease, int seconds) {
  fs::last_write_time(lease, fs::file_time_type::clock::now() -
                                 std::chrono::seconds(seconds));
}

TEST(LeaseManager, AcquireIsExclusiveUntilReleased) {
  CampaignDir dir("lease_excl");
  campaign::LeaseManager a(dir.str(), "w1", 30.0);
  campaign::LeaseManager b(dir.str(), "w2", 30.0);
  EXPECT_TRUE(a.acquire("s", 0));
  EXPECT_FALSE(b.acquire("s", 0));  // a live foreign lease backs off
  EXPECT_TRUE(b.acquire("s", 1));   // a different shard is free
  a.release("s", 0);
  EXPECT_TRUE(b.acquire("s", 0));

  const auto held = campaign::scan_leases(dir.str(), 30.0);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held.at({"s", 0}).worker, "w2");
  EXPECT_TRUE(held.at({"s", 0}).fresh);
  b.release_all();
  EXPECT_TRUE(campaign::scan_leases(dir.str(), 30.0).empty());
}

TEST(LeaseManager, StaleLeaseIsReclaimedButHeartbeatDefendsIt) {
  CampaignDir dir("lease_stale");
  campaign::LeaseManager a(dir.str(), "w1", 30.0);
  ASSERT_TRUE(a.acquire("s", 0));
  const fs::path lease = fs::path(dir.str()) / "leases" / "s__0.lease";
  ASSERT_TRUE(fs::exists(lease));

  // Past the TTL but freshly heartbeaten: still defended.
  backdate_lease(lease, 120);
  a.heartbeat();
  campaign::LeaseManager b(dir.str(), "w2", 30.0);
  EXPECT_FALSE(b.acquire("s", 0));

  // Past the TTL with no heartbeat: the next worker reclaims it.
  backdate_lease(lease, 120);
  EXPECT_FALSE(campaign::scan_leases(dir.str(), 30.0).at({"s", 0}).fresh);
  EXPECT_TRUE(b.acquire("s", 0));
  const auto held = campaign::scan_leases(dir.str(), 30.0);
  EXPECT_EQ(held.at({"s", 0}).worker, "w2");
  EXPECT_TRUE(held.at({"s", 0}).fresh);
}

TEST(LeaseManager, DeadPidOnThisHostIsReclaimedBeforeTtl) {
  // A lease stamped by a process that no longer exists (fork a child that
  // exits immediately, reap it, reuse its pid) is reclaimable even while
  // its mtime is fresh — the crash-recovery fast path.
  CampaignDir dir("lease_pid");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);

  char host[256] = {};
  ASSERT_EQ(::gethostname(host, sizeof host - 1), 0);
  fs::create_directories(fs::path(dir.str()) / "leases");
  {
    std::ofstream os(fs::path(dir.str()) / "leases" / "s__0.lease");
    os << R"({"sweep": "s", "shard": 0, "worker": "ghost", "pid": )" << child
       << R"(, "host": ")" << host << "\"}\n";
  }
  ASSERT_FALSE(campaign::scan_leases(dir.str(), 3600.0).at({"s", 0}).fresh);
  campaign::LeaseManager b(dir.str(), "w2", 3600.0);
  EXPECT_TRUE(b.acquire("s", 0));
}

TEST(CampaignService, StatusCountsOnlyFreshLeases) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("lease_status");
  campaign::CampaignService service(spec, dir.str());
  campaign::LeaseManager held(dir.str(), "w9", 30.0);
  ASSERT_TRUE(held.acquire("tiny_random", 1));
  EXPECT_EQ(service.status(30.0).shards_leased(), 1u);
  backdate_lease(fs::path(dir.str()) / "leases" / "tiny_random__1.lease", 120);
  EXPECT_EQ(service.status(30.0).shards_leased(), 0u);
}

TEST(CampaignService, TwoWorkersShareOneCampaignByteIdentically) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());

  CampaignDir ref_dir("workers_ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions single;
  single.threads = 1;
  ASSERT_TRUE(ref.run(single).complete);
  const std::string ref_bytes = merged_bytes(ref);

  // Two workers race over one directory through per-shard leases; each
  // shard record lands in its executor's own log, and the fold merges to
  // the same bytes as the single-process run.
  CampaignDir dir("workers");
  campaign::CampaignService bind(spec, dir.str());
  auto w1 = campaign::CampaignService::open(dir.str());
  auto w2 = campaign::CampaignService::open(dir.str());
  campaign::RunSummary s1, s2;
  const auto run_worker = [](campaign::CampaignService& svc,
                             const std::string& name,
                             campaign::RunSummary& out) {
    campaign::ServiceOptions o;
    o.threads = 1;
    o.worker = name;
    out = svc.run(o);
  };
  std::thread t1(run_worker, std::ref(w1), "w1", std::ref(s1));
  std::thread t2(run_worker, std::ref(w2), "w2", std::ref(s2));
  t1.join();
  t2.join();
  EXPECT_TRUE(s1.complete);
  EXPECT_TRUE(s2.complete);
  EXPECT_GE(s1.shards_executed + s2.shards_executed, 3u);
  EXPECT_EQ(merged_bytes(w1), ref_bytes);
  EXPECT_TRUE(campaign::scan_leases(dir.str(), 30.0).empty());

  const auto status = campaign::CampaignService::open(dir.str()).status();
  EXPECT_EQ(status.shards_done(), 3u);
}

TEST(CampaignService, BlockedWorkerRescansSoonAfterTheLeaseIsReleased) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("workers_release");
  campaign::CampaignService bind(spec, dir.str());

  // The test holds shard 0; the worker runs shards 1 and 2, then waits on
  // the held lease.  At the default 30 s TTL that wait may last ttl/3 =
  // 10 s, but a released lease must end it within a tick.
  campaign::LeaseManager holder(dir.str(), "holder", 30.0);
  ASSERT_TRUE(holder.acquire("tiny_random", 0));
  auto worker = campaign::CampaignService::open(dir.str());
  campaign::RunSummary summary;
  std::thread t([&] {
    campaign::ServiceOptions o;
    o.threads = 1;
    o.worker = "w1";
    summary = worker.run(o);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (bind.status().shards_done() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Let the worker's rescan find shard 0 still leased and start waiting.
  // Releasing earlier would only make the test pass without a wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto released = std::chrono::steady_clock::now();
  holder.release("tiny_random", 0);
  t.join();
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - released)
          .count();
  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.shards_executed, 3u);
  EXPECT_LT(took, 2.0) << "the blocked worker kept waiting after the release";
}

TEST(CampaignService, WorkerReclaimsACrashedWorkersStaleLease) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("workers_crash");
  campaign::CampaignService service(spec, dir.str());

  // A worker died holding shard 0: its lease file survives, stale.
  {
    campaign::LeaseManager ghost(dir.str(), "ghost", 30.0);
    ASSERT_TRUE(ghost.acquire("tiny_random", 0));
    backdate_lease(fs::path(dir.str()) / "leases" / "tiny_random__0.lease", 120);

    auto worker = campaign::CampaignService::open(dir.str());
    campaign::ServiceOptions o;
    o.threads = 1;
    o.worker = "w1";
    o.lease_ttl = 30.0;
    const auto s = worker.run(o);
    EXPECT_TRUE(s.complete);
    EXPECT_EQ(s.shards_executed, 3u);  // the leased shard was reclaimed
  }

  // The single-worker reference is byte-identical.
  CampaignDir ref_dir("workers_crash_ref");
  campaign::CampaignService ref(spec, ref_dir.str());
  campaign::ServiceOptions single;
  single.threads = 1;
  ASSERT_TRUE(ref.run(single).complete);
  EXPECT_EQ(merged_bytes(campaign::CampaignService::open(dir.str())),
            merged_bytes(ref));
}

TEST(CampaignService, ManifestCheckpointsProgress) {
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  CampaignDir dir("manifest");
  campaign::CampaignService service(spec, dir.str());
  campaign::ServiceOptions opt;
  opt.threads = 1;
  opt.checkpoint_every = 1;
  ASSERT_TRUE(service.run(opt).complete);
  const auto manifest = service.store().read_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->campaign, "tiny");
  EXPECT_EQ(manifest->shards_total, 3u);
  EXPECT_EQ(manifest->shards_done, 3u);
}

}  // namespace
