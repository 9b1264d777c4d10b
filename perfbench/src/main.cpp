// spgbench: runs one workload of the spgcmp benchmark and prints its raw
// measurements as one JSON document on stdout (progress goes to stderr).
//
//   spgbench --workload=paper_grid|paper_campaign|serve_replay --seed=N
//            --seconds=N --trace=0|1 --threads=N --clients=N
//            --apps=N --apps150=N --step=N --step150=N
//            --cold=N --hot=N --oneshot=0|1 --tamper-hit=I
//
// Every flag is required.  perfbench/run.py builds and drives it, and owns
// the defaults and range checks; see perfbench/README.md.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error.

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/canonical.hpp"

namespace spgbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double since_us(double origin_s) { return (now_s() - origin_s) * 1e6; }

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- Ledger --

void Ledger::fail(std::string why) {
  ++failed;
  if (failures.size() < 10) failures.push_back(std::move(why));
}

void Ledger::emit(JsonWriter& out) const {
  out.kv("attempted", attempted);
  out.kv("failed", failed);
  out.kv("failures", failures);
  out.kv("notes", notes);
}

// ------------------------------------------------------------- counters --

std::vector<std::pair<std::string, std::uint64_t>> counters() {
  const auto values = spgcmp::obs::Registry::instance().counter_values();
  return {values.begin(), values.end()};
}

std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, v] : after) {
    std::uint64_t base = 0;
    for (const auto& [bn, bv] : before) {
      if (bn == name) base = bv;
    }
    out.emplace_back(name, v - base);
  }
  return out;
}

void emit_counters(JsonWriter& out, std::string_view key,
                   const std::vector<std::pair<std::string, std::uint64_t>>& c) {
  out.key(key);
  out.begin_object();
  for (const auto& [name, v] : c) out.kv(name, v);
  out.end_object();
}

std::string digest(std::string_view bytes) {
  return spgcmp::serve::key_digest(bytes);
}

double trace_begin() {
  const double t0 = now_s();
  spgcmp::obs::trace_start();
  return t0;
}

std::string trace_path(std::size_t pass) {
  return "trace-" + std::to_string(pass) + ".json";
}

void trace_end(const std::string& path) {
  std::ofstream os(path);
  spgcmp::obs::trace_stop(os);
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

// -------------------------------------------------------------- Schedule --

Schedule::Schedule(const Options& opt)
    : trace_(opt.trace), seconds_(opt.seconds), start_(now_s()) {}

bool Schedule::next(bool& traced) {
  // Stop once another pass would end more than half a pass past the
  // deadline, so a run lasts about `seconds` whatever a pass costs.
  const double elapsed = now_s() - start_;
  const std::size_t min_passes = trace_ ? 2 : 1;
  if (done_ >= min_passes && elapsed + 0.5 * elapsed / done_ >= seconds_) {
    return false;
  }
  traced = trace_ && done_ % 2 == 1;
  ++done_;
  return true;
}

}  // namespace spgbench

namespace {

using spgbench::Options;

// Every option is required (see Options).
const char* const kOptions[] = {"workload", "seed",    "seconds", "trace",
                                "threads",  "clients", "apps",    "apps150",
                                "step",     "step150", "cold",    "hot",
                                "oneshot",  "tamper-hit"};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why);
}

template <typename T>
T parse_int(const std::string& key, const std::string& v) {
  T out{};
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || p != v.data() + v.size()) {
    usage("--" + key + ": expected an integer, got '" + v + "'");
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    if (key == "workload") opt.workload = v;
    else if (key == "seed") opt.seed = parse_int<std::uint64_t>(key, v);
    else if (key == "seconds") opt.seconds = parse_int<unsigned>(key, v);
    else if (key == "trace") opt.trace = parse_int<int>(key, v) != 0;
    else if (key == "threads") opt.threads = parse_int<std::size_t>(key, v);
    else if (key == "clients") opt.clients = parse_int<std::size_t>(key, v);
    else if (key == "apps") opt.apps = parse_int<std::size_t>(key, v);
    else if (key == "apps150") opt.apps150 = parse_int<std::size_t>(key, v);
    else if (key == "step") opt.step = parse_int<int>(key, v);
    else if (key == "step150") opt.step150 = parse_int<int>(key, v);
    else if (key == "cold") opt.cold = parse_int<std::size_t>(key, v);
    else if (key == "hot") opt.hot = parse_int<std::size_t>(key, v);
    else if (key == "oneshot") opt.oneshot = parse_int<int>(key, v) != 0;
    else if (key == "tamper-hit") opt.tamper_hit = parse_int<long long>(key, v);
    else usage("unknown option --" + key);
    given.insert(key);
  }
  for (const char* key : kOptions) {
    if (given.count(key) == 0) usage(std::string("missing --") + key);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spgbench: " << e.what() << "\n";
    return 2;
  }

  std::ostringstream doc;
  spgbench::JsonWriter out(doc, -1);
  spgbench::Ledger ledger;
  out.begin_object();
  out.kv("workload", opt.workload);
  out.kv("seed", opt.seed);
  out.kv("threads", opt.threads);
  out.kv("clients", opt.clients);
  out.kv("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  out.kv("compiler", SPGBENCH_COMPILER);
  out.kv("build_type", SPGBENCH_BUILD_TYPE);
  const auto run = opt.workload == "paper_grid"       ? spgbench::run_paper_grid
                   : opt.workload == "paper_campaign" ? spgbench::run_paper_campaign
                   : opt.workload == "serve_replay"   ? spgbench::run_serve_replay
                                                      : nullptr;
  if (run == nullptr) {
    std::cerr << "spgbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  try {
    // Written apart and spliced whole, so an aborted run leaves no
    // half-written member behind.
    std::ostringstream data_doc;
    spgbench::JsonWriter data(data_doc, -1);
    data.begin_object();
    run(opt, data, ledger);
    data.end_object();
    out.key("data");
    out.raw(data_doc.str());
  } catch (const std::exception& e) {
    // An exception aborts the run: count it as a failed operation so the
    // result can never read as clean.
    ++ledger.attempted;
    ledger.fail(std::string("exception: ") + e.what());
  }
  out.kv("peak_rss_mb", spgbench::peak_rss_mb());
  ledger.emit(out);
  out.end_object();
  std::cout << doc.str() << "\n";
  return ledger.failed == 0 ? 0 : 1;
}
