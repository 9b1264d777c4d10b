// spgcmp_campaign — sharded, resumable sweep campaign daemon.
//
//   spgcmp_campaign run    --spec=FILE|paper --dir=DIR [--threads=N]
//                          [--max-shards=K] [--workers=N] [--worker=ID]
//                          [--lease-ttl=SECONDS]
//   spgcmp_campaign resume --dir=DIR [--threads=N] [--max-shards=K]
//                          [--worker=ID] [--lease-ttl=SECONDS]
//   spgcmp_campaign status --dir=DIR [--json]
//   spgcmp_campaign watch  --dir=DIR [--json] [--interval=SECONDS]
//   spgcmp_campaign merge  --dir=DIR [--out=DIR]
// All subcommands accept --trace=FILE / --metrics=FILE (REPRO_TRACE /
// REPRO_METRICS) to record a Chrome trace-event timeline and a metrics
// snapshot for the invocation.
//
// Multi-worker campaigns: `run --workers=N` (POSIX) forks N worker
// processes sharing the campaign directory; each claims shards through
// per-shard lease files (src/campaign/lease.hpp) and appends to its own
// shards-<worker>.jsonl, so the merged output is byte-identical to a
// single-process run.  A worker killed mid-shard leaves a lease that
// expires after --lease-ttl seconds (default 30) and is reclaimed by a
// surviving worker.  Independently launched processes join the same
// campaign with `run`/`resume --worker=ID` (unique ID per process).
//
// `watch` polls the campaign until it completes: every --interval seconds
// it reports shards done/leased/pending plus throughput and ETA (--json
// emits one render_status_json document per tick), exits 0 on completion
// and 3 when interrupted by SIGINT/SIGTERM.
//
// `run` binds a campaign spec to a directory and executes its shards in
// deterministic order, appending each finished shard to <dir>/shards.jsonl
// and checkpointing <dir>/MANIFEST.json.  A killed campaign (or one
// stopped early with --max-shards=K) is continued by `resume`, which
// re-executes nothing that already completed.  `merge` folds the shard log
// into the same BENCH_<name>.json documents bench/run_all writes —
// byte-identically, at any thread count, interrupted or not.
//
// `--spec=paper` selects the built-in paper reproduction grid (figs 8-13,
// tables 2-3); it honours the run_all knobs --apps/--apps150/--step/
// --step150/--topology (and their REPRO_* environment fallbacks).
// `--heuristics=L` (a solver-registry list, e.g. random,dpa2d1d) overrides
// every sweep's solver subset at `run` time; `--list-solvers` prints the
// registry.
//
// `status` reports progress plus throughput (shards/sec over the persisted
// per-shard wall timings, which add up to each run's elapsed time) and an
// ETA; `status --json` emits the same data
// as one stable JSON document for machine consumers (render_status_json —
// golden-tested, so its shape is part of this tool's contract).
//
// Exit codes: 0 = requested work done, 1 = error, 2 = usage or unknown
// solver/topology/spec key (with the matching listing; see tool_common.hpp),
// 3 = run/resume stopped early with shards still pending — either the
// --max-shards quantum was reached or a SIGINT/SIGTERM paused the run
// (no shard opens, the open ones finish and persist, the manifest is
// checkpointed and fsynced;
// a second signal hard-kills, which torn-tail recovery survives).
// `status` mirrors that convention: 0 when the campaign is complete, 3
// while shards are still pending, so schedulers can poll it directly.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <cerrno>
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/service.hpp"
#include "obs/obs.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/stop_signal.hpp"
#include "util/table.hpp"

namespace {

using namespace spgcmp;

int usage() {
  std::fprintf(stderr,
               "usage: spgcmp_campaign <run|resume|status|watch|merge> [--key=value ...]\n"
               "  run    --spec=FILE|paper --dir=DIR [--threads=N] [--max-shards=K]\n"
               "         [--heuristics=random,dpa2d1d,...] [--workers=N]\n"
               "         [--worker=ID] [--lease-ttl=SECONDS]\n"
               "  resume --dir=DIR [--threads=N] [--max-shards=K] [--worker=ID]\n"
               "         [--lease-ttl=SECONDS]\n"
               "  status --dir=DIR [--json]   (exit 0 complete, 3 pending)\n"
               "  watch  --dir=DIR [--json] [--interval=SECONDS]  (exit 0 when done)\n"
               "  merge  --dir=DIR [--out=DIR]\n"
               "  --workers=N forks N lease-coordinated workers over one --dir;\n"
               "  --worker=ID joins a shared campaign from an independent process\n"
               "  --trace=FILE / --metrics=FILE record a Chrome trace / metrics\n"
               "  --list-solvers lists the solver registry\n"
               "see the header of tools/spgcmp_campaign.cpp for details\n");
  return 2;
}

std::string dir_arg(const util::Args& args) {
  const auto dir = args.get("dir");
  if (!dir || dir->empty()) throw std::runtime_error("missing --dir=<directory>");
  return *dir;
}

campaign::ServiceOptions service_options(const util::Args& args) {
  campaign::ServiceOptions opt;
  opt.threads =
      static_cast<std::size_t>(args.get_int("threads", "REPRO_THREADS", 0));
  opt.max_shards = static_cast<std::size_t>(args.get_int("max-shards", "", 0));
  opt.log = &std::cout;
  // An explicit --worker=ID joins a lease-coordinated shared campaign
  // from an independently launched process.
  opt.worker = args.get_string("worker", "", "");
  opt.lease_ttl = args.get_double("lease-ttl", "", 30.0);
  // Graceful pause on SIGINT/SIGTERM: no shard opens, the open ones finish
  // and are persisted, the manifest is checkpointed, and the tool exits 3 — resume
  // continues with zero re-execution.  A second signal hard-kills (the
  // torn-JSONL-tail recovery covers that path).
  util::install_stop_handlers();
  opt.stop = &util::stop_flag();
  return opt;
}

campaign::CampaignSpec load_spec(const util::Args& args) {
  const auto spec = args.get("spec");
  if (!spec || spec->empty()) {
    throw std::runtime_error("missing --spec=<file> (or --spec=paper)");
  }
  if (*spec == "paper") return tools::paper_spec(args);
  std::ifstream is(*spec);
  if (!is) throw std::runtime_error("cannot open spec file " + *spec);
  return campaign::CampaignSpec::parse(is);
}

int finish_run(const campaign::RunSummary& summary) {
  if (summary.complete) {
    std::printf("campaign complete: %zu shards\n", summary.shards_total);
    return 0;
  }
  std::printf("campaign %s with %zu/%zu shards done; resume to continue\n",
              summary.interrupted ? "paused" : "stopped",
              summary.shards_skipped + summary.shards_executed,
              summary.shards_total);
  return 3;
}

/// `run --workers=N`: fork N lease-coordinated workers over one campaign
/// directory.  The parent binds the spec before forking (one init, one
/// diagnostic), forwards SIGINT/SIGTERM to the children, and reports
/// completion from the store afterwards — so a worker crashing (or being
/// kill -9'd to test reclamation) never fails the run as long as the
/// survivors finish the campaign.
int run_workers(const util::Args& args, const std::string& dir,
                std::size_t workers) {
  std::vector<pid_t> kids;
  kids.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const pid_t kid : kids) ::kill(kid, SIGTERM);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      int code = 1;
      try {
        auto service = campaign::CampaignService::open(dir);
        auto opt = service_options(args);
        opt.worker = "w";
        opt.worker += std::to_string(i + 1);
        const auto summary = service.run(opt);
        code = summary.complete ? 0 : 3;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[campaign] worker w%zu: %s\n", i + 1, e.what());
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    kids.push_back(pid);
  }

  util::install_stop_handlers();
  const std::atomic<bool>& stop = util::stop_flag();
  bool forwarded = false;
  int worst = 0;  // only real errors (1/2) propagate; 3 is resolved below
  std::size_t remaining = kids.size();
  while (remaining > 0) {
    int status = 0;
    const pid_t r = ::waitpid(-1, &status, 0);
    if (r < 0) {
      if (errno == EINTR) {
        if (stop.load(std::memory_order_relaxed) && !forwarded) {
          for (const pid_t kid : kids) ::kill(kid, SIGTERM);
          forwarded = true;
        }
        continue;
      }
      break;
    }
    if (std::find(kids.begin(), kids.end(), r) == kids.end()) continue;
    --remaining;
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 1 || code == 2) worst = std::max(worst, code);
    } else if (WIFSIGNALED(status)) {
      // A hard-killed worker is survivable: its leases expire and the
      // other workers reclaim the shards.
      std::fprintf(stderr, "[campaign] a worker died on signal %d\n",
                   WTERMSIG(status));
    }
  }
  if (worst != 0) return worst;

  // Completion truth comes from the shard logs, not the exit codes.
  const auto service = campaign::CampaignService::open(dir);
  const auto rep = service.status(args.get_double("lease-ttl", "", 30.0));
  campaign::RunSummary summary;
  summary.shards_total = rep.shards_total();
  summary.shards_skipped = rep.shards_done();
  summary.complete = rep.shards_done() == rep.shards_total();
  summary.interrupted = stop.load(std::memory_order_relaxed);
  return finish_run(summary);
}

int cmd_run(const util::Args& args) {
  auto spec = load_spec(args);
  tools::apply_solver_override(args, spec);
  const std::string dir = dir_arg(args);
  const auto workers =
      static_cast<std::size_t>(args.get_int("workers", "", 0));
  if (workers > 1) {
    // Bind the spec to the directory once, before any fork.
    campaign::CampaignService service(std::move(spec), dir);
    return run_workers(args, dir, workers);
  }
  campaign::CampaignService service(std::move(spec), dir);
  return finish_run(service.run(service_options(args)));
}

int cmd_resume(const util::Args& args) {
  auto service = campaign::CampaignService::open(dir_arg(args));
  return finish_run(service.run(service_options(args)));
}

int cmd_status(const util::Args& args) {
  const auto service = campaign::CampaignService::open(dir_arg(args));
  const auto rep = service.status(args.get_double("lease-ttl", "", 30.0));
  const bool complete = rep.shards_done() == rep.shards_total();
  if (args.has("json")) {
    campaign::render_status_json(rep, std::cout);
    return complete ? 0 : 3;
  }
  std::printf("campaign: %s\n", rep.campaign.c_str());
  util::Table t({"sweep", "shards", "instances", "state"});
  for (const auto& s : rep.sweeps) {
    std::string state = s.shards_done == s.shards_total ? "done" : "pending";
    if (s.shards_leased > 0) {
      state += " (" + std::to_string(s.shards_leased) + " leased)";
    }
    t.add_row({s.name, std::to_string(s.shards_done) + "/" +
                           std::to_string(s.shards_total),
               std::to_string(s.instances_total), state});
  }
  t.print(std::cout);
  std::printf("total: %zu/%zu shards\n", rep.shards_done(), rep.shards_total());
  if (rep.shards_leased() > 0) {
    std::printf("leased: %zu shards claimed by live workers\n",
                rep.shards_leased());
  }
  if (rep.shards_timed() > 0) {
    std::printf("throughput: %.3f shards/sec over %zu timed shards (%.1f s)\n",
                rep.shards_per_second(), rep.shards_timed(),
                rep.wall_seconds());
    if (!complete) std::printf("eta: %.1f s\n", rep.eta_seconds());
  }
  return complete ? 0 : 3;
}

/// `watch`: poll the campaign until complete (exit 0) or interrupted
/// (exit 3).  One progress line (or --json document) per tick.
int cmd_watch(const util::Args& args) {
  const auto service = campaign::CampaignService::open(dir_arg(args));
  util::install_stop_handlers();
  const std::atomic<bool>& stop = util::stop_flag();
  const double interval =
      std::max(args.get_double("interval", "", 2.0), 0.05);
  const double ttl = args.get_double("lease-ttl", "", 30.0);
  const bool json = args.has("json");
  const bool tty = !json && ::isatty(STDOUT_FILENO) != 0;
  while (true) {
    const auto rep = service.status(ttl);
    const std::size_t done = rep.shards_done();
    const std::size_t total = rep.shards_total();
    const std::size_t leased = rep.shards_leased();
    const bool complete = done == total;
    if (json) {
      campaign::render_status_json(rep, std::cout);
      std::cout.flush();
    } else {
      std::printf("%s[watch] %s: %zu/%zu shards done, %zu leased, %zu pending",
                  tty ? "\r\033[K" : "", rep.campaign.c_str(), done, total,
                  leased, total - done - leased);
      if (rep.shards_timed() > 0) {
        std::printf(" | %.3f shards/s", rep.shards_per_second());
        if (!complete && rep.eta_seconds() >= 0.0) {
          std::printf(" | eta %.1f s", rep.eta_seconds());
        }
      }
      if (!tty || complete) std::printf("\n");
      std::fflush(stdout);
    }
    if (complete) return 0;
    // Stop-aware sleep between polls.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(interval);
    while (std::chrono::steady_clock::now() < deadline) {
      if (stop.load(std::memory_order_relaxed)) {
        if (tty) std::printf("\n");
        return 3;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

int cmd_merge(const util::Args& args) {
  const auto service = campaign::CampaignService::open(dir_arg(args));
  const std::string out = args.get_string("out", "REPRO_OUT", ".");
  for (const auto& path : service.merge(out)) {
    std::printf("[json] %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  return tools::run_tool("spgcmp_campaign", [&]() -> int {
    const util::Args args(argc, argv,
                          {"spec", "dir", "threads", "max-shards", "workers", "worker",
                           "lease-ttl", "apps", "apps150", "step", "step150",
                           "topology", "json", "interval", "out", "heuristics",
                           "list-solvers", "trace", "metrics"});
    const auto obs_files = obs::ScopedFiles::from_args(args);
    if (tools::handle_list_solvers(args)) return 0;
    if (cmd == "run") return cmd_run(args);
    if (cmd == "resume") return cmd_resume(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "watch") return cmd_watch(args);
    if (cmd == "merge") return cmd_merge(args);
    return usage();
  });
}
