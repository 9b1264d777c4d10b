#include "campaign/store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fsync.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"

namespace spgcmp::campaign {

namespace fs = std::filesystem;

CampaignStore::CampaignStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) throw std::invalid_argument("campaign directory is empty");
}

std::string CampaignStore::spec_path() const { return dir_ + "/spec.campaign"; }
std::string CampaignStore::shards_path() const { return dir_ + "/shards.jsonl"; }
std::string CampaignStore::manifest_path() const { return dir_ + "/MANIFEST.json"; }

void CampaignStore::set_worker(const std::string& worker) {
  std::string safe = worker;
  for (char& c : safe) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  worker_ = safe;
}

std::string CampaignStore::append_path() const {
  if (worker_.empty()) return shards_path();
  return dir_ + "/shards-" + worker_ + ".jsonl";
}

bool CampaignStore::initialized() const { return fs::exists(spec_path()); }

void CampaignStore::initialize(const CampaignSpec& spec) {
  fs::create_directories(dir_);
  const std::string text = spec.to_text();
  if (initialized()) {
    std::ifstream is(spec_path());
    std::ostringstream existing;
    existing << is.rdbuf();
    if (existing.str() != text) {
      throw std::runtime_error(dir_ +
                               ": already holds a different campaign spec; "
                               "use a fresh directory or resume without --spec");
    }
    return;  // same spec: idempotent init, keep completed shards
  }
  // Installed durably through a per-writer temp: N workers initializing
  // the same directory concurrently each install a complete spec (same
  // bytes — they parsed the same input), and no reader ever sees a
  // half-written one.
  util::write_file_durable(spec_path(), text);
}

CampaignSpec CampaignStore::load_spec() const {
  std::ifstream is(spec_path());
  if (!is) {
    throw std::runtime_error(dir_ + ": not an initialized campaign directory (" +
                             spec_path() + " missing)");
  }
  return CampaignSpec::parse(is);
}

CampaignStore::ShardMap CampaignStore::load_shards() const {
  // The shared log first, then every worker log in sorted order: a fixed
  // read order plus keep-first dedup makes the loaded map deterministic
  // for any interleaving of workers (duplicate records are deterministic
  // replays of the same instances anyway).
  std::vector<std::string> logs{shards_path()};
  {
    std::error_code ec;
    std::vector<std::string> worker_logs;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 13 && name.rfind("shards-", 0) == 0 &&
          name.substr(name.size() - 6) == ".jsonl") {
        worker_logs.push_back(entry.path().string());
      }
    }
    std::sort(worker_logs.begin(), worker_logs.end());
    logs.insert(logs.end(), worker_logs.begin(), worker_logs.end());
  }

  ShardMap shards;
  for (const auto& log_path : logs) {
    load_shard_log(log_path, shards);
  }
  return shards;
}

void CampaignStore::load_shard_log(const std::string& path,
                                   ShardMap& shards) const {
  for (const auto& rec : util::read_jsonl(path)) {
    const std::string& sweep = rec.at("sweep").as_string("shard record 'sweep'");
    const auto shard =
        static_cast<std::size_t>(rec.at("shard").as_number("shard record 'shard'"));
    ShardRecord record;
    // Optional: logs written before shard timing existed lack the field.
    if (const auto* wall = rec.find("wall_seconds"); wall != nullptr) {
      record.wall_seconds = wall->as_number("shard record 'wall_seconds'");
    }
    std::vector<InstanceResult>& results = record.results;
    for (const auto& inst : rec.at("instances").as_array("shard record 'instances'")) {
      InstanceResult r;
      r.period = inst.at("period").as_number("instance 'period'");
      for (const auto& e : inst.at("energy").as_array("instance 'energy'")) {
        r.energy.push_back(e.as_number("instance 'energy' entry"));
      }
      for (const auto& s : inst.at("success").as_array("instance 'success'")) {
        r.success.push_back(s.as_number("instance 'success' entry") != 0.0);
      }
      if (r.success.size() != r.energy.size()) {
        throw std::runtime_error(path + ": instance arity mismatch in '" +
                                 sweep + "' shard " + std::to_string(shard));
      }
      results.push_back(std::move(r));
    }
    shards.emplace(std::make_pair(sweep, shard), std::move(record));
  }
}

void CampaignStore::append_shard(const std::string& sweep, std::size_t shard,
                                 const std::vector<InstanceResult>& results,
                                 double wall_seconds) {
  util::JsonlWriter log(append_path());
  log.append([&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("sweep", sweep);
    w.kv("shard", static_cast<std::uint64_t>(shard));
    if (wall_seconds >= 0.0) w.kv("wall_seconds", wall_seconds);
    w.key("instances");
    w.begin_array();
    for (const auto& r : results) {
      w.begin_object();
      w.kv("period", r.period);
      w.key("energy");
      w.value(r.energy);
      w.key("success");
      {
        std::vector<std::size_t> flags(r.success.begin(), r.success.end());
        w.value(flags);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

void CampaignStore::write_manifest(const Manifest& m) const {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("campaign", m.campaign);
  w.kv("shards_total", static_cast<std::uint64_t>(m.shards_total));
  w.kv("shards_done", static_cast<std::uint64_t>(m.shards_done));
  w.kv("wall_seconds_done", m.wall_seconds_done);
  w.end_object();
  // Per-writer temp: concurrent leased workers (threads or processes)
  // checkpoint the manifest independently, and a crash leaves either the
  // old or the new manifest, never a torn or vanished one.
  util::write_file_durable(manifest_path(), os.str());
}

std::optional<CampaignStore::Manifest> CampaignStore::read_manifest() const {
  std::ifstream is(manifest_path());
  if (!is) return std::nullopt;
  std::ostringstream text;
  text << is.rdbuf();
  const util::JsonValue doc = util::parse_json(text.str());
  Manifest m;
  m.campaign = doc.at("campaign").as_string("manifest 'campaign'");
  m.shards_total = static_cast<std::size_t>(
      doc.at("shards_total").as_number("manifest 'shards_total'"));
  m.shards_done = static_cast<std::size_t>(
      doc.at("shards_done").as_number("manifest 'shards_done'"));
  // Optional: manifests written before shard timing existed lack it.
  if (const auto* wall = doc.find("wall_seconds_done"); wall != nullptr) {
    m.wall_seconds_done = wall->as_number("manifest 'wall_seconds_done'");
  }
  return m;
}

}  // namespace spgcmp::campaign
