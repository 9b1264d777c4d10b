#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/canonical.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "util/rng.hpp"

namespace spgcmp::serve {

namespace {

using util::JsonValue;

/// Largest grid side a request may ask for.  Every request, hit or miss,
/// builds its platform's route table: (rows*cols)^2 routes of up to
/// rows + cols hops, so time and memory grow as side^5 (34 ms at 16x16,
/// ~11 GB at 64x64).
constexpr std::size_t kMaxGridSide = 16;
/// Most stages (and so largest elevation) a generated graph may have.
/// Explicit `spg` text is bounded by the frame cap; a generator request
/// is a few bytes whatever its n.
constexpr std::size_t kMaxGeneratedStages = 10000;

/// `doc.key` as an integer in [lo, hi]; RequestError on anything else.
std::size_t integral_member(const JsonValue& obj, std::string_view key,
                            std::size_t lo, std::size_t hi = 1'000'000'000'000) {
  const double v = obj.at(key).as_number("request '" + std::string(key) + "'");
  if (!(v >= static_cast<double>(lo)) || v != std::floor(v) ||
      v > static_cast<double>(hi)) {
    // Appended rather than operator+ chained: GCC 12's -Wrestrict
    // false-positives on literal + std::to_string concatenations at -O2.
    std::string msg = "request '";
    msg += key;
    msg += "': expected an integer in [";
    msg += std::to_string(lo);
    msg += ", ";
    msg += std::to_string(hi);
    msg += ']';
    throw RequestError(msg);
  }
  return static_cast<std::size_t>(v);
}

void check_keys(const JsonValue& obj, std::string_view what,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [k, v] : obj.object) {
    bool known = false;
    for (const auto a : allowed) known = known || k == a;
    if (!known) {
      throw RequestError(std::string(what) + ": unknown member '" + k + "'");
    }
  }
}

spg::Spg build_spg(const JsonValue& doc) {
  const JsonValue* text = doc.find("spg");
  const JsonValue* gen = doc.find("generator");
  const JsonValue* streamit = doc.find("streamit");
  const int sources = (text != nullptr) + (gen != nullptr) + (streamit != nullptr);
  if (sources != 1) {
    throw RequestError(
        "request must carry exactly one of 'spg', 'generator' or 'streamit'");
  }

  if (text != nullptr) {
    std::istringstream is(text->as_string("request 'spg'"));
    spg::Spg g;
    try {
      g = spg::Spg::parse(is);
    } catch (const std::exception& e) {
      throw RequestError(std::string("request 'spg': ") + e.what());
    }
    if (const auto err = g.validate()) {
      throw RequestError("request 'spg': invalid graph: " + *err);
    }
    return g;
  }

  if (gen != nullptr) {
    if (gen->type != JsonValue::Type::Object) {
      throw RequestError("request 'generator': expected an object");
    }
    check_keys(*gen, "request 'generator'", {"n", "ymax", "seed", "ccr"});
    const std::size_t n = integral_member(*gen, "n", 1, kMaxGeneratedStages);
    const std::uint64_t seed =
        gen->find("seed") != nullptr
            ? static_cast<std::uint64_t>(integral_member(*gen, "seed", 0))
            : 1;
    util::Rng rng(seed);
    spg::Spg g;
    try {
      if (gen->find("ymax") != nullptr) {
        g = spg::random_spg(
            n, static_cast<int>(integral_member(*gen, "ymax", 1, kMaxGeneratedStages)),
            rng);
      } else {
        g = spg::random_spg_free(n, rng);
      }
    } catch (const std::exception& e) {
      throw RequestError(std::string("request 'generator': ") + e.what());
    }
    if (const JsonValue* ccr = gen->find("ccr")) {
      const double target = ccr->as_number("request 'generator.ccr'");
      if (!(target > 0.0) || !std::isfinite(target)) {
        throw RequestError("request 'generator.ccr': expected a finite value > 0");
      }
      g.rescale_ccr(target);
    }
    return g;
  }

  // streamit: a bare Table-1 index, or {"index": i, "ccr": x}.
  const std::size_t apps = spg::streamit_table().size();
  int index = 0;
  double ccr = 0.0;
  if (streamit->type == JsonValue::Type::Object) {
    check_keys(*streamit, "request 'streamit'", {"index", "ccr"});
    index = static_cast<int>(integral_member(*streamit, "index", 1, apps));
    if (const JsonValue* c = streamit->find("ccr")) {
      ccr = c->as_number("request 'streamit.ccr'");
    }
  } else {
    index = static_cast<int>(integral_member(doc, "streamit", 1, apps));
  }
  try {
    return spg::make_streamit(index, ccr);
  } catch (const std::exception& e) {
    throw RequestError(std::string("request 'streamit': ") + e.what());
  }
}

cmp::Platform build_platform(const JsonValue& doc) {
  const JsonValue* topo = doc.find("topology");
  if (topo == nullptr) return cmp::Platform::reference(4, 4);
  if (topo->type != JsonValue::Type::Object) {
    throw RequestError("request 'topology': expected an object");
  }
  check_keys(*topo, "request 'topology'", {"name", "rows", "cols"});
  std::string name = "mesh";
  if (const JsonValue* n = topo->find("name")) {
    name = n->as_string("request 'topology.name'");
  }
  const int rows = static_cast<int>(integral_member(*topo, "rows", 1, kMaxGridSide));
  const int cols = static_cast<int>(integral_member(*topo, "cols", 1, kMaxGridSide));
  // Propagates TopologyError on unknown names (answered with code 2 and
  // the same message the CLIs print).
  return cmp::Platform::reference(name, rows, cols);
}

/// Append `v` re-rendered compactly with object members stable-sorted by
/// key (top-level "id" members dropped when `top`); false on a non-finite
/// number.
bool append_alias(const JsonValue& v, bool top, std::string& out) {
  switch (v.type) {
    case JsonValue::Type::Null: out += "null"; return true;
    case JsonValue::Type::Bool: out += v.boolean ? "true" : "false"; return true;
    case JsonValue::Type::Number:
      if (!std::isfinite(v.number)) return false;
      out += util::json_number(v.number);
      return true;
    case JsonValue::Type::String:
      out += '"';
      out += util::json_escape(v.string);
      out += '"';
      return true;
    case JsonValue::Type::Array:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ',';
        if (!append_alias(v.array[i], false, out)) return false;
      }
      out += ']';
      return true;
    case JsonValue::Type::Object: break;
  }
  std::vector<const std::pair<std::string, JsonValue>*> members;
  members.reserve(v.object.size());
  for (const auto& m : v.object) {
    if (!top || m.first != "id") members.push_back(&m);
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const auto* a, const auto* b) { return a->first < b->first; });
  out += '{';
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += util::json_escape(members[i]->first);
    out += "\":";
    if (!append_alias(members[i]->second, false, out)) return false;
  }
  out += '}';
  return true;
}

Request parse_request_impl(const JsonValue& doc) {
  if (doc.type != JsonValue::Type::Object) {
    throw RequestError("request: expected a JSON object");
  }
  check_keys(doc, "request",
             {"id", "spg", "generator", "streamit", "topology", "solver",
              "options", "period"});

  std::string spec = doc.at("solver").as_string("request 'solver'");
  if (const JsonValue* options = doc.find("options")) {
    const std::string& text = options->as_string("request 'options'");
    if (spec.find('(') != std::string::npos) {
      throw RequestError(
          "request 'options' requires a bare solver name (put the options "
          "either inline in 'solver' or here, not both)");
    }
    spec += "(" + text + ")";
  }

  const double period = doc.at("period").as_number("request 'period'");
  if (!(period > 0.0) || !std::isfinite(period)) {
    throw RequestError("request 'period': expected a finite value > 0");
  }

  Request req{request_id(doc), build_spg(doc), build_platform(doc),
              normalize_solver_spec(spec), period, std::string()};
  req.key = compact_key(req.spg, req.platform, req.solver, req.period);
  return req;
}

}  // namespace

std::string request_alias(const JsonValue& doc) {
  std::string alias;
  if (doc.type != JsonValue::Type::Object || !append_alias(doc, true, alias)) {
    return {};
  }
  return alias;
}

std::string request_id(const JsonValue& doc) {
  const JsonValue* id = doc.find("id");
  if (id == nullptr) return "null";
  switch (id->type) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Number: return util::json_number(id->number);
    case JsonValue::Type::String: {
      // Built with append rather than operator+ chains: GCC 12's -Wrestrict
      // false-positives on `"..." + std::string(...)` in -O2 builds.
      std::string s = "\"";
      s += util::json_escape(id->string);
      s += '"';
      return s;
    }
    default:
      throw RequestError("request 'id': expected a string or number");
  }
}

Request parse_request(const JsonValue& doc) {
  try {
    return parse_request_impl(doc);
  } catch (const RequestError&) {
    throw;
  } catch (const solve::SolverError&) {
    throw;
  } catch (const std::runtime_error& e) {
    // Missing/mistyped members surface from the JsonValue accessors as
    // plain runtime_errors naming the member; they are configuration
    // mistakes, not internal failures, so classify them as RequestError
    // (code 2).  TopologyError derives from invalid_argument and passes
    // through untouched.
    throw RequestError(e.what());
  }
}

std::string render_report(const Request& req, const solve::SolveReport& report) {
  std::ostringstream os;
  {
    util::JsonWriter w(os, /*indent=*/-1);
    w.begin_object();
    w.kv("solver", req.solver);
    w.kv("success", report.result.success);
    if (report.result.success) {
      const auto& eval = report.result.eval;
      w.kv("energy", eval.energy);
      w.kv("achieved_period", eval.period);
      w.kv("active_cores", static_cast<std::int64_t>(eval.active_cores));
      w.key("core_of");
      w.begin_array();
      for (const int c : report.result.mapping.core_of) w.value(c);
      w.end_array();
      w.key("modes");
      w.value(report.result.mapping.mode_of_core);
    } else {
      w.kv("failure", report.result.failure);
    }
    w.key("evals");
    w.begin_object();
    w.kv("full", report.stats.full_evals);
    w.kv("placement", report.stats.placement_evals);
    w.kv("incremental", report.stats.incremental_evals);
    w.kv("batch", report.stats.batch_evals);
    w.kv("total", report.stats.evaluator_calls());
    w.end_object();
    w.end_object();
  }
  return os.str();
}

std::string render_ok(const std::string& id_json, std::uint64_t digest,
                      const std::string& report_payload, bool hit,
                      std::uint64_t request_evals, double wall_us) {
  std::ostringstream os;
  {
    util::JsonWriter w(os, /*indent=*/-1);
    w.begin_object();
    w.key("id");
    w.raw(id_json);
    w.kv("status", "ok");
    w.kv("cache", hit ? "hit" : "miss");
    w.kv("key", hex_digest(digest));
    w.kv("request_evals", request_evals);
    w.kv("wall_us", wall_us);
    w.key("report");
    w.raw(report_payload);
    w.end_object();
  }
  return os.str();
}

std::string render_ok(const Request& req, const std::string& report_payload,
                      bool hit, std::uint64_t request_evals, double wall_us) {
  return render_ok(req.id_json,
                   fnv1a64(canonical_key(req.spg, req.platform, req.solver,
                                         req.period)),
                   report_payload, hit, request_evals, wall_us);
}

std::string render_error(const std::string& id_json, int code,
                         const std::string& message) {
  std::ostringstream os;
  {
    util::JsonWriter w(os, /*indent=*/-1);
    w.begin_object();
    w.key("id");
    w.raw(id_json.empty() ? "null" : id_json);
    w.kv("status", "error");
    w.kv("code", static_cast<std::int64_t>(code));
    w.kv("error", message);
    w.end_object();
  }
  return os.str();
}

std::string render_stats(const std::string& id_json,
                         const std::string& stats_doc_json) {
  std::ostringstream os;
  {
    util::JsonWriter w(os, /*indent=*/-1);
    w.begin_object();
    w.key("id");
    w.raw(id_json.empty() ? "null" : id_json);
    w.kv("status", "ok");
    w.key("stats");
    w.raw(stats_doc_json);
    w.end_object();
  }
  return os.str();
}

}  // namespace spgcmp::serve
