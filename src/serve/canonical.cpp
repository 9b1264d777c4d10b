#include "serve/canonical.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "cmp/cmp.hpp"
#include "solve/options.hpp"
#include "spg/spg.hpp"
#include "util/json.hpp"

namespace spgcmp::serve {

namespace {

using solve::detail::split_depth0;
using solve::detail::trim;

/// One "name(options)" stage, normalized.  Mirrors the registry's stage
/// grammar (split at the first '(', require the trailing ')') so the
/// canonical form can never accept a spec the registry would reject.
std::string normalize_stage(std::string_view stage) {
  stage = trim(stage);
  const std::size_t paren = stage.find('(');
  if (paren == std::string_view::npos) {
    if (stage.find(')') != std::string_view::npos) {
      throw solve::SolverError("malformed solver spec '" + std::string(stage) +
                               "': stray ')'");
    }
    return std::string(stage);
  }
  if (stage.back() != ')') {
    throw solve::SolverError("malformed solver spec '" + std::string(stage) +
                             "': text after the option list (or missing ')')");
  }
  const std::string name(trim(stage.substr(0, paren)));
  const auto options = solve::SolverOptions::parse(
      name, stage.substr(paren + 1, stage.size() - paren - 2));

  auto kv = options.entries();
  std::sort(kv.begin(), kv.end());
  if (kv.empty()) return name;

  std::string out = name + "(";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) out += ",";
    out += kv[i].first + "=" + kv[i].second;
  }
  out += ")";
  return out;
}

}  // namespace

std::string normalize_solver_spec(std::string_view spec) {
  spec = trim(spec);
  if (spec.empty()) throw solve::SolverError("empty solver spec");
  const auto stages =
      split_depth0(spec, '+', "solver spec '" + std::string(spec) + "'");
  std::string out;
  for (const auto& stage : stages) {
    if (!out.empty()) out += "+";
    out += normalize_stage(stage);
  }
  return out;
}

namespace {

/// canonical_key's writer: values and separators as text.
struct TextKey {
  std::string out;
  void lit(std::string_view s) { out += s; }
  void str(std::string_view s) { out += s; }
  void count(std::uint64_t n) { out += std::to_string(n); }
  void label(int v) { out += std::to_string(v); }
  void list(std::size_t) {}  // delimited by the separators around it
  void num(double v) { out += util::json_number(v); }
};

/// compact_key's writer: no separators, strings length-prefixed, integers
/// as LEB128 varints, doubles as their 8 raw bytes.  json_number writes
/// every non-finite value as "null", so those share one bit pattern here.
struct CompactKey {
  std::string out;
  void lit(std::string_view) {}
  void str(std::string_view s) {
    count(s.size());
    out += s;
  }
  void count(std::uint64_t n) {
    for (; n >= 0x80; n >>= 7) out += static_cast<char>((n & 0x7F) | 0x80);
    out += static_cast<char>(n);
  }
  void label(int v) {  // negative labels stay distinct
    count(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void list(std::size_t n) { count(n); }
  void num(double v) {
    if (!std::isfinite(v)) v = std::numeric_limits<double>::quiet_NaN();
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    out.append(raw, sizeof raw);
  }
};

/// Write one solve's identity through `k`: the key's fields in one fixed
/// order, whichever writer formats them.
template <typename Key>
void write_key(const spg::Spg& g, const cmp::Platform& platform,
               const std::string& normalized_solver, double period, Key& k) {
  k.lit("v1;solver=");
  k.str(normalized_solver);
  k.lit(";T=");
  k.num(period);

  // Platform: topology identity plus every constant energy and speed
  // depend on.  The heterogeneous mesh's per-core scales are covered by
  // the explicit scale list.
  const auto& topo = platform.topology;
  k.lit(";topo=");
  k.str(topo.name());
  k.lit(":");
  k.label(topo.grid().rows());
  k.lit("x");
  k.label(topo.grid().cols());
  k.lit(";bw=");
  k.num(topo.grid().bandwidth());
  k.list(topo.heterogeneous() ? static_cast<std::size_t>(topo.core_count()) : 0);
  if (topo.heterogeneous()) {
    k.lit(";scale=");
    for (int c = 0; c < topo.core_count(); ++c) {
      if (c != 0) k.lit(",");
      k.num(topo.core_speed_scale(c));
    }
  }
  k.lit(";speeds=");
  k.list(platform.speeds.mode_count());
  for (std::size_t m = 0; m < platform.speeds.mode_count(); ++m) {
    if (m != 0) k.lit(",");
    k.num(platform.speeds.speed(m));
    k.lit(":");
    k.num(platform.speeds.dynamic_power(m));
  }
  k.lit(";leak=");
  k.num(platform.speeds.leak_power());
  k.lit(";ebyte=");
  k.num(platform.comm.energy_per_byte);
  k.lit(";commleak=");
  k.num(platform.comm.leak_power);

  // SPG: stages in (x, y) label order — labels are unique by the SPG
  // invariants, so this order is a property of the graph, not of the
  // serialization the request happened to use.
  std::vector<spg::StageId> order(g.size());
  std::iota(order.begin(), order.end(), spg::StageId{0});
  std::sort(order.begin(), order.end(), [&](spg::StageId a, spg::StageId b) {
    const auto& sa = g.stage(a);
    const auto& sb = g.stage(b);
    if (sa.x != sb.x) return sa.x < sb.x;
    return sa.y < sb.y;
  });
  std::vector<std::size_t> rank(g.size());
  for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;

  k.lit(";spg=");
  k.count(g.size());
  k.lit("/");
  k.count(g.edge_count());
  for (const auto id : order) {
    const auto& s = g.stage(id);
    k.lit(";s");
    k.label(s.x);
    k.lit(",");
    k.label(s.y);
    k.lit(",");
    k.num(s.work);
  }

  struct EdgeKey {
    std::size_t src, dst;
    double bytes;
  };
  std::vector<EdgeKey> edges;
  edges.reserve(g.edge_count());
  for (const auto& e : g.edges()) {
    edges.push_back(EdgeKey{rank[e.src], rank[e.dst], e.bytes});
  }
  std::sort(edges.begin(), edges.end(), [](const EdgeKey& a, const EdgeKey& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.bytes < b.bytes;
  });
  for (const auto& e : edges) {
    k.lit(";e");
    k.count(e.src);
    k.lit(">");
    k.count(e.dst);
    k.lit(",");
    k.num(e.bytes);
  }
}

}  // namespace

std::string canonical_key(const spg::Spg& g, const cmp::Platform& platform,
                          const std::string& normalized_solver, double period) {
  TextKey k;
  write_key(g, platform, normalized_solver, period, k);
  return std::move(k.out);
}

std::string compact_key(const spg::Spg& g, const cmp::Platform& platform,
                        const std::string& normalized_solver, double period) {
  CompactKey k;
  write_key(g, platform, normalized_solver, period, k);
  return std::move(k.out);
}

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string key_digest(std::string_view key) { return hex_digest(fnv1a64(key)); }

std::string hex_digest(std::uint64_t h) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace spgcmp::serve
