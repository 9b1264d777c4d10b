#include "heuristics/ilp.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace spgcmp::heuristics {

namespace {

/// Tiny LP writer: collects variable names and constraint lines.
struct LpWriter {
  std::ostringstream objective;
  std::vector<std::string> constraints;
  std::vector<std::string> binaries;

  void constraint(const std::string& line) { constraints.push_back(line); }
};

std::string xv(std::size_t i, std::size_t k, int u, int v) {
  std::ostringstream s;
  s << "x_" << i << "_" << k << "_" << u << "_" << v;
  return s.str();
}
std::string mv(std::size_t k, int u, int v) {
  std::ostringstream s;
  s << "m_" << k << "_" << u << "_" << v;
  return s.str();
}
const char* dir_name(int d) {
  static const char* names[4] = {"N", "S", "W", "E"};
  return names[d];
}
std::string cv(int d, std::size_t i, std::size_t j, int u, int v) {
  std::ostringstream s;
  s << "c" << dir_name(d) << "_" << i << "_" << j << "_" << u << "_" << v;
  return s.str();
}

}  // namespace

IlpStats emit_ilp(const spg::Spg& g, const cmp::Platform& p, double T,
                  std::ostream& os) {
  if (p.topology.kind() != cmp::TopologyKind::Mesh) {
    throw std::invalid_argument(
        "ilp: only the homogeneous XY mesh is modelled, not '" +
        p.topology.name() + "'");
  }
  const std::size_t n = g.size();
  const std::size_t m = p.speeds.mode_count();
  const int P = p.grid().rows();
  const int Q = p.grid().cols();
  LpWriter lp;

  // Adjacency and transitive closure as dense lookups.
  std::vector<std::vector<double>> delta(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<char>> ell(n, std::vector<char>(n, 0));
  for (const auto& e : g.edges()) {
    ell[e.src][e.dst] = 1;
    delta[e.src][e.dst] += e.bytes;
  }
  const auto closure = g.transitive_closure();

  // Direction helpers: c_-variables that would cross the border are pinned
  // to zero instead of being emitted as constraints.
  const auto border_zero = [&](int d, int u, int v) {
    switch (d) {
      case 0: return u == 0;        // N
      case 1: return u == P - 1;    // S
      case 2: return v == 0;        // W
      default: return v == Q - 1;   // E
    }
  };

  // ---- Variables (declared binary at the end) ----
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < m; ++k)
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) lp.binaries.push_back(xv(i, k, u, v));
  for (std::size_t k = 0; k < m; ++k)
    for (int u = 0; u < P; ++u)
      for (int v = 0; v < Q; ++v) lp.binaries.push_back(mv(k, u, v));
  for (int d = 0; d < 4; ++d)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        for (int u = 0; u < P; ++u)
          for (int v = 0; v < Q; ++v) lp.binaries.push_back(cv(d, i, j, u, v));

  const auto cplus = [&](std::size_t i, std::size_t j, int u, int v) {
    std::string s;
    for (int d = 0; d < 4; ++d) {
      if (!s.empty()) s += " + ";
      s += cv(d, i, j, u, v);
    }
    return s;
  };

  std::ostringstream c;

  // Each stage on exactly one (core, speed).
  for (std::size_t i = 0; i < n; ++i) {
    c.str("");
    bool first = true;
    for (std::size_t k = 0; k < m; ++k)
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) {
          c << (first ? "" : " + ") << xv(i, k, u, v);
          first = false;
        }
    c << " = 1";
    lp.constraint(c.str());
  }

  // Core speed selection consistency.
  for (std::size_t k = 0; k < m; ++k)
    for (int u = 0; u < P; ++u)
      for (int v = 0; v < Q; ++v) {
        for (std::size_t i = 0; i < n; ++i) {
          lp.constraint(mv(k, u, v) + " - " + xv(i, k, u, v) + " >= 0");
        }
        // One speed per core.
      }
  for (int u = 0; u < P; ++u)
    for (int v = 0; v < Q; ++v) {
      c.str("");
      for (std::size_t k = 0; k < m; ++k) c << (k ? " + " : "") << mv(k, u, v);
      c << " <= 1";
      lp.constraint(c.str());
    }

  // Border-crossing communications forbidden; no communication without a
  // dependence.
  for (int d = 0; d < 4; ++d)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        for (int u = 0; u < P; ++u)
          for (int v = 0; v < Q; ++v) {
            if (border_zero(d, u, v) || !ell[i][j]) {
              lp.constraint(cv(d, i, j, u, v) + " = 0");
            }
          }

  // Colocation kills the communication; separation initiates it.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (!ell[i][j]) continue;
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) {
          for (std::size_t k = 0; k < m; ++k) {
            lp.constraint(xv(i, k, u, v) + " + " + xv(j, k, u, v) + " + " +
                          cplus(i, j, u, v) + " <= 2");
          }
          for (std::size_t k = 0; k < m; ++k) {
            c.str("");
            c << cplus(i, j, u, v) << " - " << xv(i, k, u, v);
            for (std::size_t k2 = 0; k2 < m; ++k2)
              for (int u2 = 0; u2 < P; ++u2)
                for (int v2 = 0; v2 < Q; ++v2) {
                  if (u2 == u && v2 == v) continue;
                  c << " - " << xv(j, k2, u2, v2);
                }
            c << " >= -1";  // c+ >= x_i + sum x_j(elsewhere) + 1 - 2
            lp.constraint(c.str());
          }
        }
    }

  // Forwarding / stopping (paper writes these as two-sided inequalities;
  // LP format needs them split).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (!ell[i][j]) continue;
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) {
          struct Hop {
            int d;
            int u2, v2;
          };
          const Hop hops[4] = {{0, u - 1, v}, {1, u + 1, v}, {2, u, v - 1}, {3, u, v + 1}};
          for (const auto& h : hops) {
            if (border_zero(h.d, u, v)) continue;
            // cD <= c+(next) + sum_k x_j(next)
            c.str("");
            c << cplus(i, j, h.u2, h.v2);
            for (std::size_t k = 0; k < m; ++k) c << " + " << xv(j, k, h.u2, h.v2);
            c << " - " << cv(h.d, i, j, u, v) << " >= 0";
            lp.constraint(c.str());
            // c+(next) + sum_k x_j(next) <= 2 - cD
            c.str("");
            c << cplus(i, j, h.u2, h.v2);
            for (std::size_t k = 0; k < m; ++k) c << " + " << xv(j, k, h.u2, h.v2);
            c << " + " << cv(h.d, i, j, u, v) << " <= 2";
            lp.constraint(c.str());
          }
        }
    }

  // No communication cycles: incoming links toward (u,v) for pair (i,j) are
  // bounded by x_i(u,v) — a flow may only *originate* where S_i lives.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (!ell[i][j]) continue;
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) {
          c.str("");
          bool any = false;
          // Links *entering* (u,v): from south neighbor going north, etc.
          if (u + 1 < P) {
            c << (any ? " + " : "") << cv(0, i, j, u + 1, v);
            any = true;
          }
          if (u - 1 >= 0) {
            c << (any ? " + " : "") << cv(1, i, j, u - 1, v);
            any = true;
          }
          if (v + 1 < Q) {
            c << (any ? " + " : "") << cv(2, i, j, u, v + 1);
            any = true;
          }
          if (v - 1 >= 0) {
            c << (any ? " + " : "") << cv(3, i, j, u, v - 1);
            any = true;
          }
          if (!any) continue;
          for (std::size_t k = 0; k < m; ++k) c << " - " << xv(i, k, u, v);
          c << " <= 0";
          lp.constraint(c.str());
        }
    }

  // DAG-partition rule via the transitive closure.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      for (std::size_t i2 = 0; i2 < n; ++i2) {
        if (i2 == i || i2 == j) continue;
        if (!closure[i].test(i2) || !closure[i2].test(j)) continue;
        for (std::size_t k = 0; k < m; ++k)
          for (int u = 0; u < P; ++u)
            for (int v = 0; v < Q; ++v) {
              lp.constraint(xv(i2, k, u, v) + " - " + xv(i, k, u, v) + " - " +
                            xv(j, k, u, v) + " >= -1");
            }
      }
    }

  // Period constraints.
  for (int u = 0; u < P; ++u)
    for (int v = 0; v < Q; ++v)
      for (std::size_t k = 0; k < m; ++k) {
        c.str("");
        bool first = true;
        for (std::size_t i = 0; i < n; ++i) {
          c << (first ? "" : " + ") << g.stage(i).work << " " << xv(i, k, u, v);
          first = false;
        }
        c << " - " << T * p.speeds.speed(k) << " " << mv(k, u, v) << " <= 0";
        lp.constraint(c.str());
      }
  for (int d = 0; d < 4; ++d)
    for (int u = 0; u < P; ++u)
      for (int v = 0; v < Q; ++v) {
        if (border_zero(d, u, v)) continue;
        c.str("");
        bool first = true;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            if (!ell[i][j]) continue;
            c << (first ? "" : " + ") << delta[i][j] << " " << cv(d, i, j, u, v);
            first = false;
          }
        if (first) continue;
        c << " <= " << T * p.grid().bandwidth();
        lp.constraint(c.str());
      }

  // ---- Objective ----
  const double e_stat = p.speeds.leak_power() * T;
  lp.objective << "obj:";
  for (std::size_t k = 0; k < m; ++k)
    for (int u = 0; u < P; ++u)
      for (int v = 0; v < Q; ++v) {
        lp.objective << " + " << e_stat << " " << mv(k, u, v);
      }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < m; ++k) {
      const double e_dyn =
          g.stage(i).work * p.speeds.dynamic_power(k) / p.speeds.speed(k);
      for (int u = 0; u < P; ++u)
        for (int v = 0; v < Q; ++v) {
          lp.objective << " + " << e_dyn << " " << xv(i, k, u, v);
        }
    }
  for (int d = 0; d < 4; ++d)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (!ell[i][j]) continue;
        const double e_bit = delta[i][j] * p.comm.energy_per_byte;
        for (int u = 0; u < P; ++u)
          for (int v = 0; v < Q; ++v) {
            lp.objective << " + " << e_bit << " " << cv(d, i, j, u, v);
          }
      }

  // ---- Emit ----
  os << "Minimize\n " << lp.objective.str() << "\nSubject To\n";
  std::size_t cid = 0;
  for (const auto& line : lp.constraints) {
    os << " c" << cid++ << ": " << line << "\n";
  }
  os << "Binary\n";
  for (const auto& b : lp.binaries) os << " " << b << "\n";
  os << "End\n";

  return IlpStats{lp.binaries.size(), lp.constraints.size()};
}

}  // namespace spgcmp::heuristics
