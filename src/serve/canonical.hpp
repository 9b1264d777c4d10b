#pragma once

// Canonical memo keys for solve requests — the heart of the serve daemon.
//
// Two requests must share a key exactly when they describe the same solve:
// same SPG *structure and weights*, same platform, same solver behaviour,
// same period bound.  The key is therefore computed from the materialized
// problem, not from how the request spelled it:
//
//   * stages are ordered by their unique (x, y) composition labels (names
//     are display-only and excluded), edges by the label-ranks of their
//     endpoints — so a generator-form request and an explicit-SPG request
//     for the same graph collide, as do stage-permuted serializations;
//   * weights and the period are rendered with util::json_number (shortest
//     round-trip decimal), so equality is exact double equality;
//   * the solver spec is normalized (per-stage option lists parsed through
//     solve::SolverOptions and re-emitted with sorted keys), so
//     `exact(candidates=1000, cap=9)` and `exact(cap=9,candidates=1000)`
//     collide while genuinely distinct options do not.
//
// Memoizing stochastic solvers is sound because the daemon derives the
// solver's context seed from the key itself (fnv1a64), so identical
// problems run identical solves; an explicit seed= option is part of the
// normalized spec and thus part of the key.
//
// One identity, two spellings.  The text key (canonical_key) is the wire
// contract: its digest is the response's "key" and its fnv1a64 is the
// solver seed, so it is formatted once per solve, on a miss.  The memo
// cache and the coalescing queue key on compact_key instead: the same
// fields in the same order, written without json_number's formatting
// cost and at under half the size.

#include <cstdint>
#include <string>
#include <string_view>

namespace spgcmp::spg {
class Spg;
}
namespace spgcmp::cmp {
struct Platform;
}

namespace spgcmp::serve {

/// Rewrite a solver spec into canonical form: '+'-chain stages with
/// trimmed names and option lists re-emitted in sorted key order.  Option
/// *values* are compared textually after trimming (a nested base= spec is
/// not recursively normalized — equivalent-but-differently-spelled nested
/// specs conservatively miss the cache).  Throws solve::SolverError on
/// malformed specs; solver-name existence is checked at solve time.
[[nodiscard]] std::string normalize_solver_spec(std::string_view spec);

/// The full canonical key of one solve.  `normalized_solver` must come
/// from normalize_solver_spec.  The key is an exact map key (no hashing,
/// no collisions); use key_digest for display.
[[nodiscard]] std::string canonical_key(const spg::Spg& g,
                                        const cmp::Platform& platform,
                                        const std::string& normalized_solver,
                                        double period);

/// The compact exact key of the same solve: canonical_key's fields in its
/// order, strings length-prefixed, integers as LEB128 varints and doubles
/// as their raw bits (every non-finite value as one pattern, as
/// json_number writes them all as "null").  Two compact keys are equal
/// exactly when the two canonical_key texts are; binary, not for display.
[[nodiscard]] std::string compact_key(const spg::Spg& g,
                                      const cmp::Platform& platform,
                                      const std::string& normalized_solver,
                                      double period);

/// FNV-1a 64-bit hash; also the deterministic solver seed for a key.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// 16-hex-digit digest of a key, for response frames and logs.
[[nodiscard]] std::string key_digest(std::string_view key);

/// The 16 hex digits of a hash key_digest would print.
[[nodiscard]] std::string hex_digest(std::uint64_t hash);

}  // namespace spgcmp::serve
