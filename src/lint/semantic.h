#pragma once

// Stage-two semantic analyses over the cross-TU facts (src/lint/facts.h):
// the checks that need to see the whole tree at once.
//
//   * rng-stream-audit — the global Rng::split tag inventory. Two child
//     streams split from the same parent with the same tag are
//     byte-identical, not independent; a bare literal tag cannot be
//     proven distinct from a tag three files away. The audit fails on
//     same-parent duplicate tags, bare literal tags in src/ (name them in
//     support/rng_tags.h), call-computed tags on deterministic paths,
//     value collisions inside the registry, and fixed-literal-seed Rng
//     construction outside support/rng.*.
//
//   * hub-null-check (flow-aware) — per-branch guard tracking: guards live
//     in the branch that established them, `if (!p) return;` promotes the
//     guarantee past the early return, and `if (!p) { p->f(); }` is
//     caught.
//
// The layer-dag analysis lives in src/lint/layers.h.

#include <set>
#include <string>
#include <vector>

#include "lint/facts.h"
#include "lint/rules.h"

namespace radiomc::lint {

/// Directories whose behavior must be a pure function of the seed (shared
/// with the unordered-container rule in rules.cpp).
bool in_deterministic_zone(std::string_view path);

/// Runs the RNG stream audit. Named tags are appended to `inventory`
/// (sorted by value) and src/ split call sites are counted into
/// `split_sites`, both for the v2 report.
void analyze_rng_streams(const std::vector<FileFacts>& facts,
                         std::vector<Finding>* out,
                         std::vector<TagInventoryEntry>* inventory,
                         std::size_t* split_sites);

/// Flow-aware hub-null-check over one file. `global_fields` is the
/// cross-TU set of optional-hook field names (facts pointer fields with
/// hub types and `= nullptr`).
void analyze_hub_null_check(const LexedFile& f,
                            const std::set<std::string>& global_fields,
                            std::vector<Finding>* out);

/// The hub pointer type names (`TelemetryHub`, `TraceSink`, ...), shared
/// between the analysis and the facts-driven field collection.
bool is_hub_pointer_type(std::string_view type);

}  // namespace radiomc::lint
