#pragma once

// Layer-DAG analysis for radiomc_lint — the one mechanism for include
// policy.
//
// A checked-in manifest (`.lint-layers` at the repo root) declares the
// architecture as data: named layers mapped to parts of the tree, and the
// include edges the design permits between them. The analysis then holds
// the *actual* include graph (stage-one facts) against the declaration:
//
//   * the declared edge graph must be acyclic — a cycle in the manifest
//     means the architecture itself is circular, reported with the path;
//   * every cross-layer quoted #include must ride a declared edge;
//   * every linted file must belong to a declared layer once it includes
//     a layered header.
//
// Manifest grammar (line oriented, `#` comments):
//
//   layer <name> <entry> [<entry>...]
//   allow <from> -> <to>
//
// An entry is a directory (`src/radio`), a single file
// (`src/radio/network.h`) or a header set (`src/protocols/*.h`: every file
// under the directory whose name ends in the suffix). Both a linted file
// and a quoted include (`radio/network.h`, rooted at the entry's directory
// name) belong to the layer of the longest entry that covers them, so a
// file entry carves a file out of its directory's layer and a header set
// carves the headers out. That is how the model boundary is declared:
// protocol headers and the engine are separate layers with no edge.
//
// Parse errors are reported as unwaivable findings against the manifest
// file itself, with line numbers.

#include <string>
#include <vector>

#include "lint/facts.h"

namespace radiomc::lint {

struct LayerDecl {
  std::string name;
  std::vector<std::string> entries;
  int line = 0;
};

struct LayerEdge {
  std::string from;
  std::string to;
  int line = 0;
};

struct LayerParseError {
  int line = 0;
  std::string message;
};

struct LayerManifest {
  std::vector<LayerDecl> layers;
  std::vector<LayerEdge> edges;
  std::vector<LayerParseError> errors;
};

/// Parses manifest text. Never throws; syntax problems land in `errors`
/// with specific messages (unknown directive, redeclared layer, malformed
/// entry or allow, undeclared layer reference, duplicate edge).
LayerManifest parse_layer_manifest(const std::string& text);

/// Runs the layer-dag analysis, appending to `out`: manifest errors
/// (unwaivable, reported against `manifest_name`), declared-graph cycles,
/// undeclared cross-layer include edges (reported at the include line),
/// and unmapped files.
void check_layers(const LayerManifest& manifest,
                  const std::string& manifest_name,
                  const std::vector<FileFacts>& facts,
                  std::vector<Finding>* out);

}  // namespace radiomc::lint
