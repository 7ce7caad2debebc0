#include "lint/layers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace radiomc::lint {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string word;
  while (is >> word) out.push_back(word);
  return out;
}

}  // namespace

LayerManifest parse_layer_manifest(const std::string& text) {
  LayerManifest m;
  std::map<std::string, int> declared_at;  // layer -> first decl line
  std::set<std::pair<std::string, std::string>> seen_edges;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto words = split_ws(line);
    if (words.empty()) continue;
    if (words[0] == "layer") {
      if (words.size() < 3) {
        m.errors.push_back(
            {lineno, "'layer' needs a name and at least one entry "
                     "(layer <name> <entry> [<entry>...])"});
        continue;
      }
      auto it = declared_at.find(words[1]);
      if (it != declared_at.end()) {
        m.errors.push_back({lineno, "layer '" + words[1] +
                                        "' redeclared (first declared on line " +
                                        std::to_string(it->second) + ")"});
        continue;
      }
      declared_at.emplace(words[1], lineno);
      LayerDecl d;
      d.name = words[1];
      d.line = lineno;
      for (auto e = words.begin() + 2; e != words.end(); ++e) {
        const std::size_t star = e->find('*');
        if (star == std::string::npos ||
            (star > 0 && (*e)[star - 1] == '/' && star + 1 < e->size() &&
             e->find_first_of("*/", star + 1) == std::string::npos)) {
          d.entries.push_back(*e);
        } else {
          m.errors.push_back(
              {lineno, "entry '" + *e +
                           "' is malformed: a header set is written "
                           "<dir>/*<suffix> (e.g. src/protocols/*.h)"});
        }
      }
      m.layers.push_back(std::move(d));
    } else if (words[0] == "allow") {
      if (words.size() != 4 || words[2] != "->") {
        m.errors.push_back(
            {lineno, "'allow' needs the form 'allow <from> -> <to>'"});
        continue;
      }
      if (words[1] == words[3]) {
        m.errors.push_back(
            {lineno, "self edge '" + words[1] +
                         " -> " + words[3] +
                         "' is implicit; remove it from the manifest"});
        continue;
      }
      if (!seen_edges.emplace(words[1], words[3]).second) {
        m.errors.push_back({lineno, "edge '" + words[1] + " -> " + words[3] +
                                        "' declared twice"});
        continue;
      }
      m.edges.push_back({words[1], words[3], lineno});
    } else {
      m.errors.push_back({lineno, "unknown directive '" + words[0] +
                                      "' (expected 'layer' or 'allow')"});
    }
  }
  // References are validated after the whole file is read so declaration
  // order does not matter.
  for (const auto& e : m.edges) {
    for (const auto* name : {&e.from, &e.to}) {
      if (declared_at.find(*name) == declared_at.end()) {
        m.errors.push_back(
            {e.line, "allow references undeclared layer '" + *name + "'"});
      }
    }
  }
  return m;
}

namespace {

/// True iff `entry` — a directory, a single file, or `<dir>/*<suffix>` —
/// covers `path` (matched as a path suffix, like in_dir).
bool covers(std::string_view entry, std::string_view path) {
  const std::size_t star = entry.find('*');
  if (star != std::string_view::npos)
    return in_dir(path, entry.substr(0, star - 1)) &&
           path.ends_with(entry.substr(star + 1));
  return in_dir(path, entry) || path == entry ||
         path.ends_with("/" + std::string(entry));
}

/// The entry as a quoted #include names it: rooted at its directory's last
/// component (src/radio -> radio, src/radio/network.h -> radio/network.h,
/// src/protocols/*.h -> protocols/*.h).
std::string_view include_form(std::string_view entry) {
  const bool dir =
      basename_of(entry).find_first_of(".*") == std::string_view::npos;
  const std::size_t own = dir ? entry.size() : entry.rfind('/');
  const std::size_t cut =
      own == std::string_view::npos ? own : entry.rfind('/', own - 1);
  return cut == std::string_view::npos ? entry : entry.substr(cut + 1);
}

/// The layer of a linted file (or, with `include`, of a quoted include
/// path): the layer of the longest entry covering it; empty if none does.
std::string layer_of(const LayerManifest& manifest, std::string_view path,
                     bool include) {
  std::string best;
  std::size_t best_len = 0;
  for (const auto& l : manifest.layers) {
    for (const auto& e : l.entries) {
      if (e.size() >= best_len && covers(include ? include_form(e) : e, path)) {
        best = l.name;
        best_len = e.size();
      }
    }
  }
  return best;
}

struct CycleFinder {
  const std::map<std::string, std::vector<std::string>>& adj;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  bool dfs(const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (const auto& v : it->second) {
        int c = color.count(v) ? color[v] : 0;
        if (c == 1) {
          auto pos = std::find(stack.begin(), stack.end(), v);
          cycle.assign(pos, stack.end());
          cycle.push_back(v);
          return true;
        }
        if (c == 0 && dfs(v)) return true;
      }
    }
    stack.pop_back();
    color[u] = 2;
    return false;
  }
};

}  // namespace

void check_layers(const LayerManifest& manifest,
                  const std::string& manifest_name,
                  const std::vector<FileFacts>& facts,
                  std::vector<Finding>* out) {
  for (const auto& e : manifest.errors) {
    report(out, "layer-dag", manifest_name, e.line,
           "manifest parse error: " + e.message);
  }

  // Declared-graph acyclicity. Edges point from includer to includee, so
  // a cycle means two layers each permitted to include the other.
  std::map<std::string, std::vector<std::string>> adj;
  std::map<std::pair<std::string, std::string>, int> edge_line;
  for (const auto& e : manifest.edges) {
    adj[e.from].push_back(e.to);
    edge_line[{e.from, e.to}] = e.line;
  }
  for (auto& [k, v] : adj) std::sort(v.begin(), v.end());
  CycleFinder cf{adj, {}, {}, {}};
  for (const auto& l : manifest.layers) {
    if ((cf.color.count(l.name) ? cf.color[l.name] : 0) == 0 &&
        cf.dfs(l.name)) {
      break;
    }
  }
  if (!cf.cycle.empty()) {
    std::string path;
    for (std::size_t i = 0; i < cf.cycle.size(); ++i) {
      if (i) path += " -> ";
      path += cf.cycle[i];
    }
    int line = 0;
    if (cf.cycle.size() >= 2) {
      auto it = edge_line.find({cf.cycle[cf.cycle.size() - 2], cf.cycle.back()});
      if (it != edge_line.end()) line = it->second;
    }
    report(out, "layer-dag", manifest_name, line,
           "declared layer graph has a cycle: " + path +
               " — the manifest is a DAG contract; break one edge");
  }

  // Actual include edges vs the declaration.
  std::set<std::pair<std::string, std::string>> allowed;
  for (const auto& e : manifest.edges) allowed.emplace(e.from, e.to);
  for (const auto& f : facts) {
    std::string from = layer_of(manifest, f.path, false);
    for (const auto& inc : f.includes) {
      if (inc.angled) continue;  // system/third-party headers
      std::string to = layer_of(manifest, inc.path, true);
      if (to.empty()) continue;  // not a layered header
      if (from.empty()) {
        report(out, "layer-dag", f.path, inc.line,
               "file is not covered by any layer in " + manifest_name +
                   " but includes layered header \"" + inc.path +
                   "\" — add it to a layer");
        break;  // one finding per unmapped file is enough
      }
      if (to == from) continue;
      if (allowed.count({from, to}) == 0) {
        report(out, "layer-dag", f.path, inc.line,
               "include edge " + from + " -> " + to + " (\"" + inc.path +
                   "\") is not declared in " + manifest_name +
                   " — either the include or the manifest is wrong");
      }
    }
  }
}

}  // namespace radiomc::lint
