#include "graph/topology_spec.h"

#include <limits>
#include <sstream>
#include <vector>

#include "graph/generators.h"
#include "support/util.h"

namespace radiomc::gen {

namespace {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, delim)) out.push_back(item);
  return out;
}

NodeId parse_size(const std::string& s, const std::string& what) {
  return static_cast<NodeId>(parse_unsigned(
      s, "topology spec: " + what, std::numeric_limits<NodeId>::max()));
}

std::pair<NodeId, NodeId> parse_dims(const std::string& s) {
  const auto xs = split(s, 'x');
  require(xs.size() == 2, "topology spec: dims must look like RxC");
  return {parse_size(xs[0], "rows"), parse_size(xs[1], "cols")};
}

void arity(const std::vector<std::string>& parts, std::size_t lo,
           std::size_t hi) {
  require(parts.size() >= lo && parts.size() <= hi,
          "topology spec: wrong number of ':'-fields in '" + parts[0] + "'");
}

}  // namespace

Graph from_spec(const std::string& spec, Rng& rng) {
  const auto parts = split(spec, ':');
  require(!parts.empty() && !parts[0].empty(), "topology spec: empty");
  const std::string& kind = parts[0];

  if (kind == "path") {
    arity(parts, 2, 2);
    return path(parse_size(parts[1], "n"));
  }
  if (kind == "cycle") {
    arity(parts, 2, 2);
    return cycle(parse_size(parts[1], "n"));
  }
  if (kind == "complete") {
    arity(parts, 2, 2);
    return complete(parse_size(parts[1], "n"));
  }
  if (kind == "star") {
    arity(parts, 2, 2);
    return star(parse_size(parts[1], "n"));
  }
  if (kind == "grid") {
    arity(parts, 2, 2);
    const auto [r, c] = parse_dims(parts[1]);
    return grid(r, c);
  }
  if (kind == "torus") {
    arity(parts, 2, 2);
    const auto [r, c] = parse_dims(parts[1]);
    return torus(r, c);
  }
  if (kind == "hypercube") {
    arity(parts, 2, 2);
    return hypercube(parse_size(parts[1], "dims"));
  }
  if (kind == "tree") {
    arity(parts, 3, 3);
    return rary_tree(parse_size(parts[1], "n"), parse_size(parts[2], "r"));
  }
  if (kind == "random-tree") {
    arity(parts, 2, 2);
    return random_tree(parse_size(parts[1], "n"), rng);
  }
  if (kind == "caterpillar") {
    arity(parts, 3, 3);
    return caterpillar(parse_size(parts[1], "spine"),
                       parse_size(parts[2], "legs"));
  }
  if (kind == "barbell") {
    arity(parts, 3, 3);
    return barbell(parse_size(parts[1], "clique"),
                   parse_size(parts[2], "bridge"));
  }
  if (kind == "gnp") {
    arity(parts, 3, 3);
    return gnp_connected(parse_size(parts[1], "n"),
                         parse_real(parts[2], "topology spec: p"), rng);
  }
  if (kind == "udg") {
    arity(parts, 2, 3);
    const NodeId n = parse_size(parts[1], "n");
    const double radius =
        parts.size() == 3 ? parse_real(parts[2], "topology spec: radius")
                          : udg_connect_radius(n);
    return unit_disk_connected(n, radius, rng);
  }
  throw std::invalid_argument("topology spec: unknown family '" + kind +
                              "' — " + spec_grammar());
}

std::string spec_grammar() {
  return "path:N | cycle:N | complete:N | star:N | grid:RxC | torus:RxC | "
         "hypercube:D | tree:N:R | random-tree:N | caterpillar:S:L | "
         "barbell:C:B | gnp:N:P | udg:N[:RADIUS]";
}

}  // namespace radiomc::gen
