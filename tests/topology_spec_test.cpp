// The textual topology grammar used by the CLI tool.

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/topology_spec.h"
#include "support/rng.h"

namespace radiomc {
namespace {

Graph parse(const std::string& s, std::uint64_t seed = 1) {
  Rng rng(seed);
  return gen::from_spec(s, rng);
}

TEST(TopologySpec, FixedFamilies) {
  EXPECT_EQ(parse("path:7").num_nodes(), 7u);
  EXPECT_EQ(parse("path:7").num_edges(), 6u);
  EXPECT_EQ(parse("cycle:8").num_edges(), 8u);
  EXPECT_EQ(parse("complete:5").num_edges(), 10u);
  EXPECT_EQ(parse("star:9").max_degree(), 8u);
  EXPECT_EQ(parse("grid:3x4").num_nodes(), 12u);
  EXPECT_EQ(parse("torus:3x3").num_edges(), 18u);
  EXPECT_EQ(parse("hypercube:3").num_nodes(), 8u);
  EXPECT_EQ(parse("tree:15:2").num_edges(), 14u);
  EXPECT_EQ(parse("caterpillar:4:2").num_nodes(), 12u);
  EXPECT_EQ(parse("barbell:3:1").num_nodes(), 7u);
}

TEST(TopologySpec, RandomFamiliesAreConnectedAndSeeded) {
  const Graph a = parse("gnp:20:0.3", 42);
  const Graph b = parse("gnp:20:0.3", 42);
  EXPECT_TRUE(is_connected(a));
  EXPECT_EQ(a.edge_list(), b.edge_list());  // deterministic per seed
  const Graph c = parse("random-tree:25", 7);
  EXPECT_EQ(c.num_edges(), 24u);
  const Graph d = parse("udg:30", 9);
  EXPECT_TRUE(is_connected(d));
  const Graph e = parse("udg:30:0.9", 9);
  EXPECT_TRUE(is_connected(e));
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("pathway:5"), std::invalid_argument);
  EXPECT_THROW(parse("path"), std::invalid_argument);
  EXPECT_THROW(parse("path:abc"), std::invalid_argument);
  EXPECT_THROW(parse("grid:4"), std::invalid_argument);
  EXPECT_THROW(parse("grid:4x"), std::invalid_argument);
  EXPECT_THROW(parse("gnp:10"), std::invalid_argument);
  EXPECT_THROW(parse("gnp:10:x"), std::invalid_argument);
  EXPECT_THROW(parse("tree:10"), std::invalid_argument);
  EXPECT_THROW(parse("path:5:9"), std::invalid_argument);
  // Signs, trailing junk and sizes beyond NodeId are rejected, never
  // wrapped or truncated into a huge allocation.
  EXPECT_THROW(parse("path:-1"), std::invalid_argument);
  EXPECT_THROW(parse("grid:-2x3"), std::invalid_argument);
  EXPECT_THROW(parse("path:5x"), std::invalid_argument);
  EXPECT_THROW(parse("path:4294967296"), std::invalid_argument);
}

TEST(TopologySpec, GrammarMentionsEveryFamily) {
  const std::string g = gen::spec_grammar();
  for (const char* fam :
       {"path", "cycle", "complete", "star", "grid", "torus", "hypercube",
        "tree", "random-tree", "caterpillar", "barbell", "gnp", "udg"})
    EXPECT_NE(g.find(fam), std::string::npos) << fam;
}

}  // namespace
}  // namespace radiomc
