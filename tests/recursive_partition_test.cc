#include "flow/recursive_partition.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"

namespace impreg {
namespace {

TEST(KwayTest, OneBlockIsTrivial) {
  const Graph g = CycleGraph(10);
  const KwayResult result = KwayPartition(g, 1);
  EXPECT_EQ(result.sizes, std::vector<std::int64_t>{10});
  EXPECT_DOUBLE_EQ(result.cut, 0.0);
}

TEST(KwayTest, FourWayGridIsBalancedAndCheap) {
  const Graph g = GridGraph(16, 16);
  const KwayResult result = KwayPartition(g, 4);
  ASSERT_EQ(result.sizes.size(), 4u);
  for (std::int64_t size : result.sizes) {
    EXPECT_NEAR(size, 64, 20);
  }
  // Ideal 4-way grid cut ~2*16=32 edges; random assignment ~360.
  EXPECT_LT(result.cut, 120.0);
  // Every node labeled in range.
  for (int p : result.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(KwayTest, NonPowerOfTwoBlocks) {
  Rng rng(1);
  const Graph g = ErdosRenyi(300, 0.04, rng);
  const KwayResult result = KwayPartition(g, 3);
  ASSERT_EQ(result.sizes.size(), 3u);
  std::int64_t total = 0;
  for (std::int64_t size : result.sizes) {
    EXPECT_GT(size, 0);
    EXPECT_NEAR(size, 100, 45);
    total += size;
  }
  EXPECT_EQ(total, 300);
}

TEST(KwayTest, RecoversCavemanCliques) {
  const Graph g = CavemanGraph(4, 10);
  const KwayResult result = KwayPartition(g, 4);
  // The 4 ring bridges are the only cut candidates; a perfect 4-way
  // partition cuts exactly 4 edges.
  EXPECT_LE(result.cut, 8.0);
  // Each clique should be monochromatic.
  int pure_cliques = 0;
  for (int c = 0; c < 4; ++c) {
    const int label = result.part[c * 10];
    bool pure = true;
    for (NodeId i = 0; i < 10; ++i) {
      if (result.part[c * 10 + i] != label) pure = false;
    }
    if (pure) ++pure_cliques;
  }
  EXPECT_GE(pure_cliques, 3);
}

TEST(KwayTest, KEqualsNGivesSingletons) {
  const Graph g = CompleteGraph(6);
  const KwayResult result = KwayPartition(g, 6);
  std::vector<int> sorted = result.part;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_DOUBLE_EQ(result.cut, 15.0);  // All edges cut.
}

TEST(KwayTest, CutMatchesManualCount) {
  Rng rng(2);
  const Graph g = ErdosRenyi(50, 0.2, rng);
  const KwayResult result = KwayPartition(g, 5);
  double manual = 0.0;
  for (NodeId u = 0; u < 50; ++u) {
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] > u && result.part[u] != result.part[heads[i]]) {
        manual += weights[i];
      }
    }
  }
  EXPECT_DOUBLE_EQ(result.cut, manual);
}

TEST(KwayTest, TooManyBlocksDies) {
  const Graph g = PathGraph(3);
  EXPECT_DEATH(KwayPartition(g, 4), "");
}

}  // namespace
}  // namespace impreg
