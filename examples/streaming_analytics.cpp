// Streaming analytics: diffusion primitives in a "database" setting
// (§3.3's closing paragraph).
//
// Edges of a social network arrive one at a time. We maintain a
// Personalized PageRank vector incrementally — the push residual makes
// each update O(local) — and watch the seed's community assemble
// itself in real time. At the end, a Monte Carlo sweep shows the other
// streaming-friendly estimator from the paper's citations.

#include <cstdio>

#include "core/impreg.h"

using namespace impreg;

int main() {
  Rng rng(2024);
  SocialGraphParams params;
  params.core_nodes = 3000;
  params.num_communities = 4;
  params.min_community_size = 60;
  params.max_community_size = 90;
  params.num_whiskers = 25;
  const SocialGraph social = MakeWhiskeredSocialGraph(params, rng);
  const Graph& final_graph = social.graph;
  const auto& community = social.communities[1];
  const NodeId seed_node = community.front();

  // Random arrival order.
  std::vector<std::pair<NodeId, NodeId>> stream;
  for (NodeId u = 0; u < final_graph.NumNodes(); ++u) {
    for (NodeId v : final_graph.Heads(u)) {
      if (v >= u) stream.push_back({u, v});
    }
  }
  rng.Shuffle(stream);
  std::printf("streaming %zu edges; watching node %d's community "
              "(planted size %zu)\n\n",
              stream.size(), seed_node, community.size());

  Vector seed(final_graph.NumNodes(), 0.0);
  seed[seed_node] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-6;
  DynamicGraph empty(final_graph.NumNodes());
  IncrementalPersonalizedPageRank inc(empty, seed, options);

  std::vector<char> truth(final_graph.NumNodes(), 0);
  for (NodeId u : community) truth[u] = 1;

  Table table({"edges", "pushes/edge", "|S|", "phi", "recall"});
  std::int64_t window_pushes = 0;
  std::size_t window_edges = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    inc.AddEdge(stream[i].first, stream[i].second);
    window_pushes += inc.LastEdgePushes();
    ++window_edges;
    if ((i + 1) % (stream.size() / 5) == 0 || i + 1 == stream.size()) {
      // Sweep the current estimate on the current graph snapshot.
      const Graph snapshot = inc.graph().ToGraph();
      SweepOptions sweep;
      sweep.scaling = SweepScaling::kDegreeNormalized;
      const SweepResult cut =
          SweepCutOverSupport(snapshot, inc.Scores(), sweep, 1e-12);
      int recall = 0;
      for (NodeId u : cut.set) recall += truth[u];
      table.AddRow({std::to_string(i + 1),
                    FormatG(static_cast<double>(window_pushes) /
                                static_cast<double>(window_edges),
                            3),
                    std::to_string(cut.set.size()),
                    FormatG(cut.stats.conductance, 3),
                    std::to_string(recall) + "/" +
                        std::to_string(community.size())});
      window_pushes = 0;
      window_edges = 0;
    }
  }
  table.Print();

  std::printf("\nMonte Carlo cross-check on the final graph (1000 walks "
              "from the seed):\n");
  MonteCarloOptions mc;
  mc.gamma = 0.15;
  mc.walks_per_node = 1000;
  const Vector estimate =
      MonteCarloPersonalizedPageRank(final_graph, seed_node, mc);
  PageRankOptions exact_options;
  exact_options.gamma = 0.15;
  const Vector exact =
      PersonalizedPageRank(final_graph, seed, exact_options).scores;
  std::printf("  l1 distance to exact PPR: %.4f; top-20 overlap: %.2f\n",
              DistanceL1(estimate, exact), TopKOverlap(estimate, exact, 20));
  std::printf("\nthe community is recoverable long before the stream "
              "finishes, at a few\npushes per arriving edge — approximation "
              "state is what makes the\nmaintenance cheap.\n");
  return 0;
}
