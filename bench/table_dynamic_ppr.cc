// Table T8 (extension; §3.3's closing paragraph, refs [6]/[37]):
// diffusion primitives in dynamic "database" environments.
//
// Stream the edges of a social graph in random order into the
// incremental PPR estimator and compare the maintenance cost (pushes
// per arriving edge) against recomputing from scratch at checkpoints.
// The residual truncation — the implicit regularizer of §3.3 — is
// precisely what makes the dynamic update O(local) instead of a full
// solve.

#include <cstdio>

#include "core/impreg.h"

using namespace impreg;

int main() {
  Rng rng(55);
  SocialGraphParams params;
  params.core_nodes = 6000;
  params.num_communities = 6;
  params.num_whiskers = 60;
  const SocialGraph social = MakeWhiskeredSocialGraph(params, rng);
  const Graph& final_graph = social.graph;
  const NodeId seed_node = social.communities[0][0];

  // Random arrival order for every edge.
  std::vector<std::pair<NodeId, NodeId>> stream;
  std::vector<double> weights;
  for (NodeId u = 0; u < final_graph.NumNodes(); ++u) {
    const auto row_heads = final_graph.Heads(u);
    const auto row_weights = final_graph.Weights(u);
    for (std::size_t i = 0; i < row_heads.size(); ++i) {
      if (row_heads[i] >= u) {
        stream.push_back({u, row_heads[i]});
        weights.push_back(row_weights[i]);
      }
    }
  }
  std::vector<int> order(stream.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.Shuffle(order);

  std::printf("== T8: incremental PPR over an edge stream ==\n");
  std::printf("# final graph: n=%d m=%zu; seed node %d; gamma=0.15, "
              "eps=1e-7\n",
              final_graph.NumNodes(), stream.size(), seed_node);

  Vector seed(final_graph.NumNodes(), 0.0);
  seed[seed_node] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-7;
  DynamicGraph empty(final_graph.NumNodes());
  IncrementalPersonalizedPageRank inc(empty, seed, options);

  Table table({"edges_inserted", "pushes/edge(window)", "rebuild_pushes",
               "l1_vs_exact"});
  const std::size_t checkpoints = 6;
  std::size_t next_checkpoint = stream.size() / checkpoints;
  std::int64_t window_pushes = 0;
  std::size_t window_edges = 0;
  Timer timer;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& [u, v] = stream[order[i]];
    inc.AddEdge(u, v, weights[order[i]]);
    window_pushes += inc.LastEdgePushes();
    ++window_edges;
    if (i + 1 == next_checkpoint || i + 1 == order.size()) {
      // From-scratch baseline at this snapshot.
      IncrementalPersonalizedPageRank rebuild(inc.graph(), seed, options);
      // Exact reference.
      PageRankOptions exact_options;
      exact_options.gamma = options.gamma;
      exact_options.tolerance = 1e-13;
      exact_options.max_iterations = 100000;
      const Vector exact =
          PersonalizedPageRank(inc.graph().ToGraph(), seed, exact_options)
              .scores;
      table.AddRow(
          {std::to_string(i + 1),
           FormatG(static_cast<double>(window_pushes) /
                       static_cast<double>(window_edges),
                   4),
           std::to_string(rebuild.TotalPushes()),
           FormatG(DistanceL1(inc.Scores(), exact), 3)});
      window_pushes = 0;
      window_edges = 0;
      next_checkpoint += stream.size() / checkpoints;
    }
  }
  table.Print();
  std::printf("\ntotal stream time: %.2f s for %zu insertions\n",
              timer.Seconds(), stream.size());
  std::printf("\npaper's shape: maintaining the *approximate* (truncated-"
              "residual) PPR costs a\nfew pushes per arriving edge, vs "
              "thousands for a from-scratch recomputation —\nthe truncation "
              "is what buys the interactivity the paper asks databases "
              "for.\n");
  return 0;
}
