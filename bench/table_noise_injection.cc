// Table T10 (§2.3): "adding noise to the input data before running a
// training algorithm can be equivalent to Tikhonov regularization."
//
// Same workload as T2 (planted bipartition + a whisker that the exact
// eigenvector localizes on), but instead of approximating the
// computation we perturb the INPUT: overlay sparse uniform random
// edges at rate ρ before computing the exact v₂. Random edges act like
// a scaled complete graph — exactly the teleportation term of PageRank
// — so moderate ρ detaches v₂ from the whisker and recovers the
// communities, while large ρ drowns the signal: the same interior-
// optimum curve as explicit regularization (compare T2's iteration
// knob and T7's diffusion-time knob).

#include <cstdio>

#include "core/impreg.h"

using namespace impreg;

namespace {

struct Workload {
  Graph graph;
  NodeId community_nodes;
  NodeId block_size;
};

Workload MakeWorkload(Rng& rng) {
  const NodeId block = 150;
  const Graph planted = PlantedPartition(2, block, 0.12, 0.03, rng);
  const NodeId whisker_len = 40;
  GraphBuilder builder(planted.NumNodes() + whisker_len);
  for (NodeId u = 0; u < planted.NumNodes(); ++u) {
    const auto heads = planted.Heads(u);
    const auto weights = planted.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] > u) builder.AddEdge(u, heads[i], weights[i]);
    }
  }
  builder.AddEdge(0, planted.NumNodes());
  for (NodeId i = 0; i + 1 < whisker_len; ++i) {
    builder.AddEdge(planted.NumNodes() + i, planted.NumNodes() + i + 1);
  }
  return {builder.Build(), planted.NumNodes(), block};
}

Graph AddNoiseEdges(const Graph& g, double rate, Rng& rng) {
  GraphBuilder builder(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] >= u) builder.AddEdge(u, heads[i], weights[i]);
    }
  }
  const Graph noise = ErdosRenyi(g.NumNodes(), rate, rng);
  for (NodeId u = 0; u < noise.NumNodes(); ++u) {
    const auto heads = noise.Heads(u);
    const auto weights = noise.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] > u) builder.AddEdge(u, heads[i], weights[i]);
    }
  }
  return builder.Build();
}

double Accuracy(const Workload& w, const Vector& x) {
  int agree = 0;
  for (NodeId u = 0; u < w.community_nodes; ++u) {
    if ((x[u] >= 0.0) == (u < w.block_size)) ++agree;
  }
  const double frac = static_cast<double>(agree) / w.community_nodes;
  return std::max(frac, 1.0 - frac);
}

}  // namespace

int main() {
  Rng rng(11);
  const Workload w = MakeWorkload(rng);
  std::printf("== T10: input-noise injection as implicit regularization "
              "==\n");
  std::printf("# planted 2x%d bipartition + %d-node whisker (the T2 "
              "workload); exact v2 each time\n",
              w.block_size, w.graph.NumNodes() - w.community_nodes);

  const int kTrials = 7;
  Table table({"noise_rate", "added_m(avg)", "accuracy", "lambda2"});
  for (double rate :
       {0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 0.3, 0.6}) {
    double accuracy = 0.0, lambda2 = 0.0, added = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng noise_rng(900 + trial);
      const Graph noisy = AddNoiseEdges(w.graph, rate, noise_rng);
      added += static_cast<double>(noisy.NumEdges() - w.graph.NumEdges());
      ApproxEigenvectorOptions options;
      options.method = EigenvectorMethod::kExact;
      options.rng_seed = 100 + trial;
      const ApproxEigenvectorResult v2 =
          ApproximateSecondEigenvector(noisy, options);
      accuracy += Accuracy(w, v2.x);
      lambda2 += v2.rayleigh;
    }
    table.AddRow({FormatG(rate, 3), FormatG(added / kTrials, 4),
                  FormatG(accuracy / kTrials, 4),
                  FormatG(lambda2 / kTrials, 4)});
  }
  table.Print();
  std::printf("\npaper's shape (Section 2.3): with no noise the exact "
              "eigenvector chases the\nwhisker (accuracy ~ 0.5); moderate "
              "injected noise acts like a teleportation/\nTikhonov term and "
              "recovers the planted labels; too much noise destroys the\n"
              "signal — the same interior optimum as T2's early stopping "
              "and T7's diffusion\ntime, produced by perturbing the DATA "
              "instead of the COMPUTATION.\n");
  return 0;
}
