#include "graph/io.h"

#include "util/check.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace impreg {

namespace {

struct ParsedEdge {
  NodeId u;
  NodeId v;
  double weight;
};

// Node ids must leave room for n = max_id + 1 to fit in NodeId.
constexpr long long kMaxNodeId =
    static_cast<long long>(std::numeric_limits<NodeId>::max()) - 1;

GraphParseResult Fail(int line, std::string message) {
  GraphParseResult result;
  result.error_line = line;
  result.error = std::move(message);
  return result;
}

}  // namespace

GraphParseResult ParseEdgeListOrError(const std::string& text) {
  std::vector<ParsedEdge> edges;
  NodeId max_node = -1;
  NodeId declared_nodes = -1;

  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Trim trailing whitespace first: CRLF files leave a '\r' on every
    // line, and editors leave trailing blanks — both would otherwise
    // trip the %c trailing-garbage probe below on weighted lines.
    line.erase(line.find_last_not_of(" \t\r\n\f\v") + 1);
    // Trim leading whitespace.
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    if (start == line.size()) continue;
    if (line[start] == '#' || line[start] == '%') {
      long long n = 0;
      if (std::sscanf(line.c_str() + start, "# nodes %lld", &n) == 1 ||
          std::sscanf(line.c_str() + start, "%% nodes %lld", &n) == 1) {
        if (n < 0) {
          return Fail(line_number, "declared node count is negative");
        }
        if (n > kMaxNodeId + 1) {
          return Fail(line_number, "declared node count overflows node ids");
        }
        declared_nodes = static_cast<NodeId>(n);
      }
      continue;
    }
    long long u = 0, v = 0;
    double w = 1.0;
    char trailing = '\0';
    const int fields = std::sscanf(line.c_str() + start, "%lld %lld %lf %c",
                                   &u, &v, &w, &trailing);
    if (fields < 2 || fields > 3) {
      return Fail(line_number,
                  "expected `u v [weight]` with numeric fields");
    }
    if (fields == 2) w = 1.0;
    if (u < 0 || v < 0) {
      return Fail(line_number, "node ids must be nonnegative");
    }
    if (u > kMaxNodeId || v > kMaxNodeId) {
      return Fail(line_number, "node id overflows the 32-bit id space");
    }
    // NOTE: `w <= 0` would pass NaN (every comparison with NaN is
    // false); test the acceptance condition, not the rejection one.
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Fail(line_number, "edge weight must be finite and positive");
    }
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v), w});
    max_node = std::max(max_node, static_cast<NodeId>(std::max(u, v)));
  }
  NodeId n = max_node + 1;
  if (declared_nodes >= 0) {
    if (declared_nodes < n) {
      return Fail(0, "declared node count is smaller than the largest id");
    }
    n = declared_nodes;
  }
  GraphBuilder builder(n);
  for (const ParsedEdge& e : edges) builder.AddEdge(e.u, e.v, e.weight);
  GraphParseResult result;
  result.graph = builder.Build();
  return result;
}

GraphParseResult ReadEdgeListOrError(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Fail(0, "cannot open file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseEdgeListOrError(buffer.str());
}

std::optional<Graph> ParseEdgeList(const std::string& text) {
  return ParseEdgeListOrError(text).graph;
}

std::optional<Graph> ReadEdgeList(const std::string& path) {
  return ReadEdgeListOrError(path).graph;
}

std::string WriteEdgeListString(const Graph& g) {
  std::string out = "# nodes " + std::to_string(g.NumNodes()) + "\n";
  char buf[96];
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] < u) continue;  // Each undirected edge once.
      if (weights[i] == 1.0) {
        std::snprintf(buf, sizeof(buf), "%d %d\n", u, heads[i]);
      } else {
        std::snprintf(buf, sizeof(buf), "%d %d %.17g\n", u, heads[i],
                      weights[i]);
      }
      out += buf;
    }
  }
  return out;
}

bool WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << WriteEdgeListString(g);
  return static_cast<bool>(file);
}

GraphParseResult ParseMetisOrError(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  // Header: n m [fmt], skipping comments.
  long long n = 0, m = 0;
  std::string fmt = "0";
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    // CRLF/trailing-blank tolerance, same as the edge-list parser.
    line.erase(line.find_last_not_of(" \t\r\n\f\v") + 1);
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    if (start == line.size() || line[start] == '%') continue;
    std::istringstream header(line.substr(start));
    if (!(header >> n >> m)) {
      return Fail(line_number, "header must be `n m [fmt]`");
    }
    header >> fmt;  // Optional.
    have_header = true;
    break;
  }
  if (!have_header) return Fail(0, "missing METIS header line");
  const int header_line = line_number;
  if (n < 0 || m < 0) {
    return Fail(header_line, "node/edge counts must be nonnegative");
  }
  if (n > kMaxNodeId + 1) {
    return Fail(header_line, "node count overflows the 32-bit id space");
  }
  const bool edge_weights = !fmt.empty() && fmt.back() == '1' &&
                            (fmt == "1" || fmt == "001" || fmt == "01");
  if (fmt != "0" && fmt != "00" && fmt != "000" && !edge_weights) {
    return Fail(header_line,
                "unsupported fmt field (vertex weights/sizes)");
  }

  GraphBuilder builder(static_cast<NodeId>(n));
  long long arcs_seen = 0;
  NodeId node = 0;
  while (node < n && std::getline(in, line)) {
    ++line_number;
    line.erase(line.find_last_not_of(" \t\r\n\f\v") + 1);
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    if (start < line.size() && line[start] == '%') continue;
    std::istringstream fields(line);
    long long neighbor;
    while (fields >> neighbor) {
      double weight = 1.0;
      if (edge_weights && !(fields >> weight)) {
        return Fail(line_number, "missing edge weight after neighbor id");
      }
      if (neighbor < 1 || neighbor > n) {
        return Fail(line_number, "neighbor id out of range [1, n]");
      }
      // Comparison-based rejection would let NaN through; require the
      // acceptance condition explicitly.
      if (!(weight > 0.0) || !std::isfinite(weight)) {
        return Fail(line_number, "edge weight must be finite and positive");
      }
      const NodeId head = static_cast<NodeId>(neighbor - 1);
      if (head == node) {
        return Fail(line_number, "self-loops are not representable");
      }
      ++arcs_seen;
      // Each undirected edge appears in both endpoint lines; add once.
      if (head > node) builder.AddEdge(node, head, weight);
    }
    ++node;
  }
  if (node != n) {
    return Fail(0, "truncated input: " + std::to_string(node) + " of " +
                       std::to_string(n) + " node lines present");
  }
  if (arcs_seen != 2 * m) {
    return Fail(0, "adjacency lists contain " + std::to_string(arcs_seen) +
                       " arcs, header promised " + std::to_string(2 * m));
  }
  Graph g = builder.Build();
  if (g.NumEdges() != m) {
    return Fail(0, "adjacency lists are not symmetric");
  }
  GraphParseResult result;
  result.graph = std::move(g);
  return result;
}

GraphParseResult ReadMetisOrError(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Fail(0, "cannot open file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseMetisOrError(buffer.str());
}

std::optional<Graph> ParseMetis(const std::string& text) {
  return ParseMetisOrError(text).graph;
}

std::optional<Graph> ReadMetis(const std::string& path) {
  return ReadMetisOrError(path).graph;
}

std::string WriteMetisString(const Graph& g) {
  bool weighted = false;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId head : g.Heads(u)) {
      IMPREG_CHECK_MSG(head != u, "METIS format cannot express self-loops");
    }
    for (double weight : g.Weights(u)) {
      if (weight != 1.0) weighted = true;
    }
  }
  std::string out = std::to_string(g.NumNodes()) + " " +
                    std::to_string(g.NumEdges()) +
                    (weighted ? " 001" : "") + "\n";
  char buf[64];
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto heads = g.Heads(u);
    const auto weights = g.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(heads[i] + 1);
      if (weighted) {
        std::snprintf(buf, sizeof(buf), " %.17g", weights[i]);
        out += buf;
      }
    }
    out += '\n';
  }
  return out;
}

bool WriteMetis(const Graph& g, const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << WriteMetisString(g);
  return static_cast<bool>(file);
}

}  // namespace impreg
