// serve_bench — the serving benchmark: one closed-loop client drives a
// QueryEngine over a seeded whiskered social graph the way
// `impreg_cli serve` does (edits appended to the WAL before they reach
// the engine, queries pinned at the epoch they were issued at, every
// response rendered through QueryResponseToJson), then checks a seeded
// sample of the answers against the bare solvers. See
// perfbench/README.md for the workloads and the layer → end-to-end map.
//
// Usage:
//   serve_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//               [--state-dir=DIR] [--trace-dir=DIR] [--inject-wrong-answer]
//
// --trace=0 sets up once, serves for S seconds and reports the
// end-to-end metrics of that round, after a {"round": ...} line with its
// raw figures (run.py pools several such processes into one result).
// --trace=1 serves the same op stream twice for S/2 seconds each,
// untraced then traced with spans around every layer call, checks that
// both passes answered identically, publishes and recovers a snapshot,
// and reports the per-layer metrics. The last stdout line is the result
// object; earlier lines are a metadata object and a human-readable
// summary. --inject-wrong-answer corrupts one sampled answer before the
// oracle sees it (the self-test uses it).

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "graph/social.h"
#include "linalg/simd/simd.h"
#include "oracle.h"
#include "service/durability/recovery.h"
#include "service/durability/snapshot.h"
#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace durability = impreg::durability;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using impreg::DynamicGraph;
using impreg::Graph;
using impreg::NodeId;
using impreg::Query;
using impreg::QueryEngine;
using impreg::QueryMethod;
using impreg::QueryRequest;
using impreg::QueryResponse;
using impreg::QuerySource;
using impreg::SolveStatus;
using impreg::Vector;

// ---------------------------------------------------------------------------
// Workloads.

constexpr int kBatchSize = 16;
constexpr int kWarmupBatches = 32;
constexpr std::uint64_t kGraphSeed = 2012;
/// Core size of the small graph service.n_scaling divides by (~23k nodes).
constexpr NodeId kScalingCoreNodes = 19000;
constexpr int kScalingQueries = 256;
/// Oracle reservoir per (method, source) stratum.
constexpr std::size_t kSamplesPerStratum = 8;
/// Dense diffusion sidecar solves per traced run (each is a full solve).
constexpr int kMaxDenseSidecars = 24;

constexpr double kZipfExponent = 1.1;
constexpr double kGamma = 0.15;
constexpr double kPushEpsilon = 1e-4;
constexpr double kHeatT = 10.0;
constexpr double kHeatDelta = 1e-4;
constexpr double kHeatTail = 1e-4;
constexpr int kNibbleSteps = 40;
constexpr double kNibbleEpsilon = 1e-4;
constexpr double kDenseTolerance = 1e-4;
/// community-mixed: one ppr-dense query per block of this many queries.
/// Not 32: at 16 queries a batch, half the batches would carry a dense
/// solve and the median batch would sit on the edge between the two
/// latency modes.
constexpr int kDenseEvery = 24;

struct WorkloadSpec {
  const char* name;
  /// Chung–Lu core size; whiskers and communities add ~11% + ~2k nodes.
  NodeId core_nodes;
  /// One edge edit per block of this many operations (0 = read-only):
  /// half adds of new edges at uniformly random endpoints, half
  /// removals of earlier adds.
  int edit_every;
  /// Zipf(1.1) seeds over node ids; otherwise uniform.
  bool zipf_seeds;
  /// hk-relax / Nibble halves plus a ppr-dense share; otherwise push.
  bool community;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ppr-uniform", 160000, 0, false, false},
    {"ppr-hot-writes", 80000, 20, true, false},
    {"community-mixed", 80000, 50, true, true},
};

Graph BuildGraph(NodeId core_nodes) {
  impreg::SocialGraphParams params;
  params.core_nodes = core_nodes;
  params.num_whiskers = static_cast<int>(core_nodes / 80);
  impreg::Rng rng(kGraphSeed);
  return impreg::MakeWhiskeredSocialGraph(params, rng).graph;
}

Query MakeQuery(QueryMethod method, NodeId seed) {
  Query q;
  q.method = method;
  q.seeds = {seed};
  switch (method) {
    case QueryMethod::kPprPush:
      q.gamma = kGamma;
      q.epsilon = kPushEpsilon;
      break;
    case QueryMethod::kPprDense:
      q.gamma = kGamma;
      q.tolerance = kDenseTolerance;
      break;
    case QueryMethod::kHeatKernel:
      q.t = kHeatT;
      q.delta = kHeatDelta;
      q.epsilon = kHeatTail;
      break;
    case QueryMethod::kNibble:
      q.steps = kNibbleSteps;
      q.epsilon = kNibbleEpsilon;
      break;
  }
  return q;
}

struct Op {
  enum class Kind { kQuery, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kQuery;
  NodeId u = 0;
  NodeId v = 0;
  Query query;
};

/// One event at a random position in every block of `every` slots:
/// the event's share is exact in every window, so a run's mix (and its
/// cost) does not drift with the seed.
class BlockSchedule {
 public:
  explicit BlockSchedule(int every) : every_(every) {}

  template <typename Rng>
  bool Next(Rng& rng) {
    if (every_ <= 0) return false;
    if (slot_ == 0) hit_ = static_cast<int>(rng() % every_);
    const bool hit = slot_ == hit_;
    slot_ = (slot_ + 1) % every_;
    return hit;
  }

 private:
  int every_;
  int slot_ = 0;
  int hit_ = 0;
};

/// The seeded operation stream. A pure function of (spec, base graph,
/// seed): it never reads engine state, so a faster program consumes a
/// longer prefix of the same stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const Graph& base, std::uint64_t seed)
      : spec_(spec),
        base_(base),
        n_(base.NumNodes()),
        rng_(seed),
        edits_(spec.edit_every),
        dense_(spec.community ? kDenseEvery : 0) {
    if (spec.zipf_seeds) {
      zipf_cdf_.resize(n_);
      double total = 0.0;
      for (NodeId k = 0; k < n_; ++k) {
        total += std::pow(static_cast<double>(k) + 1.0, -kZipfExponent);
        zipf_cdf_[k] = total;
      }
      for (double& c : zipf_cdf_) c /= total;
    }
  }

  Op Next() {
    Op op;
    if (edits_.Next(rng_)) {
      if (!live_.empty() && Uniform() < 0.5) {
        const std::size_t i = rng_() % live_.size();
        op.kind = Op::Kind::kRemoveEdge;
        op.u = live_[i].first;
        op.v = live_[i].second;
        added_.erase(live_[i]);
        live_[i] = live_.back();
        live_.pop_back();
        return op;
      }
      std::pair<NodeId, NodeId> edge;
      do {
        const NodeId a = UniformNode();
        const NodeId b = UniformNode();
        edge = {std::min(a, b), std::max(a, b)};
      } while (edge.first == edge.second || HasEdge(edge));
      op.kind = Op::Kind::kAddEdge;
      op.u = edge.first;
      op.v = edge.second;
      live_.push_back(edge);
      added_.insert(edge);
      return op;
    }
    op.query = NextQuery();
    return op;
  }

  Query NextQuery() {
    QueryMethod method = QueryMethod::kPprPush;
    if (dense_.Next(rng_)) {
      method = QueryMethod::kPprDense;
    } else if (spec_.community) {
      method = heat_.Next(rng_) ? QueryMethod::kHeatKernel
                                : QueryMethod::kNibble;
    }
    return MakeQuery(method, NextSeed());
  }

 private:
  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }
  NodeId UniformNode() {
    return static_cast<NodeId>(rng_() % static_cast<std::uint64_t>(n_));
  }
  NodeId NextSeed() {
    if (!spec_.zipf_seeds) return UniformNode();
    const auto it =
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), Uniform());
    return static_cast<NodeId>(
        std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(), n_ - 1));
  }
  bool HasEdge(const std::pair<NodeId, NodeId>& edge) const {
    if (added_.count(edge) > 0) return true;
    NodeId a = edge.first;
    NodeId b = edge.second;
    if (base_.OutDegree(a) > base_.OutDegree(b)) std::swap(a, b);
    const auto heads = base_.Heads(a);
    return std::find(heads.begin(), heads.end(), b) != heads.end();
  }

  const WorkloadSpec& spec_;
  const Graph& base_;
  NodeId n_;
  std::mt19937_64 rng_;
  BlockSchedule edits_;
  BlockSchedule dense_;
  /// Equal hk-relax and Nibble shares: one of each per pair.
  BlockSchedule heat_{2};
  std::vector<double> zipf_cdf_;
  /// Edges this stream added and has not removed yet.
  std::vector<std::pair<NodeId, NodeId>> live_;
  std::set<std::pair<NodeId, NodeId>> added_;
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory by the benchmark around its calls into each
// layer, written out when the run ends.

std::int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;          ///< Index of the enclosing span, -1 for a root.
    std::int64_t batch;  ///< Client batch the span belongs to (-1: none).
  };

  int Begin(const char* name, int parent, std::int64_t batch) {
    spans_.push_back(Span{name, NsSince(origin_), -1, parent, batch});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NsSince(origin_); }

  const std::vector<Span>& spans() const { return spans_; }

  std::vector<double> Durations(const char* name, double unit_ns) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
      }
    }
    return out;
  }

  /// Duration minus the part covered by child spans.
  std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// A span that is recorded only when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, std::int64_t batch)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, batch) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// The server: engine + WAL + snapshots, driven like `impreg_cli serve`.

class Server {
 public:
  /// Engine options stay at their defaults: cache on, no sharding, no
  /// admission control.
  Server(const Graph& base, const std::string& state_dir)
      : engine(base),
        wal_path_(state_dir + "/wal"),
        snapshot_dir_(state_dir + "/snapshots") {
    // Appends go to the page cache without an fsync per record: the
    // cost a memory-backed WAL has, so the disk is not what is measured.
    durability::WalOptions options;
    options.sync_every = 0;
    std::string detail;
    if (wal.Open(wal_path_, options, &detail) != SolveStatus::kConverged) {
      std::fprintf(stderr, "serve_bench: cannot open WAL %s: %s\n",
                   wal_path_.c_str(), detail.c_str());
      std::exit(1);
    }
  }

  const std::string& wal_path() const { return wal_path_; }
  const std::string& snapshot_dir() const { return snapshot_dir_; }

  QueryEngine engine;
  durability::WriteAheadLog wal;
  std::int64_t next_request_id = 0;

 private:
  std::string wal_path_;
  std::string snapshot_dir_;
};

/// The queries of one client batch issued at one epoch: they pin a
/// snapshot at issue time and run against it after the batch's edits
/// have landed, as `impreg_cli serve` groups them.
struct Group {
  DynamicGraph::SnapshotView snap;
  std::vector<QueryRequest> requests;
  std::vector<QueryResponse> responses;
  std::vector<std::string> lines;
};

struct BatchResult {
  std::int64_t wall_ns = 0;
  int queries = 0;
  int edits = 0;
  /// Unacknowledged edits and unusable statuses.
  std::int64_t failed = 0;
  std::vector<Group> groups;
  std::vector<std::int64_t> edit_ack_ns;
  std::vector<EditRecord> applied;
  std::vector<std::string> errors;
};

/// WAL append, then the engine edit. False when the WAL refused it (the
/// edit is then not acknowledged and not applied).
bool ApplyEdit(Server& server, const Op& op, Tracer* tracer, int parent,
               std::int64_t batch_id, BatchResult& out) {
  const bool remove = op.kind == Op::Kind::kRemoveEdge;
  ScopedSpan edit_span(tracer, "edit", parent, batch_id);
  const auto start = Clock::now();
  SolveStatus appended;
  std::string detail;
  {
    ScopedSpan span(tracer, "durability.wal_append", edit_span.id(), batch_id);
    appended = remove ? server.wal.AppendRemoveEdge(op.u, op.v, 0.0, &detail)
                      : server.wal.AppendAddEdge(op.u, op.v, 1.0, &detail);
  }
  if (appended != SolveStatus::kConverged) {
    out.errors.push_back("edit not acknowledged: " + detail);
    return false;
  }
  {
    ScopedSpan span(tracer, "service.edit", edit_span.id(), batch_id);
    if (remove) {
      server.engine.RemoveEdge(op.u, op.v);
    } else {
      server.engine.AddEdge(op.u, op.v);
    }
  }
  out.edit_ack_ns.push_back(NsSince(start));
  out.applied.push_back(EditRecord{remove, op.u, op.v});
  return true;
}

BatchResult ServeBatch(Server& server, const std::vector<Op>& ops,
                       Tracer* tracer, std::int64_t batch_id) {
  BatchResult out;
  const auto start = Clock::now();
  {
    ScopedSpan batch_span(tracer, "batch", -1, batch_id);
    for (const Op& op : ops) {
      if (op.kind == Op::Kind::kQuery) {
        ++out.queries;
        if (out.groups.empty() ||
            out.groups.back().snap.epoch() != server.engine.Epoch()) {
          out.groups.push_back(Group{server.engine.PinSnapshot(), {}, {}, {}});
        }
        QueryRequest request;
        request.id = "q" + std::to_string(server.next_request_id++);
        request.query = op.query;
        out.groups.back().requests.push_back(std::move(request));
        continue;
      }
      ++out.edits;
      if (!ApplyEdit(server, op, tracer, batch_span.id(), batch_id, out)) {
        ++out.failed;
      }
    }
    for (Group& group : out.groups) {
      std::vector<Query> queries;
      queries.reserve(group.requests.size());
      for (const QueryRequest& request : group.requests) {
        queries.push_back(request.query);
      }
      {
        ScopedSpan span(tracer, "service.run_batch", batch_span.id(),
                        batch_id);
        group.responses = server.engine.RunBatchOn(group.snap, queries);
      }
      group.lines.reserve(group.requests.size());
      for (std::size_t i = 0; i < group.requests.size(); ++i) {
        ScopedSpan span(tracer, "wire.encode", batch_span.id(), batch_id);
        group.lines.push_back(impreg::QueryResponseToJson(
            group.requests[i], group.responses[i], group.snap.epoch()));
      }
      for (const QueryResponse& response : group.responses) {
        if (!impreg::StatusIsUsable(response.status)) {
          ++out.failed;
          out.errors.push_back(std::string("unusable status ") +
                               impreg::SolveStatusName(response.status));
        }
      }
    }
  }
  out.wall_ns = NsSince(start);
  return out;
}

// ---------------------------------------------------------------------------
// Bookkeeping between batches, outside every timed interval.

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One response's digest: the wire line plus every score bit.
std::uint64_t ResponseDigest(const std::string& line,
                             const QueryResponse& response) {
  std::uint64_t h = Fnv1a(0xcbf29ce484222325ULL, line.data(), line.size());
  return Fnv1a(h, response.scores.data(),
               response.scores.size() * sizeof(double));
}

class Bookkeeper {
 public:
  explicit Bookkeeper(std::uint64_t seed) : sample_rng(seed ^ 0x5a3c9e1dULL) {}

  /// Records a served batch. `sample` feeds the oracle reservoirs;
  /// returns the indices of the groups at which the engine rebuilt its
  /// frozen CSR (a non-push answer computed at a new epoch).
  std::vector<std::size_t> Absorb(const BatchResult& batch, bool sample) {
    failed += batch.failed;
    attempted += batch.queries + batch.edits;
    edits.insert(edits.end(), batch.applied.begin(), batch.applied.end());
    for (const std::string& error : batch.errors) {
      if (errors.size() < 8) errors.push_back(error);
    }
    std::vector<std::size_t> freezes;
    for (std::size_t g = 0; g < batch.groups.size(); ++g) {
      const Group& group = batch.groups[g];
      bool computed_non_push = false;
      for (std::size_t i = 0; i < group.requests.size(); ++i) {
        const Query& query = group.requests[i].query;
        const QueryResponse& response = group.responses[i];
        if (query.method != QueryMethod::kPprPush &&
            response.source != QuerySource::kCached) {
          computed_non_push = true;
        }
        AbsorbResponse(query, response, group.snap.epoch(), sample);
        if (keep_digests) {
          digests.push_back(ResponseDigest(group.lines[i], response));
        }
        if (sample) line_bytes.push_back(group.lines[i].size());
      }
      if (computed_non_push && group.snap.epoch() != frozen_epoch) {
        frozen_epoch = group.snap.epoch();
        freezes.push_back(g);
      }
    }
    return freezes;
  }

  std::vector<Sample> TakeSamples() {
    std::vector<Sample> out;
    for (auto& [stratum, reservoir] : strata_) {
      for (Sample& s : reservoir.samples) out.push_back(std::move(s));
    }
    strata_.clear();
    return out;
  }

  std::mt19937_64 sample_rng;
  bool keep_digests = false;
  std::vector<std::uint64_t> digests;
  std::vector<double> line_bytes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t cold = 0;
  std::int64_t warm = 0;
  std::int64_t cached = 0;
  std::vector<EditRecord> edits;
  std::vector<std::string> errors;
  /// The engine's frozen-CSR epoch as the responses imply it.
  std::int64_t frozen_epoch = -1;

 private:
  struct Reservoir {
    std::int64_t seen = 0;
    std::vector<Sample> samples;
  };

  void AbsorbResponse(const Query& query, const QueryResponse& response,
                      std::int64_t epoch, bool sample) {
    const std::string key = QueryEngine::CanonicalKey(query);
    QuerySource origin = response.source;
    if (response.source == QuerySource::kCached) {
      const auto it = origins_.find(key);
      origin = it != origins_.end() ? it->second : QuerySource::kCold;
    } else if (impreg::StatusIsUsable(response.status)) {
      origins_[key] = response.source;
    }
    if (!sample) return;
    switch (response.source) {
      case QuerySource::kCold: ++cold; break;
      case QuerySource::kWarm: ++warm; break;
      case QuerySource::kCached: ++cached; break;
    }
    // Reservoir sampling per (method, source): a uniform sample of each
    // stratum however long the run is.
    Reservoir& r = strata_[static_cast<int>(query.method) * 3 +
                          static_cast<int>(response.source)];
    ++r.seen;
    if (r.samples.size() < kSamplesPerStratum) {
      r.samples.push_back(CaptureSample(query, response, epoch, origin));
      return;
    }
    const std::uint64_t j =
        sample_rng() % static_cast<std::uint64_t>(r.seen);
    if (j < kSamplesPerStratum) {
      r.samples[j] = CaptureSample(query, response, epoch, origin);
    }
  }

  std::unordered_map<std::string, QuerySource> origins_;
  std::map<int, Reservoir> strata_;
};

// ---------------------------------------------------------------------------
// Deployment: graph + server + op stream, set up and warmed.

struct Deployment {
  Graph graph;
  std::unique_ptr<Server> server;
  std::unique_ptr<OpStream> ops;
  std::unique_ptr<Bookkeeper> book;
  std::int64_t next_batch = 0;
};

std::vector<Op> NextOps(OpStream& ops) {
  std::vector<Op> batch(kBatchSize);
  for (Op& op : batch) op = ops.Next();
  return batch;
}

/// Graph generation, engine and WAL construction, and the untimed
/// cache warm-up prefix of the op stream: what setup_s measures.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   std::uint64_t seed,
                                   const std::string& state_dir) {
  auto d = std::make_unique<Deployment>();
  d->graph = BuildGraph(spec.core_nodes);
  std::error_code ec;
  fs::remove_all(state_dir, ec);
  fs::create_directories(state_dir);
  d->server = std::make_unique<Server>(d->graph, state_dir);
  d->ops = std::make_unique<OpStream>(spec, d->graph, seed);
  d->book = std::make_unique<Bookkeeper>(seed);
  for (int b = 0; b < kWarmupBatches; ++b) {
    const BatchResult batch =
        ServeBatch(*d->server, NextOps(*d->ops), nullptr, d->next_batch++);
    d->book->Absorb(batch, /*sample=*/false);
  }
  return d;
}

std::int64_t ParallelBusyNs() {
  std::int64_t total = 0;
  const std::string prefix = "parallel.participant.";
  const std::string suffix = ".busy_ns";
  for (const auto& c : impreg::MetricsRegistry::Get().Snapshot().counters) {
    if (c.name.size() > prefix.size() + suffix.size() &&
        c.name.compare(0, prefix.size(), prefix) == 0 &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += c.value;
    }
  }
  return total;
}

template <typename T>
double PayloadBytes(const T& values) {
  return static_cast<double>(values.size() *
                             sizeof(typename T::value_type));
}

/// Payload bytes per cache entry (0 for an empty cache).
double CacheBytesPerEntry(const impreg::ResultCache& cache) {
  double bytes = 0.0;
  std::size_t entries = 0;
  for (const auto& e : cache.ExportEntries()) {
    const impreg::CachedResult& r = *e.result;
    bytes += PayloadBytes(r.scores) + PayloadBytes(r.set) + PayloadBytes(r.p) +
             PayloadBytes(r.r) + PayloadBytes(*e.key) +
             PayloadBytes(*e.warm_key);
    ++entries;
  }
  return entries > 0 ? bytes / static_cast<double>(entries) : 0.0;
}

/// Work the traced run does after each batch, outside the batch span:
/// the DynamicGraph edit on a shadow copy, the CSR freeze the engine
/// just did, and bare solver calls on the batch's pinned snapshot.
class Sidecars {
 public:
  Sidecars(Tracer& tracer, const Graph& base,
           const std::vector<EditRecord>& edits_so_far)
      : tracer_(tracer), shadow_(DynamicGraph::FromGraph(base)) {
    for (const EditRecord& e : edits_so_far) Apply(e);
    busy_mark_ = ParallelBusyNs();
  }

  void After(const BatchResult& batch, const std::vector<std::size_t>& freezes,
             const impreg::ResultCache& cache, std::int64_t batch_id) {
    const std::int64_t busy = ParallelBusyNs();
    busy_in_batches += busy - busy_mark_;
    // Edits empty the cache of whole-graph answers, so the cache is
    // measured after every batch, not once at the end.
    const double bytes_per_entry = CacheBytesPerEntry(cache);
    if (bytes_per_entry > 0.0) cache_bytes_per_entry.push_back(bytes_per_entry);
    for (const EditRecord& e : batch.applied) {
      ScopedSpan span(&tracer_, "streaming.edit", -1, batch_id);
      Apply(e);
    }
    for (std::size_t g : freezes) {
      const Group& group = batch.groups[g];
      ScopedSpan span(&tracer_, "streaming.freeze", -1, batch_id);
      frozen_ = std::make_unique<Graph>(group.snap.graph().ToGraph());
      frozen_epoch_ = group.snap.epoch();
    }
    bool done[4] = {false, false, false, false};
    for (const Group& group : batch.groups) {
      for (std::size_t i = 0; i < group.requests.size(); ++i) {
        const Query& q = group.requests[i].query;
        const int m = static_cast<int>(q.method);
        if (done[m] || group.responses[i].source == QuerySource::kCached) {
          continue;
        }
        done[m] = true;
        Solve(q, group.snap, batch_id);
      }
    }
    busy_mark_ = ParallelBusyNs();
  }

  std::vector<double> push_pushes, push_support, hk_support, nibble_support,
      dense_iterations, cache_bytes_per_entry;
  std::int64_t busy_in_batches = 0;

 private:
  void Apply(const EditRecord& e) {
    if (e.remove) {
      shadow_.RemoveEdge(e.u, e.v);
    } else {
      shadow_.AddEdge(e.u, e.v);
    }
  }

  static double Support(const Vector& v) {
    return static_cast<double>(
        std::count_if(v.begin(), v.end(), [](double x) { return x != 0.0; }));
  }

  void Solve(const Query& q, const DynamicGraph::SnapshotView& snap,
             std::int64_t batch_id) {
    const DynamicGraph& g = snap.graph();
    const Vector seed = SeedVector(q, g.NumNodes());
    if (q.method == QueryMethod::kPprPush) {
      Vector p, r;
      impreg::SolverDiagnostics diag;
      std::int64_t pushes;
      {
        ScopedSpan span(&tracer_, "partition.push", -1, batch_id);
        pushes = ColdPush(g, q, seed, p, r, diag);
      }
      push_pushes.push_back(static_cast<double>(pushes));
      push_support.push_back(Support(p));
      return;
    }
    // The community and dense methods run on the frozen CSR; the engine
    // froze this epoch because it computed this answer.
    if (frozen_ == nullptr || frozen_epoch_ != snap.epoch()) return;
    if (q.method == QueryMethod::kHeatKernel) {
      ScopedSpan span(&tracer_, "partition.hkrelax", -1, batch_id);
      hk_support.push_back(Support(BareHeatKernel(*frozen_, q, seed).rho));
    } else if (q.method == QueryMethod::kNibble) {
      // The final truncated walk is usually empty by the last step, so
      // Nibble's support is the mean support per step (work ÷ steps).
      std::int64_t work;
      {
        ScopedSpan span(&tracer_, "partition.nibble", -1, batch_id);
        work = BareNibble(*frozen_, q, seed).work;
      }
      nibble_support.push_back(static_cast<double>(work) / q.steps);
    } else if (static_cast<int>(dense_iterations.size()) <
               kMaxDenseSidecars) {
      ScopedSpan span(&tracer_, "diffusion.ppr_dense", -1, batch_id);
      dense_iterations.push_back(
          static_cast<double>(BareDensePpr(*frozen_, q, seed).iterations));
    }
  }

  Tracer& tracer_;
  DynamicGraph shadow_;
  std::unique_ptr<Graph> frozen_;
  std::int64_t frozen_epoch_ = -1;
  std::int64_t busy_mark_ = 0;
};

struct ServeStats {
  std::vector<double> batch_ns;
  std::vector<double> edit_ack_ns;
  std::int64_t queries = 0;
  std::int64_t edits = 0;
  std::int64_t batches = 0;
  double serve_ns = 0.0;

  void Append(const ServeStats& more) {
    batch_ns.insert(batch_ns.end(), more.batch_ns.begin(), more.batch_ns.end());
    edit_ack_ns.insert(edit_ack_ns.end(), more.edit_ack_ns.begin(),
                       more.edit_ack_ns.end());
    queries += more.queries;
    edits += more.edits;
    batches += more.batches;
    serve_ns += more.serve_ns;
  }
};

/// Serves batches until `seconds` have passed (or exactly `max_batches`
/// batches when it is ≥ 0). Only the batches themselves are timed.
ServeStats ServeFor(Deployment& d, double seconds, std::int64_t max_batches,
                    bool sample, Tracer* tracer, Sidecars* sidecars) {
  ServeStats stats;
  const auto start = Clock::now();
  for (;;) {
    if (max_batches >= 0 ? stats.batches >= max_batches
                         : NsSince(start) >= seconds * 1e9) {
      break;
    }
    const std::vector<Op> ops = NextOps(*d.ops);
    const std::int64_t batch_id = d.next_batch++;
    const BatchResult batch = ServeBatch(*d.server, ops, tracer, batch_id);
    ++stats.batches;
    stats.batch_ns.push_back(static_cast<double>(batch.wall_ns));
    stats.serve_ns += static_cast<double>(batch.wall_ns);
    stats.queries += batch.queries;
    stats.edits += batch.edits;
    for (std::int64_t ns : batch.edit_ack_ns) {
      stats.edit_ack_ns.push_back(static_cast<double>(ns));
    }
    const std::vector<std::size_t> freezes = d.book->Absorb(batch, sample);
    if (sidecars != nullptr) {
      sidecars->After(batch, freezes, d.server->engine.cache(), batch_id);
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

/// Linear-interpolated percentile (0 for an empty sample).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_wrong_answer = false;
  std::string state_dir = ".bench_build/perfbench/state";
  std::string trace_dir = ".bench_build/perfbench/traces";
};

void PrintMeta(const Options& opts, const Graph& graph, int threads) {
  namespace simd = impreg::simd;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"threads\": %d, \"build_type\": "
      "\"%s\", \"simd\": {\"dense\": \"%s\", \"row_gather\": \"%s\", "
      "\"row_block4\": \"%s\"}, \"graph_n\": %d, \"graph_m\": %lld, "
      "\"batch_size\": %d, \"clients\": 1, \"loop\": \"closed\", "
      "\"state_dir\": \"%s\", \"wal_storage\": \"%s, checkout-local, "
      "no fsync per append\", \"snapshots\": \"traced edit workloads, "
      "one mid-pass between batches\", \"edit_every\": %d}}\n",
      opts.spec->name, static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), threads,
      PERFBENCH_BUILD_TYPE,
      simd::SimdLevelName(simd::ActiveSimdLevel(simd::SimdKernel::kDense)),
      simd::SimdLevelName(simd::ActiveSimdLevel(simd::SimdKernel::kRowGather)),
      simd::SimdLevelName(simd::ActiveSimdLevel(simd::SimdKernel::kRowBlock4)),
      graph.NumNodes(), static_cast<long long>(graph.NumEdges()),
      kBatchSize, opts.state_dir.c_str(),
      FilesystemType(opts.state_dir).c_str(), opts.spec->edit_every);
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Runs the oracle over the deployment's samples; returns mismatches.
std::int64_t RunOracle(Deployment& d, const Options& opts) {
  std::vector<Sample> samples = d.book->TakeSamples();
  if (opts.inject_wrong_answer && !samples.empty()) {
    Sample& victim = samples.front();
    if (victim.scores.empty()) {
      victim.scores.emplace_back(0, 10.0);
    } else {
      victim.scores.front().second += 10.0;
    }
  }
  const auto start = Clock::now();
  const OracleReport report = CheckSamples(d.graph, d.book->edits, samples);
  std::printf("oracle: %d answers re-solved in %.2f s (cold %lld, warm %lld, "
              "cached %lld served), %d mismatches\n",
              report.checked, static_cast<double>(NsSince(start)) / 1e9,
              static_cast<long long>(d.book->cold),
              static_cast<long long>(d.book->warm),
              static_cast<long long>(d.book->cached), report.mismatches);
  for (const std::string& detail : report.details) {
    std::printf("oracle mismatch: %s\n", detail.c_str());
  }
  for (const std::string& error : d.book->errors) {
    std::printf("serving error: %s\n", error.c_str());
  }
  // An empty sample proves nothing: count it as a failure.
  return report.checked > 0 ? report.mismatches : 1;
}

/// Per-query wall time of the workload's query mix through RunBatch,
/// cache off (every answer cold), read-only.
double PerQueryNs(const WorkloadSpec& spec, const Graph& graph,
                  std::uint64_t seed) {
  QueryEngine::Options options;
  options.enable_cache = false;
  QueryEngine engine(graph, options);
  OpStream stream(spec, graph, seed);
  std::vector<Query> batch(kBatchSize);
  double total_ns = 0.0;
  // The first batch warms the pool and the allocator, untimed.
  for (int b = -1; b < kScalingQueries / kBatchSize; ++b) {
    for (Query& q : batch) q = stream.NextQuery();
    const auto start = Clock::now();
    const std::vector<QueryResponse> responses = engine.RunBatch(batch);
    if (b >= 0) total_ns += static_cast<double>(NsSince(start));
  }
  return total_ns / kScalingQueries;
}

/// One untraced round: set up, serve for `seconds`, check answers.
/// Prints the round's raw figures as a {"round": ...} line for run.py,
/// which pools several rounds (separate processes) into one result.
int RunUntraced(const Options& opts) {
  const auto start = Clock::now();
  auto d = Deploy(*opts.spec, opts.seed, opts.state_dir);
  const double setup_s = static_cast<double>(NsSince(start)) / 1e9;
  PrintMeta(opts, d->graph, impreg::ImpregNumThreads());
  const ServeStats stats =
      ServeFor(*d, opts.seconds, -1, /*sample=*/true, nullptr, nullptr);
  const double peak_rss_mb = PeakRssMb();
  const std::int64_t failed = d->book->failed + RunOracle(*d, opts);
  const std::int64_t attempted = d->book->attempted;
  std::printf("served %lld queries and %lld edits in %lld batches over "
              "%.2f s of batch time; failed_frac %.6g; edit_p50_us %.3f, "
              "edit_p95_us %.3f (%zu edits)\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.edits),
              static_cast<long long>(stats.batches), stats.serve_ns / 1e9,
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              Percentile(stats.edit_ack_ns, 0.5) / 1e3,
              Percentile(stats.edit_ack_ns, 0.95) / 1e3,
              stats.edit_ack_ns.size());
  std::printf("{\"round\": {\"setup_s\": %.17g, \"queries\": %lld, "
              "\"serve_s\": %.17g, \"peak_rss_mb\": %.17g, \"batch_ms\": [",
              setup_s, static_cast<long long>(stats.queries),
              stats.serve_ns / 1e9, peak_rss_mb);
  for (std::size_t i = 0; i < stats.batch_ns.size(); ++i) {
    std::printf("%s%.17g", i > 0 ? ", " : "", stats.batch_ns[i] / 1e6);
  }
  std::printf("]}}\n");
  const std::vector<Metric> metrics = {
      {"setup_s", "s", setup_s},
      {"qps", "1/s",
       Ratio(static_cast<double>(stats.queries), stats.serve_ns / 1e9)},
      {"batch_p50_ms", "ms", Percentile(stats.batch_ns, 0.5) / 1e6},
      {"batch_p95_ms", "ms", Percentile(stats.batch_ns, 0.95) / 1e6},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  d.reset();
  std::error_code ec;
  fs::remove_all(opts.state_dir, ec);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

void WriteTrace(const Tracer& tracer, const Options& opts) {
  fs::create_directories(opts.trace_dir);
  const std::string path = opts.trace_dir + "/" + opts.spec->name + "-seed" +
                           std::to_string(opts.seed) + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  const std::vector<std::int64_t> self = tracer.SelfTimes();
  std::map<std::string, std::pair<double, double>> totals;  // total, self
  std::map<std::string, std::int64_t> counts;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld, \"parent\": %d, \"batch\": %lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]), s.parent,
                 static_cast<long long>(s.batch));
    auto& t = totals[s.name];
    t.first += static_cast<double>(s.end_ns - s.start_ns);
    t.second += static_cast<double>(self[i]);
    ++counts[s.name];
  }
  std::fclose(out);
  std::printf("trace: %zu spans in %s\n", spans.size(), path.c_str());
  std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : totals) {
    std::printf("%-24s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(counts[name]), t.first / 1e6,
                t.second / 1e6);
  }
}

/// Publishes a snapshot of the engine's graph and cache the way serve
/// does every K edits; returns its size in bytes, or -1 on failure.
double PublishSnapshot(const Server& server, Tracer& tracer,
                       std::int64_t batch_id) {
  durability::SnapshotWriteResult written;
  {
    ScopedSpan span(&tracer, "durability.snapshot", -1, batch_id);
    written = durability::WriteSnapshot(server.snapshot_dir(),
                                        server.engine.Epoch(),
                                        server.engine.graph(),
                                        server.engine.cache().ExportEntries());
  }
  std::error_code ec;
  const auto size = fs::file_size(written.path, ec);
  if (written.status != SolveStatus::kConverged || ec) {
    std::printf("snapshot failed: %s\n", written.detail.c_str());
    return -1.0;
  }
  return static_cast<double>(size);
}

int RunTraced(const Options& opts) {
  // Pass 1, untraced: the reference qps and digest stream. Each pass
  // serves half the run.
  auto d = Deploy(*opts.spec, opts.seed, opts.state_dir);
  PrintMeta(opts, d->graph, impreg::ImpregNumThreads());
  d->book->keep_digests = true;
  const ServeStats plain = ServeFor(*d, opts.seconds / 2, -1,
                                    /*sample=*/false, nullptr, nullptr);
  const std::vector<std::uint64_t> plain_digests = d->book->digests;
  d.reset();

  // Pass 2, traced: the same op stream from a fresh deployment, for
  // exactly as many batches.
  d = Deploy(*opts.spec, opts.seed, opts.state_dir);
  d->book->keep_digests = true;
  Tracer tracer;
  impreg::MetricsRegistry::Get().Reset();
  impreg::ImpregEnableMetrics(true);
  Sidecars sidecars(tracer, d->graph, d->book->edits);
  const impreg::ResultCacheStats cache_before =
      d->server->engine.cache().stats();
  // Snapshots are published between batches, once, halfway: a periodic
  // snapshot of today's dense cache payloads takes seconds, and inside
  // the timed batches it would make every run's qps hinge on how many
  // landed. Recovery below then loads it and replays the WAL suffix.
  const std::int64_t first_half = plain.batches / 2;
  ServeStats traced = ServeFor(*d, 0.0, first_half, /*sample=*/true, &tracer,
                               &sidecars);
  double snapshot_bytes = 0.0;
  if (opts.spec->edit_every > 0) {
    snapshot_bytes = PublishSnapshot(*d->server, tracer, d->next_batch);
  }
  traced.Append(ServeFor(*d, 0.0, plain.batches - first_half,
                         /*sample=*/true, &tracer, &sidecars));
  impreg::ImpregEnableMetrics(false);
  const impreg::ResultCacheStats cache_after =
      d->server->engine.cache().stats();

  // Tracing must be bit-neutral: both passes answered identically.
  const bool digests_match = d->book->digests == plain_digests;
  std::printf("digest check: %zu traced vs %zu untraced responses, %s\n",
              d->book->digests.size(), plain_digests.size(),
              digests_match ? "identical" : "DIFFERENT");

  std::int64_t mismatches = RunOracle(*d, opts);

  // Recovery of the final state, as a restart would do it.
  const std::int64_t final_epoch = d->server->engine.Epoch();
  const std::string wal_path = d->server->wal_path();
  const std::string snapshot_dir = d->server->snapshot_dir();
  d->server.reset();
  double recover_ms = 0.0;
  {
    durability::RecoveryOptions recovery;
    recovery.wal_path = wal_path;
    recovery.snapshot_dir = snapshot_dir;
    std::unique_ptr<QueryEngine> recovered;
    const auto start = Clock::now();
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(d->graph), QueryEngine::Options(), recovery,
        &recovered);
    recover_ms = static_cast<double>(NsSince(start)) / 1e6;
    if (report.status != SolveStatus::kConverged ||
        report.epoch != final_epoch) {
      std::printf("recovery: %s at epoch %lld, expected %lld: %s\n",
                  impreg::SolveStatusName(report.status),
                  static_cast<long long>(report.epoch),
                  static_cast<long long>(final_epoch), report.detail.c_str());
      ++mismatches;
    }
  }

  const double n_scaling =
      Ratio(PerQueryNs(*opts.spec, d->graph, opts.seed),
            PerQueryNs(*opts.spec, BuildGraph(kScalingCoreNodes), opts.seed));

  const std::int64_t failed = d->book->failed + mismatches +
                              (digests_match ? 0 : 1) +
                              (snapshot_bytes < 0.0 ? 1 : 0);
  const std::int64_t attempted = d->book->attempted;
  const double edits = static_cast<double>(traced.edits);
  const double queries = static_cast<double>(traced.queries);
  const double plain_qps =
      Ratio(static_cast<double>(plain.queries), plain.serve_ns / 1e9);
  const double traced_qps = Ratio(queries, traced.serve_ns / 1e9);
  const auto span_ms = [&](const char* name) {
    return tracer.Durations(name, 1e6);
  };
  const auto span_us = [&](const char* name) {
    return tracer.Durations(name, 1e3);
  };
  const std::vector<Metric> metrics = {
      {"service.run_batch_ms.p50", "ms",
       Percentile(span_ms("service.run_batch"), 0.5)},
      {"service.run_batch_ms.p95", "ms",
       Percentile(span_ms("service.run_batch"), 0.95)},
      {"service.edit_us.p50", "us", Percentile(span_us("service.edit"), 0.5)},
      {"service.n_scaling", "ratio", n_scaling},
      {"edit_p50_us", "us", Percentile(plain.edit_ack_ns, 0.5) / 1e3},
      {"edit_p95_us", "us", Percentile(plain.edit_ack_ns, 0.95) / 1e3},
      {"failed_frac", "ratio",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted))},
      {"cache.hit_frac", "ratio",
       Ratio(static_cast<double>(d->book->cached), queries)},
      {"cache.warm_frac", "ratio",
       Ratio(static_cast<double>(d->book->warm), queries)},
      {"cache.evicted_per_edit", "ratio",
       Ratio(static_cast<double>(cache_after.region_evicted -
                                 cache_before.region_evicted),
             edits)},
      {"cache.demoted_per_edit", "ratio",
       Ratio(static_cast<double>(cache_after.region_demoted -
                                 cache_before.region_demoted),
             edits)},
      {"cache.retained_per_edit", "ratio",
       Ratio(static_cast<double>(cache_after.region_retained -
                                 cache_before.region_retained),
             edits)},
      {"cache.bytes_per_entry", "B",
       Percentile(sidecars.cache_bytes_per_entry, 0.5)},
      {"wire.encode_us.p50", "us", Percentile(span_us("wire.encode"), 0.5)},
      {"wire.bytes.p50", "B", Percentile(d->book->line_bytes, 0.5)},
      {"streaming.freezes", "count",
       static_cast<double>(span_ms("streaming.freeze").size())},
      {"streaming.freeze_ms.p50", "ms",
       Percentile(span_ms("streaming.freeze"), 0.5)},
      {"streaming.edit_us.p50", "us",
       Percentile(span_us("streaming.edit"), 0.5)},
      {"partition.push.solve_us.p50", "us",
       Percentile(span_us("partition.push"), 0.5)},
      {"partition.push.pushes.p50", "count",
       Percentile(sidecars.push_pushes, 0.5)},
      {"partition.push.support.p50", "count",
       Percentile(sidecars.push_support, 0.5)},
      {"partition.hkrelax.solve_us.p50", "us",
       Percentile(span_us("partition.hkrelax"), 0.5)},
      {"partition.hkrelax.support.p50", "count",
       Percentile(sidecars.hk_support, 0.5)},
      {"partition.nibble.solve_us.p50", "us",
       Percentile(span_us("partition.nibble"), 0.5)},
      {"partition.nibble.support.p50", "count",
       Percentile(sidecars.nibble_support, 0.5)},
      {"diffusion.ppr_dense.solve_ms.p50", "ms",
       Percentile(span_ms("diffusion.ppr_dense"), 0.5)},
      {"diffusion.ppr_dense.iterations.p50", "count",
       Percentile(sidecars.dense_iterations, 0.5)},
      {"durability.wal_append_us.p50", "us",
       Percentile(span_us("durability.wal_append"), 0.5)},
      {"durability.wal_append_us.p95", "us",
       Percentile(span_us("durability.wal_append"), 0.95)},
      {"durability.snapshot_ms.p50", "ms",
       Percentile(span_ms("durability.snapshot"), 0.5)},
      {"durability.snapshot_mb", "MB", std::max(snapshot_bytes, 0.0) / 1048576.0},
      {"durability.recover_ms", "ms", recover_ms},
      {"core.parallel.busy_frac", "ratio",
       Ratio(static_cast<double>(sidecars.busy_in_batches),
             impreg::ImpregNumThreads() * traced.serve_ns)},
      {"trace.overhead_frac", "ratio", 1.0 - Ratio(traced_qps, plain_qps)},
  };
  WriteTrace(tracer, opts);
  d.reset();
  std::error_code ec;
  fs::remove_all(opts.state_dir, ec);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--workload", &value)) {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) opts.spec = &spec;
      }
      if (opts.spec == nullptr) {
        std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (FlagValue(argv[i], "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", &value)) {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--trace", &value)) {
      opts.trace = value == "1";
    } else if (FlagValue(argv[i], "--state-dir", &value)) {
      opts.state_dir = value;
    } else if (FlagValue(argv[i], "--trace-dir", &value)) {
      opts.trace_dir = value;
    } else if (std::strcmp(argv[i], "--inject-wrong-answer") == 0) {
      opts.inject_wrong_answer = true;
    } else {
      std::fprintf(stderr, "serve_bench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (opts.spec == nullptr || !(opts.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1\n");
    return 2;
  }
  // One engine pool thread per online core.
  impreg::ImpregSetNumThreads(
      static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
  return opts.trace ? RunTraced(opts) : RunUntraced(opts);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
