#ifndef IMPREG_SERVICE_RESULT_CACHE_H_
#define IMPREG_SERVICE_RESULT_CACHE_H_

#include <array>
#include <cstdint>
#include <limits>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/solve_status.h"
#include "graph/graph.h"
#include "linalg/sparse_vector.h"

/// \file
/// Deterministic result cache for the query-serving layer.
///
/// Mahoney–Orecchia (1010.0703) is what makes a cache of *approximate*
/// answers sound: an early-stopped diffusion is not a sloppy version of
/// the exact answer but the exact optimum of a regularized problem, so
/// a cached result is a well-defined object that can be served again —
/// and, for the push family, its (p, r) pair is a certified
/// intermediate state that a tighter-ε or post-edit re-query can
/// warm-restart from instead of recomputing.
///
/// The same locality that makes the push solve cheap makes its cached
/// answer *robust to edits*: a push certificate only ever read the
/// rows of supp(p) ∪ N(supp(p)) ∪ supp(seed), so an edge edit outside
/// that region leaves the certificate exactly valid — bit for bit, not
/// approximately. Each entry therefore carries a `RegionFingerprint`
/// of that read set, and `InvalidateRegion(u, v)` surgically evicts
/// (or demotes to warm-only) exactly the entries whose region an edit
/// {u, v} may touch, instead of retiring the whole cache per edit.
/// The fingerprint is lossy (a fixed 512-bit hash set), so collisions
/// over-evict — never under-evict — and whole-graph answers
/// (sweep-producing methods, dense solves) mark `all` and die on every
/// edit, as before.
///
/// Determinism contract: the cache is a plain FIFO keyed by canonical
/// strings. Eviction follows insertion order only (never access
/// recency), and the engine performs all lookups, inserts, and
/// invalidations in sequential phases, so the cache contents after any
/// request sequence are bit-identical at any thread count — replay is
/// exact.
///
/// The cache is deliberately NOT thread-safe; the engine serializes
/// access around its parallel execution phase.

namespace impreg {

/// A lossy, fixed-width fingerprint of the node set a cached answer
/// depends on. 512 hash buckets; a set bit means "some region node
/// hashes here", so `Covers` has false positives (safe: over-evict)
/// and no false negatives. Default-constructed fingerprints mark the
/// whole graph — an entry that never declared its region behaves like
/// the old invalidate-everything contract.
struct RegionFingerprint {
  static constexpr int kBits = 512;
  static constexpr int kWords = kBits / 64;

  std::array<std::uint64_t, kWords> words{};
  /// Depends on the whole graph: every edit invalidates.
  bool all = true;

  /// Deterministic node → bucket hash (splitmix64 finalizer). The same
  /// function at insert and invalidation time is the entire contract.
  static int Bucket(NodeId u);

  /// Starts an explicit (non-whole-graph) region.
  void Reset() {
    words.fill(0);
    all = false;
  }
  void Add(NodeId u);
  void MarkAll() { all = true; }
  bool Covers(NodeId u) const;
  /// Whether an edit touching {u, v} may intersect this region.
  bool CoversEdit(NodeId u, NodeId v) const {
    return all || Covers(u) || Covers(v);
  }
};

/// One cached answer, keyed by (method, parameters, seed fingerprint)
/// — epochs are deliberately NOT part of the key: validity is tracked
/// per entry (insert-epoch stamp + region fingerprint + warm_only
/// flag), which is what lets an entry outlive edits that miss its
/// region.
///
/// The vectors are sparse cuts (linalg/sparse_vector.h), so an entry
/// costs O(support) bytes whatever the graph size; a hit scatters
/// `scores` back into the dense response bit for bit.
struct CachedResult {
  /// The served vector (PPR scores, heat-kernel ρ, nibble
  /// distribution).
  SparseVector scores;
  /// Community set for the sweep-producing methods (empty otherwise).
  std::vector<NodeId> set;
  double conductance = 1.0;
  /// Work the original solve spent (pushes / terms / steps).
  std::int64_t work = 0;
  /// Status of the original solve. Only usable statuses are cached;
  /// a degraded-but-usable answer (kBudgetExhausted) keeps its marking
  /// when served again.
  SolveStatus status = SolveStatus::kConverged;
  std::string detail;
  /// Warm-restart state (push family only): the (p, r) invariant pair,
  /// the graph epoch it was computed at, and the ε it satisfies.
  /// `epoch` is stamped on every insert (state-bearing or not) — it is
  /// what keeps a batch pinned at an older snapshot from seeing a newer
  /// answer.
  bool has_state = false;
  SparseVector p;
  SparseVector r;
  std::int64_t epoch = 0;
  double epsilon = 0.0;
  /// The node set this answer read (push region, or `all` for
  /// whole-graph methods). Drives surgical invalidation.
  RegionFingerprint region;
  /// Demoted: an edit touched the region, so the exact answer is
  /// stale, but the (p, r) pair is still a sound warm-restart point.
  /// Exact lookups skip warm-only entries; WarmLookup serves them.
  bool warm_only = false;
};

/// Hit/miss/eviction accounting (also mirrored into service.cache.*
/// metrics when metrics are enabled).
struct ResultCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t warm_hits = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// Inserts refused because the payload had non-finite entries (the
  /// fault-containment path: a poisoned result is dropped, never
  /// served).
  std::int64_t rejected = 0;
  /// Surgical invalidation: entries evicted because an edit touched
  /// their fingerprint region and they carried no warm state worth
  /// keeping. Mirrors `service.cache.region_evicted`.
  std::int64_t region_evicted = 0;
  /// Surgical invalidation: state-bearing entries demoted to warm-only
  /// service because an edit touched their region. Mirrors
  /// `service.cache.region_demoted`.
  std::int64_t region_demoted = 0;
  /// Exactly-servable entries that *survived* an edit because their
  /// region missed it — the payoff surgical invalidation exists for.
  /// Mirrors `service.cache.region_retained`.
  std::int64_t region_retained = 0;
};

/// String-keyed FIFO cache with a secondary warm-restart index and a
/// region-bucket inverted index for surgical invalidation.
class ResultCache {
 public:
  /// `capacity` = maximum retained entries (≥ 1).
  explicit ResultCache(std::size_t capacity);

  /// Exact lookup; counts a hit or a miss. An entry serves only when
  /// it is not warm-only and was inserted at or before
  /// `snapshot_epoch` (a batch pinned at an older snapshot must not
  /// see an answer computed on a newer graph). Returned pointer is
  /// valid until the next Insert/InvalidateRegion/Clear.
  const CachedResult* Lookup(const std::string& key,
                             std::int64_t snapshot_epoch);

  /// Lookup against the newest epoch (test/debug convenience).
  const CachedResult* Lookup(const std::string& key) {
    return Lookup(key, std::numeric_limits<std::int64_t>::max());
  }

  /// Warm lookup: the most recently inserted entry carrying
  /// warm-restart state under `warm_key` (method + γ + seed
  /// fingerprint, no epoch/ε — that is what makes tighter-ε and
  /// post-edit queries land here). Serves warm-only (demoted) entries
  /// too — their (p, r) pair stays sound across edits. Does not count
  /// toward hit/miss; counts warm_hits when it returns an entry.
  const CachedResult* WarmLookup(const std::string& warm_key);

  /// Inserts (or replaces in place) under `key`. Entries with
  /// non-finite scores or state are rejected (counted in
  /// stats().rejected) — this is the IMPREG_FAULT_POINT
  /// "service/cache_insert" containment path. When full, the oldest
  /// insertion is evicted first. An entry arriving with
  /// `result.warm_only` set is stored for warm service only (the
  /// engine inserts results computed against stale snapshots this
  /// way), and an insert carrying an older epoch than a still-valid
  /// stored entry under the same key is refused — a pinned-stale
  /// batch must not clobber a fresher answer. Returns true when
  /// stored.
  bool Insert(const std::string& key, const std::string& warm_key,
              CachedResult result);

  /// Surgical invalidation for an edit touching {u, v}: every entry
  /// whose fingerprint region covers u or v — plus every whole-graph
  /// entry — is evicted, or demoted to warm-only service when it
  /// carries warm-restart state under a warm key. Entries whose region
  /// misses the edit are untouched and counted into
  /// stats().region_retained: the Mahoney–Orecchia locality of the
  /// cached optimum, made operational. O(affected) via the bucket
  /// index, not O(cache size).
  void InvalidateRegion(NodeId u, NodeId v);

  /// The invalidate-the-world baseline: every exact entry is evicted
  /// or demoted under the same per-entry rule InvalidateRegion uses,
  /// regardless of region. Kept for the retention benchmark and for
  /// engines running with surgical invalidation disabled.
  void InvalidateAll();

  std::size_t Size() const { return entries_.size(); }
  /// Entries servable through exact lookup (not warm-only).
  std::size_t ExactSize() const {
    return static_cast<std::size_t>(exact_entries_);
  }
  std::size_t Capacity() const { return capacity_; }
  const ResultCacheStats& stats() const { return stats_; }

  /// One entry as stored, for durability snapshots (pointer valid until
  /// the next Insert/Clear).
  struct ExportedEntry {
    const std::string* key;
    const std::string* warm_key;
    const CachedResult* result;
  };

  /// Every entry, oldest-insertion-first — the order a restore must
  /// re-insert them in to reproduce FIFO eviction state bit-identically
  /// (src/service/durability/snapshot.cc persists the state-bearing
  /// ones).
  std::vector<ExportedEntry> ExportEntries() const;

  /// Keys oldest-insertion-first (test/debug aid).
  std::vector<std::string> KeysInInsertionOrder() const;

  void Clear();

 private:
  struct Entry {
    std::string key;
    std::string warm_key;
    CachedResult result;
  };
  using EntryList = std::list<Entry>;

  /// Registers a (non-warm-only) entry in the region bucket index.
  void AddToRegionIndex(Entry* e);
  /// Erase-if-found inverse of AddToRegionIndex (no-op for warm-only
  /// entries — they were deregistered at demotion).
  void RemoveFromRegionIndex(Entry* e);
  /// Evicts or demotes every gathered entry and updates the surgical
  /// stats (shared tail of InvalidateRegion / InvalidateAll).
  void ApplyInvalidation(const std::vector<Entry*>& affected);
  /// Full removal: region index, exact count, key index, warm slot,
  /// entry list.
  void EraseEntry(EntryList::iterator entry);

  std::size_t capacity_;
  EntryList entries_;  ///< front = oldest insertion.
  std::unordered_map<std::string, EntryList::iterator> index_;
  std::unordered_map<std::string, EntryList::iterator> warm_index_;
  /// Inverted region index: bucket b lists the live exact entries
  /// whose fingerprint has bit b set (an entry appears once per set
  /// bit); whole-graph entries live in all_region_ instead. Pointers
  /// are stable (std::list nodes).
  std::array<std::vector<Entry*>, RegionFingerprint::kBits> region_buckets_;
  std::vector<Entry*> all_region_;
  std::int64_t exact_entries_ = 0;
  ResultCacheStats stats_;
};

}  // namespace impreg

#endif  // IMPREG_SERVICE_RESULT_CACHE_H_
