#include "service/result_cache.h"

#include <algorithm>
#include <unordered_set>

#include "core/metrics.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

bool PayloadFinite(const CachedResult& result) {
  if (!AllFinite(result.scores)) return false;
  if (result.has_state && (!AllFinite(result.p) || !AllFinite(result.r))) {
    return false;
  }
  return true;
}

}  // namespace

int RegionFingerprint::Bucket(NodeId u) {
  // splitmix64 finalizer — deterministic across platforms and runs,
  // which is what keeps invalidation replay-exact.
  std::uint64_t x = static_cast<std::uint64_t>(static_cast<std::uint32_t>(u));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<int>(x & static_cast<std::uint64_t>(kBits - 1));
}

void RegionFingerprint::Add(NodeId u) {
  const int b = Bucket(u);
  words[static_cast<std::size_t>(b >> 6)] |= std::uint64_t{1} << (b & 63);
}

bool RegionFingerprint::Covers(NodeId u) const {
  const int b = Bucket(u);
  return ((words[static_cast<std::size_t>(b >> 6)] >> (b & 63)) & 1) != 0;
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  IMPREG_CHECK_MSG(capacity_ >= 1, "cache capacity must be >= 1");
}

const CachedResult* ResultCache::Lookup(const std::string& key,
                                        std::int64_t snapshot_epoch) {
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->result.warm_only ||
      it->second->result.epoch > snapshot_epoch) {
    ++stats_.misses;
    IMPREG_METRIC_COUNT("service.cache.misses", 1);
    return nullptr;
  }
  ++stats_.hits;
  IMPREG_METRIC_COUNT("service.cache.hits", 1);
  return &it->second->result;
}

const CachedResult* ResultCache::WarmLookup(const std::string& warm_key) {
  const auto it = warm_index_.find(warm_key);
  if (it == warm_index_.end()) return nullptr;
  ++stats_.warm_hits;
  IMPREG_METRIC_COUNT("service.cache.warm_hits", 1);
  return &it->second->result;
}

void ResultCache::AddToRegionIndex(Entry* e) {
  if (e->result.warm_only) return;
  if (e->result.region.all) {
    all_region_.push_back(e);
    return;
  }
  const RegionFingerprint& fp = e->result.region;
  for (int w = 0; w < RegionFingerprint::kWords; ++w) {
    std::uint64_t bits = fp.words[static_cast<std::size_t>(w)];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      region_buckets_[static_cast<std::size_t>((w << 6) | bit)].push_back(e);
    }
  }
}

void ResultCache::RemoveFromRegionIndex(Entry* e) {
  if (e->result.warm_only) return;  // Deregistered at demotion.
  const auto drop = [&](std::vector<Entry*>& bucket) {
    const auto it = std::find(bucket.begin(), bucket.end(), e);
    if (it != bucket.end()) bucket.erase(it);  // Order-preserving.
  };
  if (e->result.region.all) {
    drop(all_region_);
    return;
  }
  const RegionFingerprint& fp = e->result.region;
  for (int w = 0; w < RegionFingerprint::kWords; ++w) {
    std::uint64_t bits = fp.words[static_cast<std::size_t>(w)];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      drop(region_buckets_[static_cast<std::size_t>((w << 6) | bit)]);
    }
  }
}

void ResultCache::EraseEntry(EntryList::iterator entry) {
  RemoveFromRegionIndex(&*entry);
  if (!entry->result.warm_only) --exact_entries_;
  index_.erase(entry->key);
  const auto warm = warm_index_.find(entry->warm_key);
  if (warm != warm_index_.end() && warm->second == entry) {
    warm_index_.erase(warm);
  }
  entries_.erase(entry);
}

bool ResultCache::Insert(const std::string& key, const std::string& warm_key,
                         CachedResult result) {
  // The one place a computed answer crosses into long-lived state — the
  // fault site lets the robustness suite prove a poisoned payload is
  // contained here (rejected below), never cached, never served.
  IMPREG_FAULT_POINT("service/cache_insert", result.scores);
  if (!PayloadFinite(result)) {
    ++stats_.rejected;
    IMPREG_METRIC_COUNT("service.cache.rejected", 1);
    return false;
  }

  const auto existing = index_.find(key);
  if (existing != index_.end()) {
    if (existing->second->result.epoch > result.epoch &&
        !existing->second->result.warm_only) {
      // A still-valid answer from a newer graph is already stored; an
      // insert from a batch pinned at an older snapshot adds nothing.
      return false;
    }
    // Replace in place: the entry keeps its insertion-order position
    // (replacement is not an insertion for eviction purposes). A
    // replaced warm-only entry resurrects with the new result's flags.
    EntryList::iterator entry = existing->second;
    RemoveFromRegionIndex(&*entry);
    if (!entry->result.warm_only) --exact_entries_;
    const auto old_warm = warm_index_.find(entry->warm_key);
    if (old_warm != warm_index_.end() && old_warm->second == entry) {
      warm_index_.erase(old_warm);
    }
    entry->warm_key = warm_key;
    entry->result = std::move(result);
    if (!entry->result.warm_only) ++exact_entries_;
    AddToRegionIndex(&*entry);
    if (entry->result.has_state && !warm_key.empty()) {
      warm_index_[warm_key] = entry;
    }
    ++stats_.insertions;
    IMPREG_METRIC_COUNT("service.cache.insertions", 1);
    return true;
  }

  if (entries_.size() >= capacity_) {
    // FIFO: evict the oldest insertion — never access recency, so the
    // retained set after any request sequence is replay-deterministic.
    ++stats_.evictions;
    IMPREG_METRIC_COUNT("service.cache.evictions", 1);
    EraseEntry(entries_.begin());
  }

  entries_.push_back(Entry{key, warm_key, std::move(result)});
  EntryList::iterator entry = std::prev(entries_.end());
  index_[key] = entry;
  if (!entry->result.warm_only) ++exact_entries_;
  AddToRegionIndex(&*entry);
  if (entry->result.has_state && !warm_key.empty()) {
    // Latest insertion wins the warm slot: it is the freshest (p, r)
    // for this (method, γ, seed) fingerprint.
    warm_index_[warm_key] = entry;
  }
  ++stats_.insertions;
  IMPREG_METRIC_COUNT("service.cache.insertions", 1);
  return true;
}

void ResultCache::ApplyInvalidation(const std::vector<Entry*>& affected) {
  const std::int64_t exact_before = exact_entries_;
  std::int64_t evicted = 0;
  std::int64_t demoted = 0;
  for (Entry* e : affected) {
    if (e->result.has_state && !e->warm_key.empty()) {
      // Demote: the exact answer is stale, but (p, r) is still a sound
      // warm-restart point — keep it servable through the warm index.
      RemoveFromRegionIndex(e);
      e->result.warm_only = true;
      --exact_entries_;
      ++demoted;
    } else {
      const auto it = index_.find(e->key);
      IMPREG_CHECK_MSG(it != index_.end(),
                       "region index points at an unindexed entry");
      EraseEntry(it->second);
      ++evicted;
    }
  }
  stats_.region_evicted += evicted;
  stats_.region_demoted += demoted;
  stats_.region_retained += exact_before - evicted - demoted;
  IMPREG_METRIC_COUNT("service.cache.region_evicted", evicted);
  IMPREG_METRIC_COUNT("service.cache.region_demoted", demoted);
  IMPREG_METRIC_COUNT("service.cache.region_retained",
                      exact_before - evicted - demoted);
}

void ResultCache::InvalidateRegion(NodeId u, NodeId v) {
  // Gather the affected entries: the two hash buckets plus every
  // whole-graph entry. Deduplicate — u and v may share a bucket, and
  // bucket membership is exactly "fingerprint bit set", so no further
  // filtering is possible (the fingerprint is lossy by design;
  // collisions over-evict, never under-evict).
  std::vector<Entry*> affected;
  std::unordered_set<Entry*> seen;
  const auto gather = [&](const std::vector<Entry*>& bucket) {
    for (Entry* e : bucket) {
      if (seen.insert(e).second) affected.push_back(e);
    }
  };
  gather(
      region_buckets_[static_cast<std::size_t>(RegionFingerprint::Bucket(u))]);
  gather(
      region_buckets_[static_cast<std::size_t>(RegionFingerprint::Bucket(v))]);
  gather(all_region_);
  ApplyInvalidation(affected);
}

void ResultCache::InvalidateAll() {
  std::vector<Entry*> affected;
  for (Entry& e : entries_) {
    if (!e.result.warm_only) affected.push_back(&e);
  }
  ApplyInvalidation(affected);
}

std::vector<ResultCache::ExportedEntry> ResultCache::ExportEntries() const {
  std::vector<ExportedEntry> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back(ExportedEntry{&e.key, &e.warm_key, &e.result});
  }
  return out;
}

std::vector<std::string> ResultCache::KeysInInsertionOrder() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& e : entries_) keys.push_back(e.key);
  return keys;
}

void ResultCache::Clear() {
  entries_.clear();
  index_.clear();
  warm_index_.clear();
  for (std::vector<Entry*>& bucket : region_buckets_) bucket.clear();
  all_region_.clear();
  exact_entries_ = 0;
}

}  // namespace impreg
