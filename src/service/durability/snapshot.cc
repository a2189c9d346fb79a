#include "service/durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/check.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace impreg::durability {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'I', 'M', 'P', 'R', 'G', 'S', 'N', 'P'};
// v3 stores each cache entry's scores, p and r as sparse (node, value)
// lists where v2 stored dense n-vectors. The read side is strict-v3:
// snapshots are rewritten every epoch checkpoint, so there is no older
// archive to stay compatible with — an old-version file is rejected and
// recovery falls back to the WAL, which is always complete.
constexpr std::uint32_t kVersion = 3;
constexpr std::size_t kHeaderSize = 8 + 4;       // magic | version
constexpr std::size_t kBodyPrefix = 8 + 4;       // payload_size | crc
constexpr char kFilePrefix[] = "snapshot-";

/// Little-endian append-only buffer.
class Writer {
 public:
  void U8(std::uint8_t x) { bytes_.push_back(x); }
  void U32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(x >> (8 * i));
  }
  void U64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(x >> (8 * i));
  }
  void I32(std::int32_t x) { U32(static_cast<std::uint32_t>(x)); }
  void I64(std::int64_t x) { U64(static_cast<std::uint64_t>(x)); }
  void F64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void Sparse(const SparseVector& v) {
    U64(v.size());
    for (const SparseEntry& e : v) {
      I32(e.node);
      F64(e.value);
    }
  }
  void Ids(const std::vector<NodeId>& v) {
    U64(v.size());
    for (NodeId x : v) I32(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader: every accessor fails sticky
/// (`ok()` false) instead of reading past the end, so a truncated
/// payload that somehow passed its CRC still cannot poison the decode.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return x;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return x;
  }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() {
    const std::uint64_t bits = U64();
    double x;
    std::memcpy(&x, &bits, 8);
    return x;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  /// A sparse vector whose nodes must ascend strictly within
  /// [0, num_nodes); anything else fails the read.
  SparseVector Sparse(std::int64_t num_nodes) {
    const std::uint64_t n = U64();
    if (!ok_ || n > (size_ - pos_) / 12) {
      ok_ = false;
      return {};
    }
    SparseVector v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId node = I32();
      const double value = F64();
      if (node < 0 || node >= num_nodes ||
          (!v.empty() && node <= v.back().node)) {
        ok_ = false;
        return {};
      }
      v.push_back({node, value});
    }
    return v;
  }
  std::vector<NodeId> Ids() {
    const std::uint64_t n = U64();
    if (!Need(n * 4)) return {};
    std::vector<NodeId> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(I32());
    return v;
  }

 private:
  bool Need(std::uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void EncodeCachedResult(const std::string& key, const std::string& warm_key,
                        const CachedResult& r, Writer* w) {
  w->Str(key);
  w->Str(warm_key);
  w->Sparse(r.scores);
  w->Ids(r.set);
  w->F64(r.conductance);
  w->I64(r.work);
  w->U8(static_cast<std::uint8_t>(r.status));
  w->Str(r.detail);
  w->U8(r.has_state ? 1 : 0);
  w->Sparse(r.p);
  w->Sparse(r.r);
  w->I64(r.epoch);
  w->F64(r.epsilon);
  for (std::uint64_t word : r.region.words) w->U64(word);
  w->U8(r.region.all ? 1 : 0);
  w->U8(r.warm_only ? 1 : 0);
}

SnapshotCacheEntry DecodeCachedResult(Reader* r, std::int64_t num_nodes) {
  SnapshotCacheEntry e;
  e.key = r->Str();
  e.warm_key = r->Str();
  e.result.scores = r->Sparse(num_nodes);
  e.result.set = r->Ids();
  e.result.conductance = r->F64();
  e.result.work = r->I64();
  e.result.status = static_cast<SolveStatus>(r->U8());
  e.result.detail = r->Str();
  e.result.has_state = r->U8() != 0;
  e.result.p = r->Sparse(num_nodes);
  e.result.r = r->Sparse(num_nodes);
  e.result.epoch = r->I64();
  e.result.epsilon = r->F64();
  for (std::uint64_t& word : e.result.region.words) word = r->U64();
  e.result.region.all = r->U8() != 0;
  e.result.warm_only = r->U8() != 0;
  return e;
}

bool WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory so the rename itself is durable.
bool SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

SnapshotWriteResult WriteSnapshot(
    const std::string& dir, std::int64_t epoch, const DynamicGraph& graph,
    const std::vector<ResultCache::ExportedEntry>& cache_entries) {
  SnapshotWriteResult result;
  IMPREG_CHECK(epoch >= 0);

  // Validate the image before serializing a byte: a poisoned volume
  // (the injection target) or degree must fail here, with the previous
  // snapshot still in place, not inside a published file.
  double total_volume = graph.TotalVolume();
  IMPREG_FAULT_POINT("snapshot/write", total_volume);
  bool valid = std::isfinite(total_volume);
  const NodeId n = graph.NumNodes();
  for (NodeId u = 0; valid && u < n; ++u) {
    valid = std::isfinite(graph.Degree(u));
  }
  if (!valid) {
    result.status = SolveStatus::kInvalidInput;
    result.detail = "graph image failed validation: snapshot not written";
    return result;
  }

  Writer payload;
  payload.I64(epoch);
  payload.I64(static_cast<std::int64_t>(n));
  payload.I64(graph.NumEdges());
  payload.F64(total_volume);
  for (NodeId u = 0; u < n; ++u) payload.F64(graph.Degree(u));
  for (NodeId u = 0; u < n; ++u) {
    const auto& neighbors = graph.Neighbors(u);
    payload.U32(static_cast<std::uint32_t>(neighbors.size()));
    for (const DynamicGraph::Neighbor& nb : neighbors) {
      payload.I32(nb.head);
      payload.F64(nb.weight);
    }
  }
  std::uint32_t persisted = 0;
  for (const ResultCache::ExportedEntry& e : cache_entries) {
    if (e.result->has_state) ++persisted;
  }
  payload.U32(persisted);
  for (const ResultCache::ExportedEntry& e : cache_entries) {
    if (!e.result->has_state) continue;
    EncodeCachedResult(*e.key, *e.warm_key, *e.result, &payload);
  }

  Writer file;
  file.U64(payload.bytes().size());
  file.U32(Crc32c(payload.bytes().data(), payload.bytes().size()));

  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string final_path =
      (fs::path(dir) / (kFilePrefix + std::to_string(epoch))).string();
  const std::string tmp_path = final_path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = fd >= 0;
  if (ok) {
    ok = WriteAll(fd, reinterpret_cast<const std::uint8_t*>(kMagic), 8);
    std::uint8_t version[4];
    for (int i = 0; i < 4; ++i) {
      version[i] = static_cast<std::uint8_t>(kVersion >> (8 * i));
    }
    ok = ok && WriteAll(fd, version, 4);
    ok = ok && WriteAll(fd, file.bytes().data(), file.bytes().size());
    ok = ok && WriteAll(fd, payload.bytes().data(), payload.bytes().size());
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
  }
  if (ok) {
    fs::rename(tmp_path, final_path, ec);
    ok = !ec && SyncDir(dir);
  }
  if (!ok) {
    fs::remove(tmp_path, ec);
    result.status = SolveStatus::kBreakdown;
    result.detail = "snapshot I/O failed: previous snapshot untouched";
    return result;
  }
  result.path = final_path;
  result.detail = "snapshot-" + std::to_string(epoch) + " published";
  return result;
}

SnapshotLoadResult LoadSnapshot(const std::string& path) {
  SnapshotLoadResult result;
  auto Reject = [&result](const char* why) -> SnapshotLoadResult& {
    result.status = SolveStatus::kInvalidInput;
    result.detail = why;
    return result;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return Reject("snapshot file unreadable");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();

  if (bytes.size() < kHeaderSize + kBodyPrefix ||
      std::memcmp(bytes.data(), kMagic, 8) != 0) {
    return Reject("snapshot header missing or corrupt");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= std::uint32_t{bytes[8 + i]} << (8 * i);
  }
  if (version != kVersion) return Reject("unsupported snapshot version");

  Reader prefix(bytes.data() + kHeaderSize, kBodyPrefix);
  const std::uint64_t payload_size = prefix.U64();
  const std::uint32_t expected_crc = prefix.U32();
  const std::uint8_t* payload = bytes.data() + kHeaderSize + kBodyPrefix;
  if (payload_size != bytes.size() - kHeaderSize - kBodyPrefix) {
    return Reject("snapshot payload truncated");
  }
  if (Crc32c(payload, payload_size) != expected_crc) {
    return Reject("snapshot checksum mismatch");
  }

  Reader r(payload, payload_size);
  SnapshotData data;
  data.epoch = r.I64();
  const std::int64_t num_nodes = r.I64();
  const std::int64_t num_edges = r.I64();
  double total_volume = r.F64();
  // A decoded image that fails semantic validation is rejected exactly
  // like a CRC mismatch (injection target: the volume bits).
  IMPREG_FAULT_POINT("snapshot/load", total_volume);
  if (!r.ok() || data.epoch < 0 || num_nodes < 0 || num_edges < 0 ||
      !std::isfinite(total_volume)) {
    return Reject("snapshot image failed validation");
  }

  std::vector<double> degrees;
  degrees.reserve(num_nodes);
  for (std::int64_t u = 0; u < num_nodes; ++u) degrees.push_back(r.F64());
  std::vector<std::vector<DynamicGraph::Neighbor>> adjacency(num_nodes);
  std::int64_t arcs = 0;
  std::int64_t self_loops = 0;
  for (std::int64_t u = 0; u < num_nodes && r.ok(); ++u) {
    const std::uint32_t count = r.U32();
    adjacency[u].reserve(count);
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      DynamicGraph::Neighbor nb;
      nb.head = r.I32();
      nb.weight = r.F64();
      if (nb.head < 0 || nb.head >= num_nodes || !std::isfinite(nb.weight) ||
          nb.weight <= 0.0) {
        return Reject("snapshot adjacency failed validation");
      }
      adjacency[u].push_back(nb);
      ++arcs;
      if (nb.head == u) ++self_loops;
    }
  }
  for (std::int64_t u = 0; u < num_nodes; ++u) {
    if (!std::isfinite(degrees[u])) {
      return Reject("snapshot degrees failed validation");
    }
  }
  if (!r.ok() || arcs != 2 * num_edges - self_loops) {
    return Reject("snapshot edge count inconsistent");
  }

  const std::uint32_t cache_count = r.U32();
  for (std::uint32_t i = 0; i < cache_count && r.ok(); ++i) {
    data.cache_entries.push_back(DecodeCachedResult(&r, num_nodes));
  }
  if (!r.ok() || !r.AtEnd()) return Reject("snapshot payload malformed");

  data.graph = DynamicGraph::FromParts(std::move(adjacency),
                                       std::move(degrees), num_edges,
                                       total_volume);
  result.data = std::move(data);
  result.detail = "snapshot epoch " + std::to_string(result.data.epoch) +
                  " loaded";
  return result;
}

std::vector<std::pair<std::int64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<std::int64_t, std::string>> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kFilePrefix, 0) != 0) continue;
    const std::string suffix = name.substr(sizeof(kFilePrefix) - 1);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::stoll(suffix), entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace impreg::durability
