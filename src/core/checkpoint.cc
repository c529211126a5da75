#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace biosim {

namespace {

constexpr char kMagic[8] = {'B', 'I', 'O', 'S', 'I', 'M', 'C', 'K'};
constexpr uint64_t kVersion = 1;

struct Writer {
  explicit Writer(const std::string& path)
      : f(std::fopen(path.c_str(), "wb")) {}
  ~Writer() {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
  bool ok() const { return f != nullptr && !failed; }

  /// Every write is checked: a short fwrite (full disk, I/O error) latches
  /// `failed`, so SaveCheckpoint reports the error instead of leaving a
  /// silently truncated file that only fails at load time.
  void Bytes(const void* data, size_t size, size_t count) {
    if (failed || f == nullptr) {
      return;
    }
    if (count != 0 && std::fwrite(data, size, count, f) != count) {
      failed = true;
    }
  }
  void U64(uint64_t v) {
    // Explicit little-endian bytes: files are portable across hosts.
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Bytes(b, 1, 8);
  }
  /// A count followed by the elements (Reader::Array reads it back).
  template <typename T>
  void Array(const std::vector<T>& v) {
    U64(v.size());
    // Empty vector data() may be null; Bytes skips the null fwrite (UB).
    Bytes(v.data(), sizeof(T), v.size());
  }

  /// Flush and close, surfacing errors the buffered writes deferred (an
  /// ENOSPC often only shows up at fflush/fclose). Returns overall success.
  bool Close() {
    if (f == nullptr) {
      return false;
    }
    if (std::fflush(f) != 0 || std::ferror(f) != 0) {
      failed = true;
    }
    if (std::fclose(f) != 0) {
      failed = true;
    }
    f = nullptr;
    return !failed;
  }

  std::FILE* f;
  bool failed = false;
};

struct Reader {
  explicit Reader(const std::string& path)
      : f(std::fopen(path.c_str(), "rb")) {
    // The file size bounds every array count (see Array).
    long size = -1;
    if (f != nullptr && std::fseek(f, 0, SEEK_END) == 0) {
      size = std::ftell(f);
    }
    if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
      failed = true;
    } else {
      remaining = static_cast<uint64_t>(size);
    }
  }
  ~Reader() {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
  bool ok() const { return f != nullptr && !failed; }

  void Bytes(void* data, size_t size, size_t count) {
    if (failed || (count != 0 && std::fread(data, size, count, f) != count)) {
      failed = true;
      return;
    }
    remaining -= std::min<uint64_t>(remaining, uint64_t{size} * count);
  }
  uint64_t U64() {
    unsigned char b[8];
    Bytes(b, 1, 8);
    if (failed) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }
  /// A count followed by that many T. A count other than `expected`, or one
  /// whose bytes exceed what is left of the file, is corrupt: it fails the
  /// read before anything is allocated.
  template <typename T>
  std::vector<T> Array(uint64_t expected) {
    uint64_t n = U64();
    if (failed || n != expected || n > remaining / sizeof(T)) {
      failed = true;
      return {};
    }
    std::vector<T> v(n);
    Bytes(v.data(), sizeof(T), n);
    return v;
  }

  std::FILE* f;
  bool failed = false;
  uint64_t remaining = 0;  // bytes of the file not yet read
};

}  // namespace

bool SaveCheckpoint(const ResourceManager& rm, const std::string& path) {
  Writer w(path);
  if (!w.ok()) {
    return false;
  }
  w.Bytes(kMagic, 1, sizeof(kMagic));
  w.U64(kVersion);
  w.U64(rm.size());
  w.Array(rm.positions());
  w.Array(rm.diameters());
  w.Array(rm.volumes());
  w.Array(rm.adherences());
  w.Array(rm.densities());
  w.Array(rm.tractor_forces());
  w.Array(rm.uids());
  w.U64(rm.next_uid());
  return w.Close();
}

bool LoadCheckpoint(ResourceManager* rm, const std::string& path) {
  Reader r(path);
  if (!r.ok()) {
    return false;
  }
  char magic[8];
  r.Bytes(magic, 1, sizeof(magic));
  if (r.failed || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  if (r.U64() != kVersion) {
    return false;
  }
  uint64_t n = r.U64();

  auto positions = r.Array<Double3>(n);
  auto diameters = r.Array<double>(n);
  auto volumes = r.Array<double>(n);
  auto adherences = r.Array<double>(n);
  auto densities = r.Array<double>(n);
  auto tractor = r.Array<Double3>(n);
  auto uids = r.Array<AgentUid>(n);
  AgentUid next_uid = r.U64();
  if (r.failed) {
    return false;
  }
  // Births take uids from next_uid on, and per-agent RNG streams are keyed
  // by uid: a counter at or below a restored uid would hand that uid out
  // again.
  for (AgentUid uid : uids) {
    if (uid >= next_uid) {
      return false;
    }
  }

  rm->RestorePopulation(std::move(positions), std::move(diameters),
                        std::move(volumes), std::move(adherences),
                        std::move(densities), std::move(tractor),
                        std::move(uids), next_uid);
  return true;
}

}  // namespace biosim
