#include "obs/flight_recorder.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <fcntl.h>

#if defined(__unix__) || defined(__APPLE__)
#define BIOSIM_FLIGHT_SIGNALS 1
#include <signal.h>
#include <unistd.h>
#else
#include <io.h>
#endif

namespace biosim::obs {

namespace {

// The recorder owning the process-wide handlers. Written only from the
// main thread (InstallSignalHandlers); read from the handler. sig_atomic_t
// semantics are not enough for a pointer, so use the usual lock-free atomic.
std::atomic<FlightRecorder*> g_current{nullptr};

#ifdef BIOSIM_FLIGHT_SIGNALS

constexpr int kSignals[] = {SIGSEGV, SIGABRT,
#ifdef SIGBUS
                            SIGBUS,
#endif
};
constexpr size_t kNumSignals = sizeof(kSignals) / sizeof(kSignals[0]);
struct sigaction g_previous[kNumSignals];

/// write(2) a whole buffer; async-signal-safe. Returns false on error.
bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n < 0) {
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

void CrashHandler(int signo) {
  FlightRecorder* rec = g_current.load(std::memory_order_relaxed);
  if (rec != nullptr) {
    rec->UninstallSignalHandlers();  // sigaction is async-signal-safe
    const char* path = rec->signal_path();
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      rec->WriteToFd(fd, "signal", signo);
      close(fd);
    }
  }
  // Re-raise with the default disposition so the exit status (and core
  // dump, where enabled) look exactly like an uninstrumented crash.
  signal(signo, SIG_DFL);
  raise(signo);
}

#else

bool WriteAll(int fd, const char* data, size_t len) {
  return _write(fd, data, static_cast<unsigned>(len)) ==
         static_cast<int>(len);
}

#endif  // BIOSIM_FLIGHT_SIGNALS

/// Append a decimal rendering of `v` to buf; async-signal-safe (no stdio).
size_t FormatU64(uint64_t v, char* out) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  for (size_t i = 0; i < n; ++i) {
    out[i] = tmp[n - 1 - i];
  }
  return n;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::~FlightRecorder() { UninstallSignalHandlers(); }

FlightRecorder* FlightRecorder::current() {
  return g_current.load(std::memory_order_relaxed);
}

void FlightRecorder::RecordStep(const StepRecord& r) {
  Slot& slot = slots_[head_];
  head_ = (head_ + 1) % slots_.size();
  ++recorded_;

  char* p = slot.buf;
  // Reserve room for the closing brace so truncation below cannot lose it.
  size_t cap = kSlotBytes - 2;
  size_t len = 0;
  auto emit = [&](const char* fmt, auto... args) {
    if (len >= cap) {
      return;
    }
    int n = std::snprintf(p + len, cap - len, fmt, args...);
    if (n < 0) {
      return;
    }
    // On overflow keep the slot at the last complete field: snprintf
    // truncates mid-field, so roll back rather than keep a torn suffix.
    if (static_cast<size_t>(n) >= cap - len) {
      len = cap;
      return;
    }
    len += static_cast<size_t>(n);
  };

  emit("{\"step\": %llu, \"state_hash\": \"%016llx\", \"agents\": %llu, "
       "\"substances\": %llu, \"wall_ms\": %.3f",
       static_cast<unsigned long long>(r.step),
       static_cast<unsigned long long>(r.state_hash),
       static_cast<unsigned long long>(r.agents),
       static_cast<unsigned long long>(r.substances), r.wall_ms);
  size_t complete = len;
  if (!r.op_ms.empty()) {
    emit(", \"ops\": {");
    bool first = true;
    for (const auto& [name, ms] : r.op_ms) {
      emit("%s\"%s\": %.3f", first ? "" : ", ", name, ms);
      first = false;
    }
    emit("}");
    if (len >= cap) {
      len = complete;  // ops block did not fit; drop it whole
    } else {
      complete = len;
    }
  }
  if (r.has_counters) {
    emit(", \"counters\": {\"cycles\": %llu, \"instructions\": %llu, "
         "\"llc_misses\": %llu, \"branch_misses\": %llu}",
         static_cast<unsigned long long>(r.counters.cycles),
         static_cast<unsigned long long>(r.counters.instructions),
         static_cast<unsigned long long>(r.counters.llc_misses),
         static_cast<unsigned long long>(r.counters.branch_misses));
    if (len >= cap) {
      len = complete;
    } else {
      complete = len;
    }
  }
  if (r.shards > 0) {
    emit(", \"shards\": %llu, \"shard_ghosts\": %llu, "
         "\"shard_migrations\": %llu",
         static_cast<unsigned long long>(r.shards),
         static_cast<unsigned long long>(r.shard_ghosts),
         static_cast<unsigned long long>(r.shard_migrations));
    if (len >= cap) {
      len = complete;
    }
  }
  p[len++] = '}';
  slot.len = len;
}

bool FlightRecorder::InstallSignalHandlers(const std::string& path) {
#ifdef BIOSIM_FLIGHT_SIGNALS
  FlightRecorder* prev = g_current.load(std::memory_order_relaxed);
  if (prev != nullptr && prev != this) {
    prev->handlers_installed_ = false;  // displaced; do not double-restore
  }
  std::snprintf(signal_path_, sizeof(signal_path_), "%s", path.c_str());
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashHandler;
  sigemptyset(&sa.sa_mask);
  // SA_NODEFER is not needed: the dump path re-raises with SIG_DFL.
  sa.sa_flags = 0;
  for (size_t i = 0; i < kNumSignals; ++i) {
    sigaction(kSignals[i], &sa,
              handlers_installed_ || prev != nullptr ? nullptr
                                                     : &g_previous[i]);
  }
  handlers_installed_ = true;
  g_current.store(this, std::memory_order_release);
  return true;
#else
  (void)path;
  return false;
#endif
}

void FlightRecorder::UninstallSignalHandlers() {
#ifdef BIOSIM_FLIGHT_SIGNALS
  if (!handlers_installed_) {
    return;
  }
  for (size_t i = 0; i < kNumSignals; ++i) {
    sigaction(kSignals[i], &g_previous[i], nullptr);
  }
  handlers_installed_ = false;
  g_current.store(nullptr, std::memory_order_release);
#endif
}

bool FlightRecorder::WriteToFd(int fd, const char* reason, int signo) const {
  char head[256];
  size_t n = 0;
  auto lit = [&](const char* s) {
    size_t l = std::strlen(s);
    if (n + l < sizeof(head)) {
      std::memcpy(head + n, s, l);
      n += l;
    }
  };
  lit("{\"flight_recorder_version\": 1, \"reason\": \"");
  lit(reason);
  lit("\"");
  if (signo >= 0) {
    lit(", \"signal\": ");
    n += FormatU64(static_cast<uint64_t>(signo), head + n);
  }
  lit(", \"recorded_steps\": ");
  n += FormatU64(recorded_, head + n);
  lit(", \"steps\": [\n");
  bool ok = WriteAll(fd, head, n);

  // Oldest-to-newest: head_ is the oldest slot once the ring has wrapped.
  size_t held = recorded_ < slots_.size() ? static_cast<size_t>(recorded_)
                                          : slots_.size();
  size_t start = recorded_ < slots_.size() ? 0 : head_;
  for (size_t i = 0; i < held; ++i) {
    const Slot& s = slots_[(start + i) % slots_.size()];
    if (i > 0) {
      ok = WriteAll(fd, ",\n", 2) && ok;
    }
    ok = WriteAll(fd, s.buf, s.len) && ok;
  }
  ok = WriteAll(fd, "\n]}\n", 4) && ok;
  return ok;
}

bool FlightRecorder::Dump(const std::string& path, const char* reason,
                          const json::Value* context) const {
  if (context == nullptr) {
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return false;
    }
    bool ok = WriteToFd(fd, reason, -1);
#ifdef BIOSIM_FLIGHT_SIGNALS
    close(fd);
#else
    _close(fd);
#endif
    return ok;
  }
  // With context we are on a normal (non-signal) path, so the convenient
  // route is fine: render the ring through the same formatter, then parse
  // and re-emit with the context attached.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string body;
  {
    // Format into memory by writing to a temp rendering of the ring.
    char head[256];
    int n = std::snprintf(
        head, sizeof(head),
        "{\"flight_recorder_version\": 1, \"reason\": \"%s\", "
        "\"recorded_steps\": %llu, \"steps\": [\n",
        reason, static_cast<unsigned long long>(recorded_));
    body.append(head, static_cast<size_t>(n));
    size_t held = recorded_ < slots_.size() ? static_cast<size_t>(recorded_)
                                            : slots_.size();
    size_t start = recorded_ < slots_.size() ? 0 : head_;
    for (size_t i = 0; i < held; ++i) {
      const Slot& s = slots_[(start + i) % slots_.size()];
      if (i > 0) {
        body += ",\n";
      }
      body.append(s.buf, s.len);
    }
    body += "\n], \"context\": ";
    body += context->Dump(0);
    body += "}\n";
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace biosim::obs
