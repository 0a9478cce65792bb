// Raw-sample percentiles (nearest rank), a span recorder, and an Env
// wrapper that counts WAL traffic — the benchmark's own measuring tools.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/env.h"

namespace e2e {

/// Nearest-rank percentile of raw samples: the smallest value with at
/// least q of the samples at or below it.  Sorts `v` in place; 0 if empty.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// Percentile that a burst of host noise cannot move: `v`, in time order,
/// is cut into an odd number k <= 9 of consecutive slices of at least 500
/// samples, and the percentile of the middle slice (the median of the
/// slices' percentiles) is returned.  A burst then moves only the slices
/// it falls in.  With fewer than 1500 samples this is the plain
/// percentile.
inline double SlicedPercentile(const std::vector<double>& v, double q) {
  size_t k = std::clamp<size_t>(v.size() / 500, 1, 9);
  if (k % 2 == 0) --k;  // an even count has no middle slice
  std::vector<double> per_slice;
  for (size_t i = 0; i < k; ++i) {
    std::vector<double> slice(v.begin() + v.size() * i / k,
                              v.begin() + v.size() * (i + 1) / k);
    per_slice.push_back(Percentile(slice, q));
  }
  return Median(std::move(per_slice));
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span store.  A span is one call the benchmark makes into a
/// layer's public function; spans of one request share a trace id (the
/// one passed to Client::Send).  Written out once, at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t trace_id;
    double start_s;
    double end_s;
  };

  /// Recording is off unless enabled; a disabled tracer costs one branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t trace_id, double start_s, double end_s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, trace_id, start_s, end_s});
  }

  /// Appends spans gathered elsewhere (a load thread's private buffer).
  void Merge(const std::vector<Span>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  /// One JSON object per line: name, id, parent, trace (hex), start/end
  /// in microseconds since the first span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a span (when tracing).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t parent = 0,
             uint64_t trace_id = 0)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        name_(name),
        id_(t_ != nullptr ? t_->NextId() : 0),
        parent_(parent),
        trace_id_(trace_id),
        start_(NowSeconds()) {}
  ~ScopedSpan() { End(); }
  /// Records the span now instead of at scope exit.
  void End() {
    if (t_ != nullptr) {
      t_->Record(name_, id_, parent_, trace_id_, start_, NowSeconds());
      t_ = nullptr;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t trace_id_;
  double start_;
};

/// Env over Env::Posix() counting what the durability layer writes:
/// fsyncs with their durations, and bytes appended to WAL segments.
class CountingEnv : public mmdb::Env {
 public:
  struct Counts {
    uint64_t syncs = 0;
    uint64_t wal_bytes = 0;
  };

  explicit CountingEnv(mmdb::Env* target) : target_(target) {}

  Counts counts() const {
    return Counts{syncs_.load(std::memory_order_relaxed),
                  wal_bytes_.load(std::memory_order_relaxed)};
  }
  /// fsync durations (microseconds) recorded so far.
  std::vector<double> SyncMicros() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_us_;
  }

  mmdb::Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<mmdb::WritableFile>* out) override;
  mmdb::Status ReadFile(const std::string& path, std::string* out) override {
    return target_->ReadFile(path, out);
  }
  mmdb::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return target_->RenameFile(from, to);
  }
  mmdb::Status RemoveFile(const std::string& path) override {
    return target_->RemoveFile(path);
  }
  bool FileExists(const std::string& path) override {
    return target_->FileExists(path);
  }
  mmdb::Status ListDir(const std::string& dir,
                       std::vector<std::string>* names) override {
    return target_->ListDir(dir, names);
  }
  mmdb::Status CreateDir(const std::string& dir) override {
    return target_->CreateDir(dir);
  }
  mmdb::Status FileSize(const std::string& path, uint64_t* size) override {
    return target_->FileSize(path, size);
  }

 private:
  friend class CountingFile;
  void NoteSync(double us) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    sync_us_.push_back(us);
  }

  mmdb::Env* target_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  mutable std::mutex mu_;
  std::vector<double> sync_us_;
};

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
