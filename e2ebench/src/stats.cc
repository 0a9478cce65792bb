#include "e2ebench/src/stats.h"

#include <cinttypes>
#include <cstdio>

namespace e2e {

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double base = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) base = std::min(base, s.start_s);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"trace\":\"%016" PRIx64 "\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f}\n",
                 s.name, s.id, s.parent, s.trace_id, (s.start_s - base) * 1e6,
                 (s.end_s - base) * 1e6);
  }
  return std::fclose(f) == 0;
}

class CountingFile : public mmdb::WritableFile {
 public:
  CountingFile(CountingEnv* env, std::unique_ptr<mmdb::WritableFile> inner,
               bool wal)
      : env_(env), inner_(std::move(inner)), wal_(wal) {}

  mmdb::Status Append(std::string_view data) override {
    if (wal_) {
      env_->wal_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return inner_->Append(data);
  }
  mmdb::Status Sync() override {
    const double start = NowSeconds();
    mmdb::Status s = inner_->Sync();
    env_->NoteSync((NowSeconds() - start) * 1e6);
    return s;
  }
  mmdb::Status Close() override { return inner_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<mmdb::WritableFile> inner_;
  bool wal_;
};

mmdb::Status CountingEnv::NewWritableFile(
    const std::string& path, bool truncate,
    std::unique_ptr<mmdb::WritableFile>* out) {
  std::unique_ptr<mmdb::WritableFile> inner;
  mmdb::Status s = target_->NewWritableFile(path, truncate, &inner);
  if (!s.ok()) return s;
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const bool wal = base.rfind("wal-", 0) == 0;
  *out = std::make_unique<CountingFile>(this, std::move(inner), wal);
  return s;
}

}  // namespace e2e
