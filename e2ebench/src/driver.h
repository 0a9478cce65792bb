// Closed-loop load over loopback net::Client connections, with the
// per-response oracle.  Each connection is driven by one thread that keeps
// a fixed window of requests in flight and sends the next op only when a
// response arrives — an application's connection pool, where every
// connection waits for its replies.

#ifndef E2EBENCH_DRIVER_H_
#define E2EBENCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/stats.h"
#include "src/server/operation.h"

namespace e2e {

/// Translates a generated op into the declarative operation the service
/// executes (the only thing the program sees).
mmdb::Operation BuildOperation(const BenchOp& op, uint64_t seed);

/// Checks every response against the generator's prediction and keeps
/// the totals of acknowledged writes for the end-of-run checks.
class Oracle {
 public:
  explicit Oracle(const Dataset* ds) : ds_(ds) {}

  /// Empty if `result` is the right answer to `op`, else the reason.
  /// Acknowledged writes are added to the totals.
  std::string Check(const BenchOp& op, const mmdb::OpResult& result);

  int64_t acked_delta() const { return acked_delta_.load(); }
  uint64_t acked_inserts() const { return acked_inserts_.load(); }
  uint64_t insert_checksum() const { return insert_checksum_.load(); }

 private:
  const Dataset* ds_;
  std::atomic<int64_t> acked_delta_{0};
  std::atomic<uint64_t> acked_inserts_{0};
  std::atomic<uint64_t> insert_checksum_{0};
};

/// One completed, correct operation.
struct Sample {
  double us = 0;        ///< client-observed: Send -> response received
  double sent_s = 0;    ///< send time, seconds since the phase started
  uint32_t queue_us = 0, lock_us = 0, exec_us = 0, commit_us = 0;  ///< echoed
  OpClass cls = OpClass::kPointRead;
  mmdb::CacheOutcome cache = mmdb::CacheOutcome::kNone;
  uint8_t attempts = 1;
  bool traced = false;
};

struct PhaseResult {
  std::vector<Sample> samples;  ///< in send order
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< errors, shed and oracle mismatches
  uint64_t shed = 0;        ///< typed kOverloaded replies
  uint64_t mismatched = 0;  ///< oracle mismatches
  double seconds = 0;       ///< first send to last response
  double send_window_s = 0; ///< first send to the last send
  bool exhausted = false;   ///< every source ran out before the deadline
  std::vector<std::string> errors;  ///< the first few diagnostics
};

struct PhaseOptions {
  size_t window = 1;
  double seconds = 0;    ///< stop sending after this; 0 = run every op
  Tracer* tracer = nullptr;
  /// Alternate traced and untraced slices of this length (0 = trace every
  /// op when the tracer is enabled), so one run yields both rates.
  double trace_slice_s = 0;
  uint64_t trace_tag = 0;  ///< high byte of the trace ids this phase sends
};

/// Runs one source per connection against 127.0.0.1:`port`.
PhaseResult RunPhase(uint16_t port, std::vector<OpSource> sources,
                     const PhaseOptions& options, uint64_t seed,
                     Oracle* oracle);

}  // namespace e2e

#endif  // E2EBENCH_DRIVER_H_
