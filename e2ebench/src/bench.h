// Shared types of the end-to-end benchmark: op classes, the compact
// pre-generated op stream, the bench-side dataset the oracle checks
// against, and the per-workload deployment configuration.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/durability.h"

namespace e2e {

/// The seven latency classes the end-to-end metrics name.
enum class OpClass : uint8_t {
  kPointRead,  ///< accounts: SELECT by id (unique chained-bucket hash)
  kUpdate,     ///< accounts: bal += delta by id (IncrementSpec)
  kScan,       ///< r: unindexed equality on key, 1 row
  kOrdered,    ///< r: T Tree range of 100 seq values, ORDER BY
  kJoin,       ///< r ⋈ s on the unindexed key, selective range on r.seq
  kInsert,     ///< events: one row with a ~100 B payload
};
constexpr size_t kNumClasses = 6;
const char* ClassName(OpClass c);
inline bool IsWrite(OpClass c) {
  return c == OpClass::kUpdate || c == OpClass::kInsert;
}

/// One generated operation.  Field meaning depends on the class:
/// point/update: a = account id, b = delta; scan: a = r.key, b = expected
/// r.seq; ordered/join: [a, b] = r.seq range; insert: a = event id.
struct BenchOp {
  OpClass cls = OpClass::kPointRead;
  int64_t a = 0;
  int64_t b = 0;
  bool operator==(const BenchOp& o) const = default;
};
using OpStream = std::vector<BenchOp>;
/// Hands out one connection's ops, one at a time; false once they run out.
using OpSource = std::function<bool(BenchOp*)>;
/// A source that hands out `ops` in order.
OpSource Replay(OpStream ops);
/// A source that hands out the next `n` ops of `*source` (which must
/// outlive it) and then runs out.
OpSource Take(OpSource* source, size_t n);

constexpr int64_t kOrderedWidth = 100;  ///< seq values per ordered range
constexpr int64_t kJoinWidth = 40;      ///< outer r.seq values per join

/// Deterministic 64-bit mixer (splitmix64 finalizer).
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Payload of event `id`: ~100 printable bytes derived from (seed, id).
std::string EventPayload(uint64_t seed, int64_t id);
inline int32_t EventTag(int64_t id) { return static_cast<int32_t>(id % 1024); }
/// Order-independent per-row checksum term of an event row.
uint64_t EventChecksum(int64_t id, const std::string& payload);
inline int64_t InitialBalance(int64_t id) { return id % 1000; }

/// What the bench knows about the loaded data, for generating ops with
/// known answers and for the oracle.
struct Dataset {
  uint64_t seed = 0;
  size_t accounts = 0;
  std::vector<int32_t> r_key;  ///< r.key by r.seq (distinct values)
  std::vector<int32_t> s_key;  ///< s.key by s.seq (drawn from r's keys)
  std::unordered_map<int32_t, int32_t> s_count;  ///< occurrences in s.key
  /// Seeded permutations that hand out fresh constants: scan keys (by
  /// r.seq) and range starts.  Disjoint slices go to the warm-up and timed
  /// phase and to the in-process layer probes, so no constant repeats.
  std::vector<int32_t> scan_perm;
  std::vector<int32_t> range_perm;
  /// Fresh account ids for point reads and increments outside the warm-up
  /// and timed phase (whose keys are Zipf-skewed and repeat, on purpose).
  std::vector<int32_t> account_perm;

  /// Expected join cardinality for outer range [lo, hi].
  int64_t JoinRows(int64_t lo, int64_t hi) const;
};
Dataset MakeDataset(uint64_t seed, size_t accounts, size_t paper_rows);

/// One workload: deployment plus the traffic its timed phase runs.
struct WorkloadConfig {
  std::string name;
  size_t accounts = 0;    ///< rows in accounts
  size_t paper_rows = 0;  ///< rows in each of r and s
  mmdb::DurabilityMode durability = mmdb::DurabilityMode::kOff;
  size_t window = 1;      ///< in-flight requests per connection
  std::vector<OpClass> timed;  ///< classes of the timed mix
  size_t checkpoint_every = 0;  ///< CheckpointNow after this many inserts
  /// Ops of the timed mix sent before timing starts (split over the
  /// connections): a fixed count, so the state the timed phase starts
  /// from (reuse-cache contents, rows) does not depend on speed.
  size_t warmup_ops = 0;
  /// The timed phase runs exactly this many ops per second of --seconds
  /// (split over the connections) instead of running for --seconds, so the
  /// work it does and the state it leaves do not depend on its speed.
  size_t ops_per_second = 0;
  /// Times set-up, catch-up and recovery are each repeated: enough for
  /// the repetitions to span several seconds.
  int reps = 15;
};
constexpr size_t kConnections = 2;   ///< load connections per phase

const WorkloadConfig* FindWorkload(const std::string& name);
const std::vector<WorkloadConfig>& Workloads();

/// Fresh-constant slices of Dataset::scan_perm / range_perm, and the
/// ranges of event ids each part of a run inserts.  kTimed serves the
/// warm-up and the timed phase; kTail (the inserts recovery replays)
/// holds no fresh constants.
enum class Slice { kTimed, kLayer, kTail };

/// Op sources of the warm-up and then the timed phase, one per connection,
/// generated only from (seed, workload) as the ops are sent.  They run out
/// when the fresh constants do, or after the warm-up and the timed phase's
/// op count.
std::vector<OpSource> TimedSources(const WorkloadConfig& w, const Dataset& ds,
                                   double seconds);
/// Up to `n` ops of one class for connection `part` of `parts`, drawn from
/// `slice` (fewer if the slice's fresh constants run out).
OpStream ClassOps(OpClass c, const Dataset& ds, Slice slice, size_t part,
                  size_t parts, size_t n);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
