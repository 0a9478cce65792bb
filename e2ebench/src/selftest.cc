// `e2ebench --selftest`: the percentile math and the determinism of the
// op streams (same seed => identical op lists; another seed => different
// lists; the timed and layer slices never share a fresh constant; the
// warm-up and the timed phase have exactly their op counts).

#include <cstdio>
#include <set>
#include <utility>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/stats.h"

namespace e2e {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = hi; i >= lo; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void PercentileMath() {
  std::vector<double> v = Range(1, 100);
  Expect(Percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(v, 1.0) == 100, "p100 of 1..100 is 100");
  v = Range(1, 1000);
  Expect(Percentile(v, 0.99) == 990, "p99 of 1..1000 is 990");
  Expect(Percentile(v, 0.5) == 500, "p50 of 1..1000 is 500");
  v = {7};
  Expect(Percentile(v, 0.5) == 7 && Percentile(v, 0.99) == 7,
         "one sample is every percentile");
  v = {};
  Expect(Percentile(v, 0.5) == 0, "no samples gives 0");
  Expect(Median({3, 1, 2}) == 2, "median of {3,1,2} is 2");
  Expect(Median({4, 1, 3, 2}) == 2, "nearest-rank median of 4 samples");

  v = Range(1, 1499);
  std::vector<double> copy = v;
  Expect(SlicedPercentile(v, 0.99) == Percentile(copy, 0.99),
         "under 1500 samples the sliced percentile is the plain one");
  // 2000 samples rising steadily: 3 slices, not 4, whose middle holds the
  // plain median (four slices would give the lower middle one's, 749).
  std::vector<double> rising;
  for (int i = 0; i < 2000; ++i) rising.push_back(i);
  Expect(SlicedPercentile(rising, 0.5) == 999,
         "sliced p50 of a steady drift is the plain median");
  // 5000 samples spread evenly over 1..1000, with a stall (x100) over the
  // middle fifth: 9 slices, of which the stall reaches 3.
  std::vector<double> five;
  for (int i = 0; i < 5000; ++i) {
    const double x = (i * 7919) % 1000 + 1;
    five.push_back(i >= 2000 && i < 3000 ? x * 100 : x);
  }
  Expect(SlicedPercentile(five, 0.99) <= 1000,
         "sliced p99 ignores a stall in a minority of slices");
  Expect(SlicedPercentile(five, 0.5) <= 600, "sliced p50 ignores the stall");
}

/// Up to `n` ops drawn from `source`.
OpStream Draw(OpSource& source, size_t n) {
  OpStream out;
  BenchOp op;
  while (out.size() < n && source(&op)) out.push_back(op);
  return out;
}

std::vector<OpStream> AllStreams(const WorkloadConfig& w, uint64_t seed) {
  const Dataset ds = MakeDataset(seed, w.accounts, w.paper_rows);
  std::vector<OpStream> out;
  for (OpSource& source : TimedSources(w, ds, 1.0)) {
    out.push_back(Draw(source, 2000));
  }
  for (size_t k = 0; k < kNumClasses; ++k) {
    out.push_back(
        ClassOps(static_cast<OpClass>(k), ds, Slice::kLayer, 0, 2, 500));
  }
  return out;
}

void Determinism() {
  for (const WorkloadConfig& w : Workloads()) {
    const std::string name = w.name;
    const auto a = AllStreams(w, 7);
    const auto b = AllStreams(w, 7);
    const auto c = AllStreams(w, 8);
    Expect(a == b, ("same seed, same ops: " + name).c_str());
    Expect(a != c, ("other seed, other ops: " + name).c_str());
    Expect(!a.empty() && !a.front().empty(),
           ("timed stream not empty: " + name).c_str());
    // The warm-up takes its count; the timed phase then sends exactly
    // seconds x rate ops.
    const Dataset ds = MakeDataset(7, w.accounts, w.paper_rows);
    size_t warmup = 0, timed = 0;
    for (OpSource& source : TimedSources(w, ds, 2.0)) {
      OpSource first = Take(&source, w.warmup_ops / kConnections);
      warmup += Draw(first, SIZE_MAX).size();
      timed += Draw(source, SIZE_MAX).size();
    }
    Expect(warmup == w.warmup_ops, ("warm-up op count: " + name).c_str());
    Expect(timed == 2 * w.ops_per_second, ("timed op count: " + name).c_str());
  }
}

void FreshConstantsAreDisjoint() {
  const WorkloadConfig& w = *FindWorkload("analytic_scan_join");
  const Dataset ds = MakeDataset(3, w.accounts, w.paper_rows);
  for (OpClass cls : {OpClass::kScan, OpClass::kOrdered, OpClass::kJoin}) {
    std::multiset<int64_t> seen;
    size_t total = 0;
    for (Slice slice : {Slice::kTimed, Slice::kLayer}) {
      for (size_t part = 0; part < 2; ++part) {
        for (const BenchOp& op : ClassOps(cls, ds, slice, part, 2, 1u << 20)) {
          seen.insert(op.a);
          ++total;
        }
      }
    }
    const std::set<int64_t> distinct(seen.begin(), seen.end());
    Expect(distinct.size() == total,
           (std::string("no constant repeats: ") + ClassName(cls)).c_str());
  }
  // Scan constants are r keys whose row the generator knows.
  for (const BenchOp& op : ClassOps(OpClass::kScan, ds, Slice::kLayer, 0, 1,
                                    100)) {
    Expect(ds.r_key[static_cast<size_t>(op.b)] == op.a,
           "scan op predicts its row");
  }
}

}  // namespace

int SelfTest() {
  PercentileMath();
  Determinism();
  FreshConstantsAreDisjoint();
  std::printf("selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace e2e
