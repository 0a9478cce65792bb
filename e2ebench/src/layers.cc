#include "e2ebench/src/layers.h"

#include <cmath>

#include "src/core/planner.h"
#include "src/core/query.h"
#include "src/net/client.h"
#include "src/util/counters.h"

namespace e2e {

using mmdb::CompareOp;
using mmdb::Planner;
using mmdb::Predicate;
using mmdb::Value;

namespace {

constexpr size_t kPings = 2000;
constexpr size_t kInprocOps = 1000;
constexpr double kInprocSeconds = 1.0;
constexpr size_t kExecOps = 200;
constexpr size_t kPlanBatches = 400;
constexpr size_t kLookupBatches = 2000;
constexpr size_t kBatch = 32;  ///< calls timed together below 1 µs each

/// Keeps a computed value alive so the timed loop is not optimized away.
volatile uint64_t g_sink = 0;

double Work(const mmdb::OpCounters& c) {
  return static_cast<double>(c.comparisons + c.hash_calls);
}

void Add(std::vector<Metric>* out, std::string name, std::vector<double> v,
         const char* unit) {
  const size_t n = v.size();
  out->push_back(Metric{std::move(name), Median(std::move(v)), unit, n});
}

}  // namespace

void MeasureIdleLayers(Deployment* d, const WorkloadConfig& w,
                       const Dataset& ds, Oracle* oracle, Tracer* tracer,
                       std::vector<Metric>* out, std::string* error) {
  ScopedSpan root(tracer, "layers");
  mmdb::Database* db = d->db.get();

  {  // net: protocol + epoll floor, no execution.
    mmdb::net::Client client;
    mmdb::Status s = client.Connect("127.0.0.1", d->port());
    std::vector<double> rtt;
    for (size_t i = 0; s.ok() && i < kPings; ++i) {
      ScopedSpan span(tracer, "net.ping", root.id());
      const double t0 = NowSeconds();
      s = client.Ping();
      rtt.push_back((NowSeconds() - t0) * 1e6);
    }
    if (!s.ok()) *error = "ping: " + s.ToString();
    Add(out, "net.ping_rtt_us_p50", rtt, "us");
  }

  {  // server: the timed mix's first class through Execute, no socket.
    mmdb::Session* session = d->service->OpenSession();
    const OpStream ops = ClassOps(w.timed.front(), ds, Slice::kLayer, 0, 2,
                                  kInprocOps);
    std::vector<double> lat;
    uint64_t trace_id = uint64_t{0xE0} << 56;
    const double stop = NowSeconds() + kInprocSeconds;
    for (const BenchOp& op : ops) {
      if (NowSeconds() > stop) break;
      ++trace_id;
      ScopedSpan span(tracer, "server.execute", root.id(), trace_id);
      const double t0 = NowSeconds();
      mmdb::OpResult r =
          d->service->Execute(session, BuildOperation(op, ds.seed), trace_id);
      lat.push_back((NowSeconds() - t0) * 1e6);
      std::string why = r.ok() ? oracle->Check(op, r) : r.status.ToString();
      if (!why.empty() && error->empty()) *error = "in-process: " + why;
    }
    d->service->CloseSession(session);
    Add(out, "server.inproc_us_p50", lat, "us");
  }

  const mmdb::Relation* r = db->GetTable("r");
  const mmdb::Relation* s = db->GetTable("s");
  const size_t kSeq = 0, kKey = 1;

  {  // core: access-path and join-method choice alone.
    std::vector<Predicate> preds(kBatch);
    for (size_t j = 0; j < kBatch; ++j) {
      preds[j].Add(kKey, CompareOp::kEq, Value(ds.r_key[j]));
    }
    std::vector<double> sel, join;
    const mmdb::JoinSpec spec{r, kKey, s, kKey};
    for (size_t b = 0; b < kPlanBatches; ++b) {
      {
        ScopedSpan span(tracer, "core.plan_select", root.id());
        const double t0 = NowSeconds();
        for (const Predicate& p : preds) {
          g_sink = g_sink + static_cast<uint64_t>(Planner::PlanSelect(*r, p));
        }
        sel.push_back((NowSeconds() - t0) * 1e6 / kBatch);
      }
      ScopedSpan span(tracer, "core.plan_join", root.id());
      const double t0 = NowSeconds();
      for (size_t j = 0; j < kBatch; ++j) {
        g_sink = g_sink + static_cast<uint64_t>(Planner::PlanJoin(spec).method);
      }
      join.push_back((NowSeconds() - t0) * 1e6 / kBatch);
    }
    Add(out, "core.plan_select_us_p50", sel, "us");
    Add(out, "core.plan_join_us_p50", join, "us");
  }

  {  // exec (+ the cost model's error): QueryBuilder::Run in-process.
    std::vector<double> us, cmp, err;
    for (const BenchOp& op :
         ClassOps(OpClass::kScan, ds, Slice::kLayer, 1, 2, kExecOps)) {
      Predicate pred;
      pred.Add(kKey, CompareOp::kEq, Value(static_cast<int32_t>(op.a)));
      const double est = Planner::EstimateSelectCost(
          *r, pred, Planner::PlanSelect(*r, pred));
      ScopedSpan span(tracer, "exec.scan", root.id());
      const mmdb::OpCounters before = mmdb::counters::Snapshot();
      const double t0 = NowSeconds();
      mmdb::QueryResult res =
          db->Query("r")
              .Where("key", CompareOp::kEq, Value(static_cast<int32_t>(op.a)))
              .Select({"r.seq", "r.key"})
              .Run();
      us.push_back((NowSeconds() - t0) * 1e6);
      const mmdb::OpCounters delta = mmdb::counters::Snapshot() - before;
      cmp.push_back(static_cast<double>(delta.comparisons) /
                    static_cast<double>(r->cardinality()));
      err.push_back(std::log2(Work(delta) / est));
      if (res.rows.size() != 1 && error->empty()) *error = "exec scan rows";
    }
    Add(out, "exec.scan_us_p50", us, "us");
    Add(out, "exec.scan_cmp_per_row", cmp, "count");
    Add(out, "core.cost_error_log2.scan", err, "log2");
  }
  {
    std::vector<double> us, cmp;
    for (const BenchOp& op :
         ClassOps(OpClass::kOrdered, ds, Slice::kLayer, 1, 2, kExecOps)) {
      ScopedSpan span(tracer, "exec.ordered", root.id());
      const mmdb::OpCounters before = mmdb::counters::Snapshot();
      const double t0 = NowSeconds();
      mmdb::QueryResult res =
          db->Query("r")
              .Where("seq", CompareOp::kGe, Value(static_cast<int32_t>(op.a)))
              .Where("seq", CompareOp::kLe, Value(static_cast<int32_t>(op.b)))
              .Select({"r.seq", "r.key"})
              .OrderBySelected()
              .Run();
      us.push_back((NowSeconds() - t0) * 1e6);
      const mmdb::OpCounters delta = mmdb::counters::Snapshot() - before;
      const size_t rows = res.rows.size();
      cmp.push_back(static_cast<double>(delta.comparisons) /
                    static_cast<double>(std::max<size_t>(rows, 1)));
      if (rows != static_cast<size_t>(kOrderedWidth) && error->empty()) {
        *error = "exec ordered rows";
      }
    }
    Add(out, "exec.ordered_us_p50", us, "us");
    Add(out, "exec.ordered_cmp_per_row", cmp, "count");
  }
  {
    std::vector<double> us, cmp, hash, moves, err;
    for (const BenchOp& op :
         ClassOps(OpClass::kJoin, ds, Slice::kLayer, 1, 2, kExecOps)) {
      Predicate outer;
      outer.Add(kSeq, CompareOp::kGe, Value(static_cast<int32_t>(op.a)));
      outer.Add(kSeq, CompareOp::kLe, Value(static_cast<int32_t>(op.b)));
      const size_t outer_rows = static_cast<size_t>(op.b - op.a + 1);
      const double est =
          Planner::EstimateSelectCost(*r, outer,
                                      Planner::PlanSelect(*r, outer)) +
          Planner::EstimateProbeJoinCost(outer_rows, *s, nullptr);
      ScopedSpan span(tracer, "exec.join", root.id());
      const mmdb::OpCounters before = mmdb::counters::Snapshot();
      const double t0 = NowSeconds();
      mmdb::QueryResult res =
          db->Query("r")
              .Where("seq", CompareOp::kGe, Value(static_cast<int32_t>(op.a)))
              .Where("seq", CompareOp::kLe, Value(static_cast<int32_t>(op.b)))
              .JoinWith("s", "key", "key")
              .Select({"r.seq", "s.seq"})
              .Run();
      us.push_back((NowSeconds() - t0) * 1e6);
      const mmdb::OpCounters delta = mmdb::counters::Snapshot() - before;
      // Per input row: the whole inner relation plus the selected outer rows.
      const double in_rows = static_cast<double>(s->cardinality() + outer_rows);
      cmp.push_back(static_cast<double>(delta.comparisons) / in_rows);
      hash.push_back(static_cast<double>(delta.hash_calls) / in_rows);
      moves.push_back(static_cast<double>(delta.data_moves) / in_rows);
      err.push_back(std::log2(Work(delta) / est));
      if (static_cast<int64_t>(res.rows.size()) != ds.JoinRows(op.a, op.b) &&
          error->empty()) {
        *error = "exec join rows";
      }
    }
    Add(out, "exec.join_us_p50", us, "us");
    Add(out, "exec.join_cmp_per_row", cmp, "count");
    Add(out, "exec.join_hash_per_row", hash, "count");
    Add(out, "exec.join_moves_per_row", moves, "count");
    Add(out, "core.cost_error_log2.join", err, "log2");
  }

  {  // index: the accounts.id chained-bucket hash, probed directly.
    std::vector<double> ns, cmp;
    uint64_t key = Mix(ds.seed ^ 0x1D3);
    for (size_t b = 0; b < kLookupBatches; ++b) {
      Value keys[kBatch];
      for (Value& k : keys) {
        key = Mix(key);
        k = Value(static_cast<int64_t>(key % ds.accounts));
      }
      ScopedSpan span(tracer, "index.find", root.id());
      const mmdb::OpCounters before = mmdb::counters::Snapshot();
      const double t0 = NowSeconds();
      for (const Value& k : keys) {
        g_sink = g_sink + (d->accounts_hash->Find(k) != nullptr ? 1 : 0);
      }
      ns.push_back((NowSeconds() - t0) * 1e9 / kBatch);
      const mmdb::OpCounters delta = mmdb::counters::Snapshot() - before;
      cmp.push_back(static_cast<double>(delta.comparisons) / kBatch);
    }
    Add(out, "index.point_lookup_ns_p50", ns, "ns");
    Add(out, "index.cmp_per_lookup", cmp, "count");
  }
}

}  // namespace e2e
