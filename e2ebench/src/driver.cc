#include "e2ebench/src/driver.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/net/client.h"

namespace e2e {

using mmdb::CompareOp;
using mmdb::Type;
using mmdb::Value;

namespace {

int64_t AsI64(const Value& v) {
  switch (v.type()) {
    case Type::kInt64: return v.AsInt64();
    case Type::kInt32: return v.AsInt32();
    default: return INT64_MIN;
  }
}

const char* SpanName(OpClass c) {
  switch (c) {
    case OpClass::kPointRead: return "net.call.point_read";
    case OpClass::kUpdate: return "net.call.update";
    case OpClass::kScan: return "net.call.scan";
    case OpClass::kOrdered: return "net.call.ordered";
    case OpClass::kJoin: return "net.call.join";
    case OpClass::kInsert: return "net.call.insert";
  }
  return "net.call";
}

mmdb::SelectSpec RSelect(const BenchOp& op) {
  mmdb::SelectSpec s;
  s.table = "r";
  s.where = {{"seq", CompareOp::kGe, Value(static_cast<int32_t>(op.a))},
             {"seq", CompareOp::kLe, Value(static_cast<int32_t>(op.b))}};
  return s;
}

}  // namespace

mmdb::Operation BuildOperation(const BenchOp& op, uint64_t seed) {
  switch (op.cls) {
    case OpClass::kPointRead: {
      mmdb::SelectSpec s;
      s.table = "accounts";
      s.where = {{"id", CompareOp::kEq, Value(op.a)}};
      s.columns = {"accounts.id", "accounts.bal"};
      return s;
    }
    case OpClass::kUpdate:
      return mmdb::IncrementSpec{"accounts",
                                 {"id", CompareOp::kEq, Value(op.a)},
                                 "bal",
                                 op.b};
    case OpClass::kScan: {
      mmdb::SelectSpec s;
      s.table = "r";
      s.where = {{"key", CompareOp::kEq, Value(static_cast<int32_t>(op.a))}};
      s.columns = {"r.seq", "r.key"};
      return s;
    }
    case OpClass::kOrdered: {
      mmdb::SelectSpec s = RSelect(op);
      s.columns = {"r.seq", "r.key"};
      s.ordered = true;
      return s;
    }
    case OpClass::kJoin: {
      mmdb::SelectSpec s = RSelect(op);
      s.join = mmdb::JoinClause{"s", "key", "key", {}};
      s.columns = {"r.seq", "s.seq"};
      return s;
    }
    case OpClass::kInsert:
      return mmdb::InsertSpec{"events",
                              {Value(op.a), Value(EventTag(op.a)),
                               Value(EventPayload(seed, op.a))}};
  }
  return mmdb::SelectSpec{};
}

std::string Oracle::Check(const BenchOp& op, const mmdb::OpResult& r) {
  const auto& rows = r.rows;
  auto cell = [&](size_t row, size_t col) -> int64_t {
    return row < rows.size() && col < rows[row].size() ? AsI64(rows[row][col])
                                                       : INT64_MIN;
  };
  switch (op.cls) {
    case OpClass::kPointRead:
      if (rows.size() != 1 || cell(0, 0) != op.a) {
        return "point read of id " + std::to_string(op.a) + " returned " +
               std::to_string(rows.size()) + " rows";
      }
      return "";
    case OpClass::kUpdate:
      if (r.rows_affected != 1) {
        return "increment of id " + std::to_string(op.a) + " touched " +
               std::to_string(r.rows_affected) + " rows";
      }
      acked_delta_.fetch_add(op.b);
      return "";
    case OpClass::kScan:
      if (rows.size() != 1 || cell(0, 0) != op.b || cell(0, 1) != op.a) {
        return "scan for key " + std::to_string(op.a) + " returned " +
               std::to_string(rows.size()) + " rows, not seq " +
               std::to_string(op.b);
      }
      return "";
    case OpClass::kOrdered: {
      if (rows.size() != static_cast<size_t>(op.b - op.a + 1)) {
        return "ordered range " + std::to_string(op.a) + " returned " +
               std::to_string(rows.size()) + " rows";
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t seq = op.a + static_cast<int64_t>(i);
        if (cell(i, 0) != seq ||
            cell(i, 1) != ds_->r_key[static_cast<size_t>(seq)]) {
          return "ordered range " + std::to_string(op.a) +
                 " out of order or wrong at row " + std::to_string(i);
        }
      }
      return "";
    }
    case OpClass::kJoin: {
      const int64_t want = ds_->JoinRows(op.a, op.b);
      if (static_cast<int64_t>(rows.size()) != want) {
        return "join on r.seq [" + std::to_string(op.a) + "," +
               std::to_string(op.b) + "] returned " +
               std::to_string(rows.size()) + " rows, expected " +
               std::to_string(want);
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t rs = cell(i, 0), ss = cell(i, 1);
        if (rs < op.a || rs > op.b || ss < 0 ||
            ss >= static_cast<int64_t>(ds_->s_key.size()) ||
            ds_->s_key[static_cast<size_t>(ss)] !=
                ds_->r_key[static_cast<size_t>(rs)]) {
          return "join row " + std::to_string(i) + " does not match";
        }
      }
      return "";
    }
    case OpClass::kInsert:
      if (r.rows_affected != 1) return "insert not applied";
      acked_inserts_.fetch_add(1);
      insert_checksum_.fetch_add(
          EventChecksum(op.a, EventPayload(ds_->seed, op.a)));
      return "";
  }
  return "unknown op";
}

PhaseResult RunPhase(uint16_t port, std::vector<OpSource> sources,
                     const PhaseOptions& options, uint64_t seed,
                     Oracle* oracle) {
  std::vector<PhaseResult> per(sources.size());
  std::vector<std::vector<Tracer::Span>> spans(sources.size());
  const double start = NowSeconds();
  const double deadline =
      options.seconds > 0 ? start + options.seconds : 1e300;
  Tracer* tracer = options.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();

  auto drive = [&](size_t conn) {
    PhaseResult& out = per[conn];
    OpSource& source = sources[conn];
    auto note = [&](std::string why) {
      if (out.errors.size() < 5) out.errors.push_back(std::move(why));
    };
    mmdb::net::Client client;
    mmdb::Status s = client.Connect("127.0.0.1", port);
    if (!s.ok()) {
      out.attempted = out.failed = 1;
      note("connect: " + s.ToString());
      return;
    }
    client.set_receive_timeout(std::chrono::milliseconds(60000));
    struct InFlight {
      BenchOp op;
      double sent;
      uint64_t trace_id;
      bool traced;
    };
    std::unordered_map<uint64_t, InFlight> inflight;
    // The op to send next; `more` is false once the source has run out.
    BenchOp next_op;
    bool more = source(&next_op);
    uint64_t sent_count = 0;
    double last_send = start;
    auto send_one = [&]() {
      mmdb::Operation operation = BuildOperation(next_op, seed);
      const uint64_t trace_id = (options.trace_tag << 56) |
                                (static_cast<uint64_t>(conn) << 48) |
                                ++sent_count;
      const double sent = NowSeconds();
      bool traced = tracing;
      if (tracing && options.trace_slice_s > 0) {
        traced = static_cast<uint64_t>((sent - start) /
                                       options.trace_slice_s) % 2 == 1;
      }
      uint64_t request_id = 0;
      ++out.attempted;
      last_send = sent;
      mmdb::Status st = client.Send(operation, &request_id, trace_id);
      if (!st.ok()) {
        ++out.failed;
        note("send: " + st.ToString());
        return false;
      }
      inflight.emplace(request_id, InFlight{next_op, sent, trace_id, traced});
      more = source(&next_op);
      return true;
    };
    bool healthy = true;
    while (healthy && inflight.size() < options.window && more &&
           NowSeconds() < deadline) {
      healthy = send_one();
    }
    while (!inflight.empty()) {
      mmdb::net::Response resp;
      s = client.Receive(&resp);
      const double done = NowSeconds();
      if (!s.ok()) {
        out.failed += inflight.size();
        note("receive: " + s.ToString());
        break;
      }
      auto it = inflight.find(resp.request_id);
      if (it == inflight.end()) {
        note("response for unknown request " +
             std::to_string(resp.request_id));
        continue;
      }
      const InFlight f = it->second;
      inflight.erase(it);
      const BenchOp& op = f.op;
      if (f.traced) {
        spans[conn].push_back(Tracer::Span{SpanName(op.cls), tracer->NextId(),
                                           0, f.trace_id, f.sent, done});
      }
      if (resp.is_error) {
        ++out.failed;
        if (resp.error_code == mmdb::net::WireErrorCode::kOverloaded) {
          ++out.shed;
        }
        note(std::string(ClassName(op.cls)) + " error frame: " +
             resp.error_message);
      } else if (!resp.result.ok()) {
        ++out.failed;
        note(std::string(ClassName(op.cls)) + ": " +
             resp.result.status.ToString());
      } else if (std::string why = oracle->Check(op, resp.result);
                 !why.empty()) {
        ++out.failed;
        ++out.mismatched;
        note("oracle: " + why);
      } else {
        Sample smp;
        smp.us = (done - f.sent) * 1e6;
        smp.sent_s = f.sent - start;
        smp.queue_us = resp.result.queue_us;
        smp.lock_us = resp.result.lock_us;
        smp.exec_us = resp.result.exec_us;
        smp.commit_us = resp.result.commit_us;
        smp.cls = op.cls;
        smp.cache = resp.result.cache_outcome;
        smp.attempts = static_cast<uint8_t>(
            std::min(resp.result.attempts, 255));
        smp.traced = f.traced;
        out.samples.push_back(smp);
      }
      if (healthy && more && done < deadline) healthy = send_one();
    }
    out.exhausted = options.seconds > 0 && !more;
    out.send_window_s = last_send - start;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < sources.size(); ++c) threads.emplace_back(drive, c);
  for (std::thread& t : threads) t.join();

  PhaseResult total;
  total.seconds = NowSeconds() - start;
  total.exhausted = !per.empty();
  for (size_t c = 0; c < per.size(); ++c) {
    PhaseResult& p = per[c];
    total.samples.insert(total.samples.end(), p.samples.begin(),
                         p.samples.end());
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.shed += p.shed;
    total.mismatched += p.mismatched;
    total.exhausted = total.exhausted && p.exhausted;
    total.send_window_s = std::max(total.send_window_s, p.send_window_s);
    for (std::string& e : p.errors) {
      if (total.errors.size() < 8) total.errors.push_back(std::move(e));
    }
    if (tracing) tracer->Merge(spans[c]);
  }
  std::stable_sort(total.samples.begin(), total.samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.sent_s < b.sent_s;
                   });
  return total;
}

}  // namespace e2e
