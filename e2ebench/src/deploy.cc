#include "e2ebench/src/deploy.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>

#include "src/storage/tuple.h"

namespace e2e {

using mmdb::Field;
using mmdb::Status;
using mmdb::Type;
using mmdb::Value;

namespace {

/// Rows per load transaction: a bulk loader's batch (eight partitions'
/// worth of slots).
constexpr size_t kLoadBatch = 8192;

int64_t AsI64(const Value& v) {
  return v.type() == Type::kInt64 ? v.AsInt64() : v.AsInt32();
}

/// Loads rows [0, n) through the public transaction API, kLoadBatch rows
/// per transaction.
Status LoadRows(mmdb::Database* db, const std::string& table, size_t n,
                const std::function<std::vector<Value>(size_t)>& row) {
  for (size_t i = 0; i < n; i += kLoadBatch) {
    auto txn = db->Begin();
    for (size_t j = i; j < std::min(n, i + kLoadBatch); ++j) {
      Status s = txn->Insert(table, row(j));
      if (!s.ok()) {
        txn->Abort();
        return s;
      }
    }
    Status s = txn->Commit();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

double ProcStatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024.0;
}

}  // namespace

double RssBytes() { return ProcStatusBytes("VmRSS:"); }
double PeakRssBytes() { return ProcStatusBytes("VmHWM:"); }

bool ResetPeakRss() {
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::unique_ptr<Deployment> SetUp(const WorkloadConfig& w, const Dataset& ds,
                                  const std::string& dir, mmdb::Env* env,
                                  Tracer* tracer, uint64_t parent_span,
                                  std::string* error) {
  ScopedSpan setup(tracer, "setup", parent_span);
  auto d = std::make_unique<Deployment>();
  d->db = std::make_unique<mmdb::Database>();
  mmdb::Database* db = d->db.get();
  const double rss_before = RssBytes();
  {
    ScopedSpan span(tracer, "setup.load", setup.id());
    db->CreateTable("accounts", {{"id", Type::kInt64}, {"bal", Type::kInt64}});
    db->CreateTable("r", {{"seq", Type::kInt32}, {"key", Type::kInt32}});
    db->CreateTable("s", {{"seq", Type::kInt32}, {"key", Type::kInt32}});
    db->CreateTable("events", {{"id", Type::kInt64},
                               {"tag", Type::kInt32},
                               {"payload", Type::kString}});
    if (db->CreateIndex("events", "tag", mmdb::IndexKind::kTTree) == nullptr) {
      *error = "cannot index events.tag";
      return nullptr;
    }
    Status s = LoadRows(db, "accounts", w.accounts, [](size_t i) {
      const auto id = static_cast<int64_t>(i);
      return std::vector<Value>{Value(id), Value(InitialBalance(id))};
    });
    if (s.ok()) {
      s = LoadRows(db, "r", ds.r_key.size(), [&](size_t i) {
        return std::vector<Value>{Value(static_cast<int32_t>(i)),
                                  Value(ds.r_key[i])};
      });
    }
    if (s.ok()) {
      s = LoadRows(db, "s", ds.s_key.size(), [&](size_t i) {
        return std::vector<Value>{Value(static_cast<int32_t>(i)),
                                  Value(ds.s_key[i])};
      });
    }
    if (!s.ok()) {
      *error = "load failed: " + s.ToString();
      return nullptr;
    }
    d->rows_loaded = w.accounts + ds.r_key.size() + ds.s_key.size();
  }
  {
    ScopedSpan span(tracer, "setup.index_build", setup.id());
    // Chained Bucket Hashing is static: size it to the row count.
    d->accounts_hash = db->CreateIndex(
        "accounts", "id", mmdb::IndexKind::kChainedBucketHash,
        mmdb::IndexConfig{.expected = w.accounts, .unique = true});
    if (d->accounts_hash == nullptr) {
      *error = "cannot build the accounts.id hash index";
      return nullptr;
    }
  }
  d->load_rss_bytes = RssBytes() - rss_before;
  if (w.durability != mmdb::DurabilityMode::kOff) {
    ScopedSpan span(tracer, "setup.durability", setup.id());
    mmdb::DurabilityOptions options;
    options.mode = w.durability;
    options.dir = dir;
    options.env = env;
    Status s = db->EnableDurability(std::move(options));
    if (!s.ok()) {
      *error = "EnableDurability: " + s.ToString();
      return nullptr;
    }
  }
  {
    ScopedSpan span(tracer, "setup.serve", setup.id());
    d->shipper = std::make_unique<mmdb::repl::Shipper>(db);
    d->service = std::make_unique<mmdb::QueryService>(db);
    d->server = std::make_unique<mmdb::net::Server>(d->service.get());
    mmdb::repl::Shipper* shipper = d->shipper.get();
    d->server->set_repl_handler([shipper](const std::string& request) {
      return shipper->HandleRequest(request);
    });
    Status s = d->server->Start();
    if (!s.ok()) {
      *error = "server start: " + s.ToString();
      return nullptr;
    }
  }
  return d;
}

Contents ReadContents(mmdb::Database* db) {
  Contents c;
  if (const mmdb::Relation* rel = db->GetTable("accounts")) {
    rel->ForEachTuple([&](mmdb::TupleRef t) {
      ++c.accounts;
      c.bal_sum += AsI64(mmdb::tuple::GetValue(t, rel->schema(), 1));
    });
  }
  if (const mmdb::Relation* rel = db->GetTable("events")) {
    rel->ForEachTuple([&](mmdb::TupleRef t) {
      ++c.events;
      c.events_checksum +=
          EventChecksum(AsI64(mmdb::tuple::GetValue(t, rel->schema(), 0)),
                        mmdb::tuple::GetValue(t, rel->schema(), 2).AsString());
    });
  }
  if (const mmdb::Relation* rel = db->GetTable("r")) {
    c.r_rows = rel->cardinality();
  }
  if (const mmdb::Relation* rel = db->GetTable("s")) {
    c.s_rows = rel->cardinality();
  }
  return c;
}

std::string Contents::ToString() const {
  std::ostringstream os;
  os << "accounts=" << accounts << " bal_sum=" << bal_sum
     << " events=" << events << " events_checksum=" << events_checksum
     << " r=" << r_rows << " s=" << s_rows;
  return os.str();
}

}  // namespace e2e
