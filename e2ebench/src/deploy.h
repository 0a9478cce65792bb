// A served deployment, assembled as `mmdb_shell --serve` assembles one:
// Database + Shipper + QueryService (default options) + net::Server
// (default options, ephemeral port) with the log-shipping handler wired.

#ifndef E2EBENCH_DEPLOY_H_
#define E2EBENCH_DEPLOY_H_

#include <memory>
#include <string>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/stats.h"
#include "src/core/database.h"
#include "src/net/server.h"
#include "src/repl/shipper.h"
#include "src/server/query_service.h"

namespace e2e {

/// Members are destroyed in reverse order: the server stops (draining
/// in-flight callbacks) before the service, the Shipper its handler calls,
/// and the database.
struct Deployment {
  std::unique_ptr<mmdb::Database> db;
  std::unique_ptr<mmdb::repl::Shipper> shipper;
  std::unique_ptr<mmdb::QueryService> service;
  std::unique_ptr<mmdb::net::Server> server;
  mmdb::TupleIndex* accounts_hash = nullptr;
  size_t rows_loaded = 0;
  /// Resident-set growth over the load, in bytes.
  double load_rss_bytes = 0;

  uint16_t port() const { return server->port(); }
};

/// Builds the schema, loads `ds` through batched transactions, builds the
/// indices, enables durability (sync workloads) in `dir` through `env`,
/// and starts serving.  Returns nullptr (with *error set) on failure.
std::unique_ptr<Deployment> SetUp(const WorkloadConfig& w, const Dataset& ds,
                                  const std::string& dir, mmdb::Env* env,
                                  Tracer* tracer, uint64_t parent_span,
                                  std::string* error);

/// Sum of accounts.bal, count and checksum of events, and row counts of r
/// and s — what the oracle compares a rebuilt database against.
struct Contents {
  int64_t bal_sum = 0;
  uint64_t accounts = 0;
  uint64_t events = 0;
  uint64_t events_checksum = 0;
  uint64_t r_rows = 0;
  uint64_t s_rows = 0;
  bool operator==(const Contents& o) const = default;
  std::string ToString() const;
};
/// Reads every table in-process.  No traffic may run concurrently.
Contents ReadContents(mmdb::Database* db);

/// Resident set size now / at its peak, in bytes (from /proc/self/status).
double RssBytes();
double PeakRssBytes();
/// Restarts the peak at the current resident set size; false if the
/// kernel does not allow it.
bool ResetPeakRss();

}  // namespace e2e

#endif  // E2EBENCH_DEPLOY_H_
