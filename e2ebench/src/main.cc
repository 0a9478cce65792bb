// End-to-end benchmark of the served MM-DBMS.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> [--spans <file>]
//   e2ebench --selftest
//
// One process runs the whole stack: net::Server -> QueryService ->
// Database/planner -> reuse cache -> operators -> indices -> relations ->
// locks/WAL/recovery -> Shipper/Replica, driven over loopback Clients.
// A run is: set-up (repeated, median reported; once when tracing), a
// warm-up and then the timed phase, each a fixed count of the workload's
// mix (the timed one about --seconds' worth), then durability: it is
// turned on where the workload ran without it, a checkpoint is taken, a
// fixed tail of inserts follows, a fresh Replica catches up from the
// Shipper and a fresh Database recovers the directory (each repeated, the
// fastest reported).  Every response, the primary and both rebuilt databases are
// checked against the generator's predictions and the acknowledged writes.
//
// Output: one line per metric (name, value, unit, sample count), then the
// result as one JSON object on the last line.  Failed operations (errors,
// shed requests, mismatches) are counted in "failed"; any oracle mismatch
// also makes "correct" false and the exit code 1.  Exit code 2 on a usage
// or set-up error, with no result printed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/deploy.h"
#include "e2ebench/src/driver.h"
#include "e2ebench/src/layers.h"
#include "e2ebench/src/stats.h"
#include "src/repl/replica.h"

namespace e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kTraceSliceSeconds = 0.2;
/// The warm-up and the timed phase are each cut after this many times
/// --seconds, so a pathologically slow program still ends within the run's
/// time limit.
constexpr double kPhaseCap = 3.0;
/// Inserts acknowledged after the last checkpoint, so catch-up and
/// recovery both replay the same amount of WAL on every workload.  One
/// connection, one request in flight: each insert waits for its own
/// fsync, which also gives the WAL metrics of the traced run.
constexpr size_t kTailInserts = 2000;
/// Set-up, catch-up and recovery are each timed WorkloadConfig::reps
/// times (set-up's median and the others' minimum are reported).
/// Repetitions start at least kRepSpacingSeconds apart: a shared host's
/// speed drifts by 10-20% over seconds, and repetitions spread over
/// several seconds see more of its states than ones run back to back.
constexpr double kRepSpacingSeconds = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--workdir") {
      a->workdir = v;
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && !a->workdir.empty() &&
                         a->seconds > 0);
}

struct Report {
  std::vector<Metric> metrics;  ///< the result's metrics (BENCHMARK.json)
  std::vector<Metric> printed;  ///< reported beside them, not gated
  void Add(std::string name, double value, const char* unit, size_t n = 0) {
    metrics.push_back(Metric{std::move(name), value, unit, n});
  }
  /// p50 (and p99 when `with_p99`) of client latency for one class.
  void Latency(const std::vector<Sample>& samples, OpClass c, bool with_p99) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.cls == c) v.push_back(s.us);
    }
    const std::string base = ClassName(c);
    const size_t n = v.size();
    printed.push_back({base + "_p50_us", SlicedPercentile(v, 0.50), "us", n});
    if (with_p99) {
      printed.push_back({base + "_p99_us", SlicedPercentile(v, 0.99), "us", n});
    }
  }
};

void PrintMetric(const Metric& x) {
  if (x.samples > 0) {
    std::printf("  %-30s %14.4f %-6s (n=%zu)\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.samples);
  } else {
    std::printf("  %-30s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

/// Echoed server-side micros of `samples` (optionally writes only).
std::vector<double> Echoed(const std::vector<Sample>& samples,
                           uint32_t Sample::*field, bool writes_only = false) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (!writes_only || IsWrite(s.cls)) v.push_back(s.*field);
  }
  return v;
}

size_t CountWrites(const std::vector<Sample>& samples) {
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(),
      [](const Sample& s) { return IsWrite(s.cls); }));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The smallest of `times`, 0 if there are none.
double Fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

/// Completions in each whole second of the first `seconds` of a phase.
std::vector<double> PerSecond(const std::vector<Sample>& samples,
                              double seconds) {
  std::vector<double> per_second(static_cast<size_t>(seconds), 0.0);
  for (const Sample& s : samples) {
    const auto at = static_cast<size_t>(s.sent_s + s.us * 1e-6);
    if (at < per_second.size()) per_second[at] += 1;
  }
  return per_second;
}

/// Runs `once` `reps` times, starting repetitions at least
/// kRepSpacingSeconds apart, and returns the seconds each repetition timed
/// (the step itself, not its preparation or checks); stops at the first
/// repetition that fails (returns a negative time).
template <typename F>
std::vector<double> Repeat(int reps, F&& once) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = NowSeconds();
    const double seconds = once(rep);
    if (seconds < 0) break;
    times.push_back(seconds);
    const double idle = t0 + kRepSpacingSeconds - NowSeconds();
    if (rep + 1 < reps && idle > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(idle));
    }
  }
  return times;
}

/// Accumulates attempts/failures over phases and remembers why any failed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  void Fold(const char* phase, const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.mismatched > 0) correct = false;
    for (const std::string& e : p.errors) Fail(std::string(phase) + ": " + e);
  }
  void Fail(std::string why) {
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
  void Mismatch(std::string why) {
    correct = false;
    ++failed;
    Fail(std::move(why));
  }
};

int Run(const Args& args) {
  const WorkloadConfig* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  Tracer tracer;
  tracer.set_enabled(args.trace);
  ScopedSpan run_span(&tracer, "run");
  Outcome outcome;
  Report report;
  std::vector<Metric> layer;

  const Dataset ds = MakeDataset(args.seed, w->accounts, w->paper_rows);
  // Set-up, repeated; the last deployment is the one measured.
  CountingEnv env(mmdb::Env::Posix());
  const std::string primary_dir = args.workdir + "/primary";
  std::unique_ptr<Deployment> d;
  double bytes_per_row = 0;
  std::string setup_error;
  const std::vector<double> setup_s = Repeat(
      args.trace ? 1 : w->reps, [&](int rep) {
        d.reset();
        fs::remove_all(primary_dir);
        fs::create_directories(primary_dir);
        const double t0 = NowSeconds();
        d = SetUp(*w, ds, primary_dir, &env, &tracer, run_span.id(),
                  &setup_error);
        const double took = NowSeconds() - t0;
        if (d == nullptr) return -1.0;
        if (rep == 0) bytes_per_row = Ratio(d->load_rss_bytes, d->rows_loaded);
        return took;
      });
  if (d == nullptr) {
    std::fprintf(stderr, "set-up failed: %s\n", setup_error.c_str());
    return 2;
  }
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  Oracle oracle(&ds);

  // Op sources are built after set-up (so the load's RSS growth is the
  // load's own) and before anything else is timed; they generate each op
  // as it is sent.  The warm-up takes the first ops of each.
  std::vector<OpSource> timed_ops = TimedSources(*w, ds, args.seconds);
  std::vector<OpSource> warmup_ops;
  for (OpSource& source : timed_ops) {
    warmup_ops.push_back(Take(&source, w->warmup_ops / kConnections));
  }

  // mem_mib is the peak of the serving process from here to the end of
  // the timed phase: not the earlier set-ups, not the replica and the
  // recovered copies the checks below build beside it.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "note: cannot reset the peak RSS; mem_mib "
                         "includes the set-up repetitions\n");
  }
  {
    PhaseOptions warm;
    warm.window = w->window;
    warm.seconds = args.seconds * kPhaseCap;
    outcome.Fold("warmup", RunPhase(d->port(), std::move(warmup_ops), warm,
                                    ds.seed, &oracle));
  }

  // Timed phase, with the operator's periodic checkpoints when configured.
  const mmdb::cache::CacheStats cache0 = d->db->reuse_cache().Stats();
  std::vector<double> ckpt_ms;
  PhaseResult timed;
  {
    ScopedSpan span(&tracer, "phase.timed", run_span.id());
    std::atomic<bool> done{false};
    std::thread checkpointer;
    if (w->checkpoint_every > 0) {
      checkpointer = std::thread([&] {
        uint64_t mark = oracle.acked_inserts() + w->checkpoint_every;
        while (!done.load()) {
          if (oracle.acked_inserts() < mark) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
          }
          ScopedSpan ck(&tracer, "wal.checkpoint", span.id());
          const double t0 = NowSeconds();
          mmdb::Status s = d->db->CheckpointNow();
          ckpt_ms.push_back((NowSeconds() - t0) * 1e3);
          if (!s.ok()) outcome.Fail("checkpoint: " + s.ToString());
          mark += w->checkpoint_every;
        }
      });
    }
    PhaseOptions opt;
    opt.window = w->window;
    opt.seconds = args.seconds * kPhaseCap;
    opt.tracer = &tracer;
    opt.trace_slice_s = kTraceSliceSeconds;
    opt.trace_tag = 1;
    timed = RunPhase(d->port(), std::move(timed_ops), opt, ds.seed, &oracle);
    done.store(true);
    if (checkpointer.joinable()) checkpointer.join();
  }
  outcome.Fold("timed", timed);
  const double peak_rss = PeakRssBytes();
  if (!timed.exhausted) {
    std::fprintf(stderr, "warning: the timed op count was cut at %.1f s\n",
                 args.seconds * kPhaseCap);
  }
  const mmdb::cache::CacheStats cache1 = d->db->reuse_cache().Stats();
  const uint64_t shed = timed.shed;

  if (args.trace) {
    std::string error;
    MeasureIdleLayers(d.get(), *w, ds, &oracle, &tracer, &layer, &error);
    if (!error.empty()) outcome.Mismatch("layers: " + error);
  }

  // Read before durability goes on, which drains the buffer.
  const size_t log_buffer_records = d->db->log_buffer().size();

  // Durability goes on where the deployment ran without it (this drains
  // the log buffer); then a checkpoint, the insert tail, the replica
  // catch-up and the recovery.
  if (w->durability == mmdb::DurabilityMode::kOff) {
    ScopedSpan span(&tracer, "durability.enable", run_span.id());
    mmdb::DurabilityOptions options;
    options.mode = mmdb::DurabilityMode::kSync;
    options.dir = primary_dir;
    options.env = &env;
    mmdb::Status s = d->db->EnableDurability(std::move(options));
    if (!s.ok()) {
      std::fprintf(stderr, "EnableDurability: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  {
    ScopedSpan span(&tracer, "wal.checkpoint", run_span.id());
    const double t0 = NowSeconds();
    mmdb::Status s = d->db->CheckpointNow();
    ckpt_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!s.ok()) outcome.Fail("checkpoint: " + s.ToString());
  }

  // The tail, with the WAL traffic it causes.
  const CountingEnv::Counts env0 = env.counts();
  const size_t syncs0 = env.SyncMicros().size();
  PhaseResult tail;
  {
    ScopedSpan span(&tracer, "recovery.tail", run_span.id());
    std::vector<OpSource> ops;
    ops.push_back(Replay(
        ClassOps(OpClass::kInsert, ds, Slice::kTail, 0, 1, kTailInserts)));
    PhaseOptions opt;
    opt.window = 1;
    opt.tracer = &tracer;
    opt.trace_tag = 0x7A;
    tail = RunPhase(d->port(), std::move(ops), opt, ds.seed, &oracle);
  }
  outcome.Fold("tail", tail);
  const CountingEnv::Counts env1 = env.counts();
  std::vector<double> tail_syncs = env.SyncMicros();
  tail_syncs.erase(tail_syncs.begin(),
                   tail_syncs.begin() + static_cast<ptrdiff_t>(syncs0));

  // What every copy of the database must hold from here on.
  Contents expect;
  expect.accounts = w->accounts;
  for (size_t i = 0; i < w->accounts; ++i) {
    expect.bal_sum += InitialBalance(static_cast<int64_t>(i));
  }
  expect.bal_sum += oracle.acked_delta();
  expect.events = oracle.acked_inserts();
  expect.events_checksum = oracle.insert_checksum();
  expect.r_rows = ds.r_key.size();
  expect.s_rows = ds.s_key.size();
  auto check = [&](const char* what, mmdb::Database* db) {
    const Contents got = ReadContents(db);
    if (!(got == expect)) {
      outcome.Mismatch(std::string(what) + " holds " + got.ToString() +
                       ", acked " + expect.ToString());
    }
    return got;
  };
  check("primary", d->db.get());

  // Each is repeated and the fastest reported.  Every repetition replays
  // the same directory, and the shared host only adds time to it: single
  // repetitions were bimodal (0.049-0.057 s or 0.067-0.078 s for one
  // analytic_scan_join recovery), so the median flipped between the modes
  // from run to run while the minimum held.
  double replica_rows = 0;
  const uint64_t target = d->db->durability()->durable_lsn();
  const std::vector<double> catchup_runs =
      Repeat(w->reps, [&](int) {
        ScopedSpan span(&tracer, "repl.catchup", run_span.id());
        const std::string mirror = args.workdir + "/replica";
        fs::remove_all(mirror);
        fs::create_directories(mirror);
        mmdb::repl::ReplicaOptions options;
        options.primary_port = d->port();
        options.dir = mirror;
        mmdb::repl::Replica replica(options);
        const double t0 = NowSeconds();
        mmdb::Status s = replica.Start();
        if (s.ok()) s = replica.WaitForLsn(target, std::chrono::seconds(120));
        const double took = NowSeconds() - t0;
        replica.Stop();
        if (!s.ok()) {
          outcome.Mismatch("replica catch-up: " + s.ToString());
          return -1.0;
        }
        const Contents c = check("replica", replica.db());
        replica_rows =
            static_cast<double>(c.accounts + c.events + c.r_rows + c.s_rows);
        return took;
      });
  d.reset();  // the primary shuts down cleanly (final drain + fsync)

  mmdb::RecoveryManager::Progress progress;
  const std::vector<double> recover_runs =
      Repeat(w->reps, [&](int) {
        ScopedSpan span(&tracer, "recovery.recover", run_span.id());
        mmdb::Database recovered;
        progress = {};
        const double t0 = NowSeconds();
        mmdb::Status s = recovered.Recover(primary_dir, &env, &progress);
        const double took = NowSeconds() - t0;
        if (!s.ok()) {
          outcome.Mismatch("recover: " + s.ToString());
          return -1.0;
        }
        check("recovered database", &recovered);
        return took;
      });
  const double catchup_s = Fastest(catchup_runs);
  const double recover_s = Fastest(recover_runs);

  // End-to-end metrics (tracing off): the timed mix's throughput and
  // latency, and per class for the report.  The median second, so one
  // stalled second does not move it.
  const std::vector<double> per_second = PerSecond(
      timed.samples, timed.send_window_s);
  report.Add("ops_per_s",
             per_second.empty() ? Ratio(timed.samples.size(), timed.seconds)
                                : Median(per_second),
             "1/s", timed.samples.size());
  std::vector<double> timed_us;
  for (const Sample& s : timed.samples) timed_us.push_back(s.us);
  report.Add("latency_p50_us", SlicedPercentile(timed_us, 0.50), "us",
             timed_us.size());
  // Printed, not gated (see README): over ten runs the mix's p90 spread
  // up to 0.24 and analytic_scan_join's catch-up time 0.33, at or above
  // the 0.25 cap on a bound.
  report.printed.push_back({"latency_p90_us", SlicedPercentile(timed_us, 0.90),
                            "us", timed_us.size()});
  report.printed.push_back({"latency_p99_us", SlicedPercentile(timed_us, 0.99),
                            "us", timed_us.size()});
  report.Add("mem_mib", peak_rss / kMiB, "MiB");
  for (OpClass c : w->timed) {
    report.Latency(timed.samples, c, c != OpClass::kOrdered);
  }
  if (std::find(w->timed.begin(), w->timed.end(), OpClass::kInsert) ==
      w->timed.end()) {
    report.Latency(tail.samples, OpClass::kInsert, true);
  }
  report.Add("recover_s", recover_s, "s", recover_runs.size());
  report.printed.push_back({"catchup_s", catchup_s, "s", catchup_runs.size()});

  if (args.trace) {
    const std::vector<Sample>& ts = timed.samples;
    auto p = [](std::vector<double> v, double q) { return Percentile(v, q); };
    std::vector<double> wire;
    size_t retried = 0, hits = 0, cacheable = 0;
    for (const Sample& s : ts) {
      wire.push_back(s.us - (s.queue_us + s.lock_us + s.exec_us + s.commit_us));
      retried += s.attempts > 1;
      hits += s.cache == mmdb::CacheOutcome::kHit;
      cacheable += s.cache != mmdb::CacheOutcome::kNone;
    }
    // Rate in traced vs untraced slices of the timed phase.
    double traced_s = 0, untraced_s = 0;
    size_t traced_n = 0;
    for (const Sample& s : ts) traced_n += s.traced;
    for (double t = 0; t < timed.send_window_s; t += kTraceSliceSeconds) {
      const double len = std::min(kTraceSliceSeconds, timed.send_window_s - t);
      (static_cast<uint64_t>(t / kTraceSliceSeconds + 0.5) % 2 == 1
           ? traced_s
           : untraced_s) += len;
    }
    const double overhead =
        1.0 - Ratio(Ratio(traced_n, traced_s),
                    Ratio(ts.size() - traced_n, untraced_s));
    const size_t writes = CountWrites(ts);
    const size_t tail_rows = tail.samples.size();
    std::vector<Metric> m;
    auto add = [&](std::string name, double v, const char* unit, size_t n) {
      m.push_back(Metric{std::move(name), v, unit, n});
    };
    auto take = [&](const char* name) {
      for (const Metric& x : layer) {
        if (x.name == name) m.push_back(x);
      }
    };
    take("net.ping_rtt_us_p50");
    add("net.wire_us_p50", p(wire, 0.5), "us", wire.size());
    add("net.shed_ops", shed, "count", 0);
    add("server.queue_us_p50", p(Echoed(ts, &Sample::queue_us), 0.5), "us",
        ts.size());
    add("server.queue_us_p99", p(Echoed(ts, &Sample::queue_us), 0.99), "us",
        ts.size());
    add("server.exec_us_p50", p(Echoed(ts, &Sample::exec_us), 0.5), "us",
        ts.size());
    add("server.retry_frac", Ratio(retried, ts.size()), "ratio", ts.size());
    take("server.inproc_us_p50");
    add("cache.hit_ratio", Ratio(hits, cacheable), "ratio", cacheable);
    add("cache.invalidations_per_write",
        Ratio(cache1.invalidations - cache0.invalidations, writes), "count",
        writes);
    add("cache.evictions", cache1.evictions - cache0.evictions, "count", 0);
    add("cache.resident_mib", cache1.bytes / kMiB, "MiB", 0);
    for (const char* name :
         {"core.plan_select_us_p50", "core.plan_join_us_p50",
          "core.cost_error_log2.scan", "core.cost_error_log2.join",
          "exec.scan_us_p50", "exec.scan_cmp_per_row", "exec.ordered_us_p50",
          "exec.ordered_cmp_per_row", "exec.join_us_p50",
          "exec.join_cmp_per_row", "exec.join_hash_per_row",
          "exec.join_moves_per_row", "index.point_lookup_ns_p50",
          "index.cmp_per_lookup"}) {
      take(name);
    }
    add("storage.bytes_per_row", bytes_per_row, "B", 0);
    add("txn.lock_us_p99", p(Echoed(ts, &Sample::lock_us), 0.99), "us",
        ts.size());
    add("txn.commit_us_p50", p(Echoed(ts, &Sample::commit_us, true), 0.5),
        "us", writes);
    add("txn.log_buffer_records", log_buffer_records, "count", 0);
    add("wal.fsyncs_per_commit", Ratio(env1.syncs - env0.syncs, tail_rows),
        "count", tail_rows);
    add("wal.fsync_us_p50", p(tail_syncs, 0.5), "us", tail_syncs.size());
    add("wal.bytes_per_row",
        Ratio(env1.wal_bytes - env0.wal_bytes, tail_rows), "B", tail_rows);
    add("ckpt.ms_p50", p(ckpt_ms, 0.5), "ms", ckpt_ms.size());
    add("recovery.records_per_s",
        Ratio(progress.tuples_loaded + progress.log_records_merged, recover_s),
        "1/s", 0);
    add("recovery.tuples_loaded", progress.tuples_loaded, "count", 0);
    add("repl.apply_rows_per_s", Ratio(replica_rows, catchup_s), "1/s", 0);
    add("trace.overhead_frac", overhead, "ratio", ts.size());
    report.metrics = std::move(m);
  }

  run_span.End();
  if (args.trace && !args.spans.empty() &&
      !tracer.WriteJsonLines(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
  }

  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64
              " ops attempted, %" PRIu64 " failed (%" PRIu64 " shed)%s\n",
              w->name.c_str(), args.seed, args.trace ? 1 : 0,
              outcome.attempted, outcome.failed, shed,
              outcome.correct ? "" : ", ORACLE MISMATCH");
  std::printf("  timed phase, completions per second:");
  for (double n : per_second) std::printf(" %.0f", n);
  std::printf("\n");
  for (const Metric& x : report.metrics) PrintMetric(x);
  std::printf("  not gated (per class: insert from the durability tail "
              "unless the mix inserts):\n");
  for (const Metric& x : report.printed) PrintMetric(x);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& x = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace

int SelfTest();

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--spans <file>]\n"
                 "       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (args.selftest) return e2e::SelfTest();
  return e2e::Run(args);
}
