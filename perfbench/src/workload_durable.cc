// Workload `durable-ingest`: one engine runs NEXMark Q4 and Q7 with the
// write-ahead log on (default group commit). One closed-loop feeder sends
// fixed batches, and the benchmark checkpoints every fixed number of them.
// After the feed, a cold Engine::Restore into a fresh engine replays the log
// suffix past the last checkpoint. Each round uses a fresh directory under a
// per-run directory, which is removed on exit, failure included.

#include <unistd.h>

#include <filesystem>
#include <system_error>

#include "nexmark/nexmark.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

using onesql::Engine;

namespace {

namespace fs = std::filesystem;

/// NEXMark events per round, feed events per Feed call, and Feed calls
/// between checkpoints: 14 calls (the feed's watermarks included),
/// checkpoints after the 5th and 10th, so Restore replays a four-call log
/// suffix. With 64-event calls the group fsync and the appender thread's
/// wake-up set each call's time, and on a host shared with other tenants'
/// disk and CPU load those varied so much that runs of the same code spread
/// by half; at 1024 events the queries' work sets it, and the log and the
/// checkpoints still take a quarter of a round.
constexpr int kEvents = 12000;
constexpr size_t kBatch = 1024;
constexpr size_t kCheckpointEvery = 5;
constexpr int kMinRounds = 3;

/// The two queries one durable engine runs, in Execute order.
const std::vector<NamedQuery>& DurableQueries() {
  static const std::vector<NamedQuery> queries = {
      {"q4", onesql::nexmark::Q4()}, {"q7", onesql::nexmark::Q7()}};
  return queries;
}

/// Removes the run directory when the workload returns, however it returns.
class RunDirectory {
 public:
  explicit RunDirectory(fs::path path) : path_(std::move(path)) {}
  ~RunDirectory() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDirectory(const RunDirectory&) = delete;
  RunDirectory& operator=(const RunDirectory&) = delete;

 private:
  fs::path path_;
};

struct Durable {
  std::unique_ptr<Engine> engine;
  std::vector<onesql::ContinuousQuery*> queries;
  double plan_s = 0;
  double execute_s = 0;
};

/// Registers the streams, starts Q4 and Q7, and (when `dir` is set) attaches
/// the write-ahead log. With `observe`, metrics and profiling are on; with an
/// enabled `tracer`, Plan and Execute are timed in spans.
Durable SetUp(const std::string& dir, bool observe, Tracer* tracer,
              Report* report) {
  Durable d;
  d.engine = std::make_unique<Engine>();
  if (observe) {
    onesql::obs::ObsOptions obs;
    obs.metrics = true;
    obs.profiling = true;
    report->Count(d.engine->EnableObservability(obs).ok(),
                  "EnableObservability");
  }
  report->Count(onesql::nexmark::RegisterNexmark(d.engine.get()).ok(),
                "RegisterNexmark");
  onesql::ExecutionOptions opts;
  opts.shards = 1;
  for (const NamedQuery& q : DurableQueries()) {
    if (tracer->enabled()) {
      d.plan_s += Timed(tracer, "plan.plan", [&] {
        report->Count(d.engine->Plan(q.sql).ok(), q.name + " Plan");
      });
    }
    d.execute_s += Timed(tracer, "engine.execute", [&] {
      auto executed = d.engine->Execute(q.sql, opts);
      report->Count(executed.ok(), q.name + " Execute");
      if (executed.ok()) d.queries.push_back(executed.value());
    });
  }
  if (!dir.empty()) {
    Timed(tracer, "state.enable_durability", [&] {
      report->Count(d.engine->EnableDurability(dir).ok(), "EnableDurability");
    });
  }
  return d;
}

struct Ingest {
  double wall_s = 0;  // first Feed start to last Feed end, checkpoints included
  double feed_s = 0;  // summed Feed calls
  double cpu_s = 0;
  std::vector<double> checkpoint_ms;
  size_t events_after_checkpoint = 0;
};

Ingest FeedRound(Engine* engine, const std::string& dir,
                 const std::vector<std::vector<FeedEvent>>& batches,
                 std::vector<double>* batch_ms, Tracer* tracer,
                 Report* report) {
  Ingest in;
  const double c0 = CpuSeconds();
  const double start = NowSeconds();
  for (size_t i = 0; i < batches.size(); ++i) {
    onesql::Status status;
    const double d = Timed(tracer, "engine.feed",
                           [&] { status = engine->Feed(batches[i]); });
    report->Count(status.ok(), "Feed");
    in.feed_s += d;
    if (batch_ms != nullptr) batch_ms->push_back(Ms(d));
    in.events_after_checkpoint += batches[i].size();
    if (!dir.empty() && (i + 1) % kCheckpointEvery == 0) {
      const double c = Timed(tracer, "state.checkpoint", [&] {
        report->Count(engine->Checkpoint(dir).ok(), "Checkpoint");
      });
      in.checkpoint_ms.push_back(Ms(c));
      in.events_after_checkpoint = 0;
    }
  }
  in.wall_s = NowSeconds() - start;
  in.cpu_s = CpuSeconds() - c0;
  return in;
}

double Counter(const onesql::obs::MetricsSnapshot& snap, const char* name) {
  return static_cast<double>(snap.CounterValue(name));
}

}  // namespace

void RunDurableIngest(const Options& options, Report* report, Tracer* tracer) {
  const fs::path base = fs::path(options.scratch) /
                        ("durable-ingest." + std::to_string(getpid()));
  if (fs::exists(base)) {
    report->Count(false, "refusing to start: " + base.string() +
                             " exists (a stale log would be replayed)");
    return;
  }
  std::error_code ec;
  fs::create_directories(base, ec);
  if (ec) {
    report->Count(false, "create " + base.string() + ": " + ec.message());
    return;
  }
  RunDirectory run_dir(base);

  const std::vector<FeedEvent> feed = NexmarkFeed(options.seed, kEvents);
  const auto batches = SplitBatches(feed, kBatch);
  const double inserts = static_cast<double>(CountInserts(feed));
  const std::map<std::string, Multiset> reference = NexmarkReference(feed);
  Tracer off(false);

  // Untraced samples, summarized per round and reported as the median round,
  // except p99, which needs the whole run's Feed calls. Unlike nexmark, the
  // slow rounds here are mostly the storage's fsync spells, and across runs
  // the level nine rounds in ten reach spread twice as much as the median.
  std::vector<double> eps, round_p50, calls_ms, round_cpu_us, setup_rounds,
      restore_rounds;
  double untraced_feed_s = 0;

  // Traced sums over rounds. The times come from engines configured exactly
  // as the untraced one, with spans around their calls; a third engine with
  // observability on supplies only the program's counters, since its
  // instruments cost feed time.
  double plan_s = 0, execute_s = 0, feed_s = 0, memory_feed_s = 0;
  double chunk_s = 0, snapshot_s = 0, history = 0;
  std::map<std::string, double> push_s;
  std::map<std::string, ExecProfile> profile;
  std::map<std::string, double> state_bytes;
  std::vector<double> checkpoint_ms;
  double checkpoint_bytes = 0, replay_events = 0;
  onesql::obs::MetricsSnapshot wal_snap;

  int rounds = 0;
  const double start = NowSeconds();
  while (rounds < kMinRounds || NowSeconds() - start < options.seconds) {
    {
      const std::string dir = (base / ("round-" + std::to_string(rounds))).string();
      const double s0 = NowSeconds();
      Durable live = SetUp(dir, /*observe=*/false, &off, report);
      setup_rounds.push_back(NowSeconds() - s0);
      if (live.queries.size() != 2) break;
      std::vector<double> batch_ms;
      Ingest in = FeedRound(live.engine.get(), dir, batches, &batch_ms, &off,
                            report);
      eps.push_back(inserts / in.wall_s);
      round_p50.push_back(Quantile(batch_ms, 0.50));
      calls_ms.insert(calls_ms.end(), batch_ms.begin(), batch_ms.end());
      round_cpu_us.push_back(in.cpu_s / inserts * 1e6);
      untraced_feed_s += in.feed_s;

      auto restored = std::make_unique<Engine>();
      onesql::Status status;
      restore_rounds.push_back(
          Timed(&off, "state.restore", [&] { status = restored->Restore(dir); }));
      report->Count(status.ok(), "Restore");
      for (size_t i = 0; i < 2; ++i) {
        const std::string& name = DurableQueries()[i].name;
        CheckQuery(report, name + " live", live.queries[i],
                   reference.at(name), options.perturb);
        if (!status.ok() || restored->num_queries() != 2) continue;
        auto table = live.queries[i]->CurrentSnapshot();
        if (!table.ok()) continue;
        CheckQuery(report, name + " restored", restored->query(i),
                   SortedKeys(table.value()), options.perturb);
      }
    }
    if (options.trace) {
      const std::string dir =
          (base / ("traced-" + std::to_string(rounds))).string();
      Durable live = SetUp(dir, /*observe=*/false, tracer, report);
      if (live.queries.size() != 2) break;
      plan_s += live.plan_s;
      execute_s += live.execute_s;
      Ingest in = FeedRound(live.engine.get(), dir, batches, nullptr, tracer,
                            report);
      feed_s += in.feed_s;
      checkpoint_ms.insert(checkpoint_ms.end(), in.checkpoint_ms.begin(),
                           in.checkpoint_ms.end());
      replay_events = static_cast<double>(in.events_after_checkpoint);
      checkpoint_bytes = static_cast<double>(
          fs::file_size(fs::path(dir) / "checkpoint.osql", ec));
      for (size_t i = 0; i < 2; ++i) {
        const std::string& name = DurableQueries()[i].name;
        snapshot_s += Timed(tracer, "engine.snapshot", [&] {
          report->Count(live.queries[i]->SnapshotAt(feed.back().ptime).ok(),
                        "SnapshotAt");
        });
        CheckQuery(report, name + " (traced)", live.queries[i],
                   reference.at(name), options.perturb);
        state_bytes[name] = static_cast<double>(live.queries[i]->StateBytes());
      }
      history += static_cast<double>(live.engine->history_size());

      const std::string observed_dir =
          (base / ("observed-" + std::to_string(rounds))).string();
      Durable observed = SetUp(observed_dir, /*observe=*/true, &off, report);
      if (observed.queries.size() == 2) {
        FeedRound(observed.engine.get(), observed_dir, batches, nullptr, &off,
                  report);
        wal_snap = observed.engine->MetricsSnapshot();
        // Metric labels follow Execute order: Q4 is "q0", Q7 is "q1".
        profile["q4"] = ReadExecProfile(wal_snap, "q0");
        profile["q7"] = ReadExecProfile(wal_snap, "q1");
      }

      // The same engine and batches without the log: the difference in
      // feed time is what the WAL costs.
      Durable memory = SetUp("", /*observe=*/false, &off, report);
      memory_feed_s += FeedRound(memory.engine.get(), "", batches, nullptr,
                                 tracer, report)
                           .feed_s;
      for (const NamedQuery& q : DurableQueries()) {
        ExecTwin twin =
            RunExecTwin(*memory.engine, q.sql, batches, tracer, report);
        // Both queries' twins columnarize the same batches; the engine does
        // that once per Feed, so one twin's share is counted.
        if (q.name == "q4") chunk_s += twin.chunk_s;
        push_s[q.name] += twin.push_s;
      }
    }
    fs::remove_all(base, ec);
    fs::create_directories(base, ec);
    ++rounds;
  }

  if (!options.trace) {
    report->Set("events_per_s", Median(eps), "events/s");
    report->Set("visible_p50_ms", Median(round_p50), "ms");
    report->Set("setup_s", Median(setup_rounds), "s");
    report->Set("rss_peak_mb", PeakRssMb(), "MB");
    std::fprintf(stderr,
                 "perfbench: %d rounds of %zu Feed calls of %zu events, "
                 "restore median %.4fs\n",
                 rounds, batches.size(), kBatch, Median(restore_rounds));
    return;
  }

  const double n = rounds;
  const double push_total = push_s["q4"] + push_s["q7"];
  report->Set("plan.plan_ms", Ms(plan_s / n), "ms");
  report->Set("engine.execute_ms", Ms(execute_s / n), "ms");
  report->Set("engine.feed_s", feed_s / n, "s");
  report->Set("engine.ingest_s", (memory_feed_s - chunk_s - push_total) / n,
              "s");
  report->Set("engine.snapshot_ms", Ms(snapshot_s / n), "ms");
  report->Set("engine.history_events", history / n, "count");
  report->Set("exec.chunk_s", chunk_s / n, "s");
  for (const NamedQuery& q : DurableQueries()) {
    const std::string& name = q.name;
    const std::string p = "exec." + name + ".";
    report->Set(p + "push_s", push_s[name] / n, "s");
    report->Set(p + "emissions", profile[name].emissions, "count");
    report->Set(p + "state_bytes", state_bytes[name], "bytes");
    report->Set(p + "vector_ratio", profile[name].vector_ratio, "ratio");
    report->Set(p + "batch_rows_p50", profile[name].batch_rows_p50, "rows");
    report->Set(p + "late_drops", profile[name].late_drops, "count");
  }
  report->Set("state.wal_s", (feed_s - memory_feed_s) / n, "s");
  report->Set("state.wal_appends", Counter(wal_snap, "onesql_wal_appends_total"),
              "count");
  report->Set("state.wal_syncs", Counter(wal_snap, "onesql_wal_syncs_total"),
              "count");
  report->Set("state.wal_bytes",
              Counter(wal_snap, "onesql_wal_bytes_written_total"), "bytes");
  const auto* groups = wal_snap.HistogramOf("onesql_wal_group_size");
  report->Set("state.group_size_p50",
              groups == nullptr ? 0 : static_cast<double>(groups->Percentile(50)),
              "count");
  double ckpt_sum = 0, ckpt_max = 0;
  for (double c : checkpoint_ms) {
    ckpt_sum += c;
    ckpt_max = std::max(ckpt_max, c);
  }
  report->Set("state.checkpoint_ms",
              checkpoint_ms.empty() ? 0 : ckpt_sum / checkpoint_ms.size(), "ms");
  report->Set("state.checkpoint_max_ms", ckpt_max, "ms");
  report->Set("state.checkpoint_bytes", checkpoint_bytes, "bytes");
  report->Set("state.restore_replay_events", replay_events, "count");
  report->Set("e2e.restore_s", Median(restore_rounds), "s");
  report->Set("e2e.cpu_us_per_event", Median(round_cpu_us), "us");
  report->Set("e2e.visible_p99_ms", Quantile(calls_ms, 0.99), "ms");
  report->Set("bench.trace_overhead_pct",
              (feed_s - untraced_feed_s) / untraced_feed_s * 100, "%");
}

}  // namespace perfbench
