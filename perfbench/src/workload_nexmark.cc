// Workload `nexmark`: each NEXMark query on its own in-memory engine at
// shards = 1, fed the same seeded feed by one closed-loop feeder in fixed
// batches. Queries run round-robin, one iteration each per round, so
// every query gets the same number of samples and slow drift on the machine
// spreads evenly over them.

#include <cmath>

#include "exec/change_batch.h"
#include "exec/sharded_dataflow.h"
#include "nexmark/nexmark.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

using onesql::Engine;
using onesql::ExecutionOptions;

namespace {

/// NEXMark events per query iteration, and feed events per Feed call.
constexpr int kEvents = 20000;
constexpr size_t kBatch = 1024;
constexpr int kMinRounds = 3;

std::vector<onesql::DataType> DeclaredTypes(const onesql::Schema& schema) {
  std::vector<onesql::DataType> decl;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    decl.push_back(schema.field(i).type);
  }
  return decl;
}

/// One query's engine, ready to feed.
struct Setup {
  std::unique_ptr<Engine> engine;
  onesql::ContinuousQuery* query = nullptr;
  double plan_s = 0;
  double execute_s = 0;
};

/// With `observe`, the engine runs with metrics and profiling on; with an
/// enabled `tracer`, Plan and Execute are timed in spans.
Setup SetUpQuery(const NamedQuery& q, bool observe, Tracer* tracer,
                 Report* report) {
  Setup s;
  s.engine = std::make_unique<Engine>();
  if (observe) {
    onesql::obs::ObsOptions obs;
    obs.metrics = true;
    obs.profiling = true;
    report->Count(s.engine->EnableObservability(obs).ok(),
                  "EnableObservability");
  }
  report->Count(onesql::nexmark::RegisterNexmark(s.engine.get()).ok(),
                "RegisterNexmark");
  if (tracer->enabled()) {
    s.plan_s = Timed(tracer, "plan.plan", [&] {
      report->Count(s.engine->Plan(q.sql).ok(), q.name + " Plan");
    });
  }
  ExecutionOptions opts;
  opts.shards = 1;
  s.execute_s = Timed(tracer, "engine.execute", [&] {
    auto executed = s.engine->Execute(q.sql, opts);
    report->Count(executed.ok(), q.name + " Execute");
    if (executed.ok()) s.query = executed.value();
  });
  return s;
}

/// Feeds every batch; returns the summed Feed wall time and appends one
/// latency sample (ms) per batch.
double FeedAll(Engine* engine,
               const std::vector<std::vector<FeedEvent>>& batches,
               std::vector<double>* batch_ms, Tracer* tracer,
               Report* report) {
  double total = 0;
  for (const auto& batch : batches) {
    onesql::Status status;
    const double d = Timed(tracer, "engine.feed",
                           [&] { status = engine->Feed(batch); });
    report->Count(status.ok(), "Feed");
    total += d;
    if (batch_ms != nullptr) batch_ms->push_back(Ms(d));
  }
  return total;
}

double GeometricMean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace

ExecTwin RunExecTwin(const Engine& planner, const std::string& sql,
                     const std::vector<std::vector<FeedEvent>>& batches,
                     Tracer* tracer, Report* report) {
  ExecTwin twin;
  auto plan = planner.Plan(sql);
  report->Count(plan.ok(), "twin Plan");
  if (!plan.ok()) return twin;
  auto runtime =
      onesql::exec::BuildDataflowRuntime(std::move(plan).value(), 1);
  report->Count(runtime.ok(), "twin BuildDataflowRuntime");
  if (!runtime.ok()) return twin;
  twin.runtime = std::move(runtime).value();

  const std::map<std::string, std::vector<onesql::DataType>> decl = {
      {"Person", DeclaredTypes(onesql::nexmark::PersonSchema())},
      {"Auction", DeclaredTypes(onesql::nexmark::AuctionSchema())},
      {"Bid", DeclaredTypes(onesql::nexmark::BidSchema())},
  };
  uint64_t seq = 0;
  for (const auto& batch : batches) {
    std::vector<onesql::exec::InputChunk> chunks;
    twin.chunk_s += Timed(tracer, "exec.chunk", [&] {
      onesql::exec::ChunkBuilder builder(&chunks, seq);
      for (const FeedEvent& e : batch) {
        if (e.kind == FeedEvent::Kind::kWatermark) {
          builder.AddWatermark(e.source, e.watermark, e.ptime);
        } else {
          builder.AddElementTyped(
              e.source, &decl.at(e.source), e.row,
              e.kind == FeedEvent::Kind::kInsert ? +1 : -1, e.ptime);
        }
      }
      builder.CloseAll();
      seq = builder.next_seq();
    });
    std::vector<const onesql::exec::InputChunk*> ptrs;
    for (const auto& c : chunks) ptrs.push_back(&c);
    onesql::Status status;
    twin.push_s += Timed(tracer, "exec.push",
                         [&] { status = twin.runtime->PushChunks(ptrs); });
    report->Count(status.ok(), "twin PushChunks");
  }
  return twin;
}

void RunNexmark(const Options& options, Report* report, Tracer* tracer) {
  const std::vector<FeedEvent> feed = NexmarkFeed(options.seed, kEvents);
  const auto batches = SplitBatches(feed, kBatch);
  const double inserts = static_cast<double>(CountInserts(feed));
  const std::map<std::string, Multiset> reference = NexmarkReference(feed);
  const auto& queries = NexmarkQueries();
  const size_t nq = queries.size();
  Tracer off(false);

  // Untraced samples (both runs take them: the traced run needs them for
  // the per-query throughput and the tracing overhead). Throughput and p50
  // are summarized per iteration and reported as the level nine iterations
  // in ten reach, set-up and CPU cost as the median round; p99 needs the
  // whole run's calls. Latency
  // is kept per query: the six queries' Feed latencies differ by 30x, and a
  // percentile of the pooled calls would sit on the boundary between two
  // queries' populations.
  std::vector<std::vector<double>> eps(nq), p50(nq), calls_ms(nq);
  std::vector<double> round_cpu_us, setup_rounds;
  double untraced_feed_s = 0;

  // Traced samples, summed over rounds (means keep the time split additive).
  // They come from an engine configured exactly as the untraced one, with
  // spans around its calls; a third engine with observability on supplies
  // only the program's counters, since its instruments cost feed time.
  struct Layer {
    double plan_s = 0, execute_s = 0, feed_s = 0, snapshot_s = 0;
    double chunk_s = 0, push_s = 0, history = 0;
    ExecProfile profile;
    double state_bytes = 0;
  };
  std::vector<Layer> layer(nq);
  double traced_feed_s = 0;

  int rounds = 0;
  const double start = NowSeconds();
  while (rounds < kMinRounds || NowSeconds() - start < options.seconds) {
    double setup_s = 0;
    double round_cpu_s = 0;
    for (size_t qi = 0; qi < nq; ++qi) {
      const NamedQuery& q = queries[qi];
      {
        const double s0 = NowSeconds();
        Setup s = SetUpQuery(q, /*observe=*/false, &off, report);
        setup_s += NowSeconds() - s0;
        if (s.query == nullptr) continue;
        const double c0 = CpuSeconds();
        std::vector<double> batch_ms;
        const double feed_s =
            FeedAll(s.engine.get(), batches, &batch_ms, &off, report);
        round_cpu_s += CpuSeconds() - c0;
        untraced_feed_s += feed_s;
        eps[qi].push_back(inserts / feed_s);
        p50[qi].push_back(Quantile(batch_ms, 0.50));
        calls_ms[qi].insert(calls_ms[qi].end(), batch_ms.begin(),
                            batch_ms.end());
        if (rounds == 0) {
          CheckQuery(report, q.name, s.query, reference.at(q.name),
                     options.perturb);
        }
      }
      if (!options.trace) continue;

      Layer& l = layer[qi];
      Setup s = SetUpQuery(q, /*observe=*/false, tracer, report);
      if (s.query == nullptr) continue;
      l.plan_s += s.plan_s;
      l.execute_s += s.execute_s;
      const double feed_s =
          FeedAll(s.engine.get(), batches, nullptr, tracer, report);
      l.feed_s += feed_s;
      traced_feed_s += feed_s;
      l.snapshot_s += Timed(tracer, "engine.snapshot", [&] {
        report->Count(s.query->SnapshotAt(feed.back().ptime).ok(),
                      "SnapshotAt");
      });
      l.history += static_cast<double>(s.engine->history_size());
      l.state_bytes = static_cast<double>(s.query->StateBytes());
      CheckQuery(report, q.name + " (traced)", s.query, reference.at(q.name),
                 options.perturb);

      Setup observed = SetUpQuery(q, /*observe=*/true, &off, report);
      if (observed.query != nullptr) {
        FeedAll(observed.engine.get(), batches, nullptr, &off, report);
        l.profile = ReadExecProfile(observed.engine->MetricsSnapshot(), "q0");
      }

      ExecTwin twin = RunExecTwin(*s.engine, q.sql, batches, tracer, report);
      l.chunk_s += twin.chunk_s;
      l.push_s += twin.push_s;
      if (twin.runtime != nullptr) {
        std::string error;
        Multiset net = NetChangelog(twin.runtime->sink().emissions(), &error);
        if (options.perturb && !net.empty()) net.pop_back();
        const std::string diff = DiffMultisets(net, reference.at(q.name));
        if (!error.empty() || !diff.empty()) {
          report->Mismatch(q.name + " exec twin: " + error + diff);
        }
      }
    }
    setup_rounds.push_back(setup_s);
    round_cpu_us.push_back(round_cpu_s / (inserts * nq) * 1e6);
    ++rounds;
  }

  std::vector<double> query_eps, query_p50, query_p99;
  for (size_t qi = 0; qi < nq; ++qi) {
    query_eps.push_back(SustainedThroughput(eps[qi]));
    query_p50.push_back(SustainedLatency(p50[qi]));
    query_p99.push_back(Quantile(calls_ms[qi], 0.99));
    std::fprintf(stderr, "perfbench: %s %.0f events/s in 9 of %d rounds\n",
                 queries[qi].name.c_str(), query_eps.back(), rounds);
  }

  if (!options.trace) {
    report->Set("events_per_s", GeometricMean(query_eps), "events/s");
    report->Set("visible_p50_ms", GeometricMean(query_p50), "ms");
    report->Set("setup_s", Median(setup_rounds), "s");
    report->Set("rss_peak_mb", PeakRssMb(), "MB");
    std::fprintf(stderr,
                 "perfbench: %d rounds of %zu Feed calls of %zu events\n",
                 rounds, nq * batches.size(), kBatch);
    return;
  }

  report->Set("e2e.cpu_us_per_event", Median(round_cpu_us), "us");
  report->Set("e2e.visible_p99_ms", GeometricMean(query_p99), "ms");
  const double n = rounds;
  double plan_s = 0, execute_s = 0, feed_s = 0, snapshot_s = 0;
  double chunk_s = 0, push_s = 0, history = 0;
  for (size_t qi = 0; qi < nq; ++qi) {
    const Layer& l = layer[qi];
    const std::string p = "exec." + queries[qi].name + ".";
    report->Set("e2e." + queries[qi].name + "_eps", query_eps[qi],
                "events/s");
    report->Set(p + "push_s", l.push_s / n, "s");
    report->Set(p + "emissions", l.profile.emissions, "count");
    report->Set(p + "state_bytes", l.state_bytes, "bytes");
    report->Set(p + "vector_ratio", l.profile.vector_ratio, "ratio");
    report->Set(p + "batch_rows_p50", l.profile.batch_rows_p50, "rows");
    report->Set(p + "late_drops", l.profile.late_drops, "count");
    std::fprintf(stderr,
                 "perfbench: %s feed %.4fs = ingest %.4fs + chunk %.4fs + "
                 "push %.4fs\n",
                 queries[qi].name.c_str(), l.feed_s / n,
                 (l.feed_s - l.chunk_s - l.push_s) / n, l.chunk_s / n,
                 l.push_s / n);
    plan_s += l.plan_s;
    execute_s += l.execute_s;
    feed_s += l.feed_s;
    snapshot_s += l.snapshot_s;
    chunk_s += l.chunk_s;
    push_s += l.push_s;
    history += l.history;
  }
  report->Set("plan.plan_ms", Ms(plan_s / n), "ms");
  report->Set("engine.execute_ms", Ms(execute_s / n), "ms");
  report->Set("engine.feed_s", feed_s / n, "s");
  report->Set("engine.ingest_s", (feed_s - chunk_s - push_s) / n, "s");
  report->Set("engine.snapshot_ms", Ms(snapshot_s / n), "ms");
  report->Set("engine.history_events", history / n, "count");
  report->Set("exec.chunk_s", chunk_s / n, "s");
  report->Set("bench.trace_overhead_pct",
              (traced_feed_s - untraced_feed_s) / untraced_feed_s * 100, "%");
}

}  // namespace perfbench
