// Workload `server-fanout`: an in-process ServerCore (default_shards = 1,
// metrics on, as shipped) serving a few hundred tenant sessions. Most
// tenants submit alias-renamed variants of a handful of plans, which the
// server runs as one shared operator tree per plan; a few submit unshared
// copies. One feeder session sends NEXMark Bid `feed` lines on an open loop
// at a fixed rate; after each line every tenant is drained. Between lines a
// rotating tenant reads a `snapshot`, and periodically a new session submits
// an unshared plan (replaying history), catches up, and drops it. The run
// repeats episodes: a fresh server, set up, serving the same lines.
//
// Each line is timed from the moment it was due, so a stall delays every
// line queued behind it. The correctness check folds each tenant's pushed
// deltas into an order-insensitive multiset digest and compares it with a
// dedicated engine running the tenant's plan over the same events.

#include <cmath>

#include "nexmark/nexmark.h"
#include "server/json.h"
#include "server/server_core.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

using onesql::Engine;
using onesql::server::Json;
using onesql::server::ServerCore;

namespace {

/// Open-loop rate (feed lines per second) and feed events per line. At
/// this rate the server is busy a sixth to a third of the time on a 4-vCPU
/// Xeon, depending on how hard other tenants load the machine; they slow it
/// by up to 3x at times, and a rate sized for half busy then overloads it,
/// so the backlog, not the server, sets the tail.
constexpr double kLinesPerSecond = 200;
constexpr size_t kEventsPerLine = 16;
/// A tenant snapshot every this many lines; a late registration every
/// this many lines.
constexpr size_t kSnapshotEvery = 4;
constexpr size_t kRegisterEvery = 100;
/// Step of the read rotation over the tenants; coprime with their number.
constexpr size_t kReadStride = 41;
/// Lines per episode. Each episode sets up a fresh server (timed: setup_s is
/// the median over the episodes), serves the same lines on the open loop
/// and checks every tenant, so every episode repeats the same work. A line
/// costs more the longer its server has run (it doubled within 250 lines),
/// at a rate that depends on the seed's data; short episodes keep the cost
/// in a narrow range.
constexpr size_t kLinesPerEpisode = 100;
constexpr size_t kMinEpisodes = 3;

/// Plan shapes; `{a}` is the tenant's table alias, so variants of one shape
/// differ only in alias names and share one operator tree. The CURRENT_TIME
/// horizon retracts rows as the watermark passes them, so tables (and the
/// cost of reading them) stay bounded however long the run.
struct Shape {
  const char* name;
  const char* sql;
  int shared_tenants;
  int unshared_tenants;
};
const Shape kShapes[] = {
    {"sample",
     "SELECT {a}.bidtime, {a}.auction, {a}.price FROM Bid {a} "
     "WHERE {a}.auction % 13 = 0 "
     "AND {a}.bidtime > CURRENT_TIME - INTERVAL '2' MINUTE",
     100, 2},
    {"maxbid",
     "SELECT {a}.wend, MAX({a}.price) AS max_price "
     "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
     "dur => INTERVAL '1' MINUTE) {a} GROUP BY {a}.wend",
     100, 2},
    {"bidcount",
     "SELECT c.wend, c.auction, c.bids FROM "
     "(SELECT {a}.wend wend, {a}.auction auction, COUNT(*) bids "
     "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
     "dur => INTERVAL '1' MINUTE) {a} GROUP BY {a}.wend, {a}.auction) c "
     "WHERE c.wend > CURRENT_TIME - INTERVAL '2' MINUTE",
     6, 2},
    {"euro",
     "SELECT {a}.bidtime, {a}.auction, {a}.price * 908 / 1000 AS euro_price "
     "FROM Bid {a} WHERE {a}.price > 9500 "
     "AND {a}.bidtime > CURRENT_TIME - INTERVAL '2' MINUTE",
     94, 2},
};
constexpr size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

std::string ShapeSql(size_t shape, const std::string& alias) {
  std::string sql = kShapes[shape].sql;
  for (size_t pos = sql.find("{a}"); pos != std::string::npos;
       pos = sql.find("{a}", pos)) {
    sql.replace(pos, 3, alias);
  }
  return sql;
}

/// Order-insensitive multiset digest: the sum (mod 2^64) of two independent
/// hashes of each row's wire rendering, signed by insert/retract.
struct Digest {
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  int64_t rows = 0;

  void Add(std::string_view row, bool retract) {
    uint64_t a = 1469598103934665603ULL;  // FNV-1a
    uint64_t b = 0x9E3779B97F4A7C15ULL;
    for (unsigned char c : row) {
      a = (a ^ c) * 1099511628211ULL;
      b = (b + c) * 0xBF58476D1CE4E5B9ULL;
      b ^= b >> 31;
    }
    h1 += retract ? -a : a;
    h2 += retract ? -b : b;
    rows += retract ? -1 : 1;
  }
  bool operator==(const Digest& o) const {
    return h1 == o.h1 && h2 == o.h2 && rows == o.rows;
  }
};

struct Tenant {
  uint64_t session = 0;
  size_t shape = 0;
  std::string query;  // "p<N>"
  Digest digest;
  std::vector<std::shared_ptr<const std::string>> pending;
};

bool ResponseOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

std::string StringField(const std::string& response, const char* key) {
  auto parsed = Json::Parse(response);
  if (!parsed.ok()) return "";
  const Json* v = parsed.value().Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

/// Folds pushed delta lines into a tenant's digest. Returns false on a line
/// that is not a delta (the server's overflow error push).
bool Fold(Tenant* t, uint64_t* bytes) {
  bool ok = true;
  for (const auto& line : t->pending) {
    *bytes += line->size();
    const size_t row = line->find("\"row\":");
    const size_t undo = line->find(",\"undo\":", row);
    if (row == std::string::npos || undo == std::string::npos) {
      ok = false;
      continue;
    }
    t->digest.Add(std::string_view(*line).substr(row + 6, undo - row - 6),
                  line->compare(undo + 8, 4, "true") == 0);
  }
  t->pending.clear();
  return ok;
}

/// One server with its tenants, ready to serve.
struct Served {
  std::unique_ptr<ServerCore> core;
  uint64_t feeder = 0;
  std::vector<Tenant> tenants;
  /// Engine query index behind each plan name (for direct snapshots).
  std::map<std::string, size_t> engine_index;
  size_t submits = 0;
  size_t shared_submits = 0;
};

Served SetUpServer(Report* report) {
  Served s;
  onesql::server::ServerOptions options;
  options.default_shards = 1;
  options.metrics = true;
  options.max_sessions = 1024;
  auto core = ServerCore::Create(options);
  report->Count(core.ok(), "ServerCore::Create");
  if (!core.ok()) return s;
  s.core = std::move(core).value();
  auto feeder = s.core->OpenSession();
  report->Count(feeder.ok(), "OpenSession");
  if (!feeder.ok()) return s;
  s.feeder = feeder.value();
  Json reg = Json::Object();
  reg.Set("cmd", Json::Str("register_stream"));
  reg.Set("name", Json::Str("Bid"));
  reg.Set("schema",
          onesql::server::EncodeSchema(onesql::nexmark::BidSchema()));
  report->Count(ResponseOk(s.core->HandleLine(s.feeder, reg.Serialize())),
                "register_stream");

  size_t engine_queries = 0;
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const int n = kShapes[shape].shared_tenants + kShapes[shape].unshared_tenants;
    for (int i = 0; i < n; ++i) {
      const bool share = i < kShapes[shape].shared_tenants;
      Tenant t;
      t.shape = shape;
      auto session = s.core->OpenSession();
      report->Count(session.ok(), "OpenSession");
      if (!session.ok()) continue;
      t.session = session.value();
      Json submit = Json::Object();
      submit.Set("cmd", Json::Str("submit"));
      std::string alias = "t";
      alias += std::to_string(i);
      submit.Set("sql", Json::Str(ShapeSql(shape, alias)));
      submit.Set("share", Json::Bool(share));
      const std::string response =
          s.core->HandleLine(t.session, submit.Serialize());
      report->Count(ResponseOk(response), "submit");
      t.query = StringField(response, "query");
      ++s.submits;
      if (response.find("\"shared\":true") != std::string::npos) {
        ++s.shared_submits;
      } else {
        s.engine_index[t.query] = engine_queries++;
      }
      report->Count(
          ResponseOk(s.core->HandleLine(
              t.session, "{\"cmd\":\"subscribe\",\"query\":\"" + t.query +
                             "\",\"from_seq\":0}")),
          "subscribe");
      s.tenants.push_back(std::move(t));
    }
  }
  return s;
}

/// The feed: Bid events of the seeded NEXMark feed, `kEventsPerLine` per
/// line, each line pre-encoded as a `feed` command.
struct Lines {
  std::vector<std::vector<FeedEvent>> events;
  std::vector<std::string> wire;
};

Lines MakeLines(uint32_t seed, size_t num_lines) {
  Lines out;
  std::vector<FeedEvent> bids;
  for (const FeedEvent& e :
       NexmarkFeed(seed, static_cast<int>(num_lines * kEventsPerLine * 5 / 4))) {
    if (e.source == "Bid") bids.push_back(e);
  }
  out.events = SplitBatches(bids, kEventsPerLine);
  out.events.resize(std::min(out.events.size(), num_lines));
  for (const auto& batch : out.events) {
    Json events = Json::Array();
    for (const FeedEvent& e : batch) {
      events.Add(onesql::server::EncodeFeedEvent(e));
    }
    Json line = Json::Object();
    line.Set("cmd", Json::Str("feed"));
    line.Set("events", std::move(events));
    out.wire.push_back(line.Serialize());
  }
  return out;
}

/// Measurements of one open-loop phase.
struct Phase {
  std::vector<double> visible_ms, read_ms, register_ms, late_ms;
  std::vector<double> feed_line_ms, wire_ms, drain_ms, snapshot_ms;
  double busy_s = 0;  // reads, registrations and line handling; not spinning
  double wall_s = 0;
  double cpu_s = 0;   // CPU over the busy sections
  double events = 0;
  uint64_t deltas = 0;
  uint64_t bytes = 0;
  double backlog_events = 0;
};

/// Serves every line on the open loop.
Phase Serve(Served* s, const Lines& lines, Tracer* tracer, Report* report) {
  const bool traced = tracer->enabled();
  Phase p;
  const double period = 1.0 / kLinesPerSecond;
  const double start = NowSeconds() + 0.01;
  size_t reader = 0;
  size_t late_shape = 0;
  onesql::Timestamp last_ptime = onesql::Timestamp::Min();
  for (size_t i = 0; i < lines.wire.size(); ++i) {
    const double due = start + static_cast<double>(i) * period;

    // Reads and late registrations between lines, at fixed line indices,
    // whether or not the feeder is ahead of schedule.
    if (i % kSnapshotEvery == kSnapshotEvery - 1) {
      // Stride through the tenants so consecutive reads hit different
      // shapes: the few tenants with large tables are not read back to back.
      const Tenant& t = s->tenants[(reader++ * kReadStride) % s->tenants.size()];
      std::string response;
      const double c0 = CpuSeconds();
      const double d = Timed(tracer, "server.snapshot", [&] {
        response = s->core->HandleLine(
            t.session, "{\"cmd\":\"snapshot\",\"query\":\"" + t.query + "\"}");
      });
      p.read_ms.push_back(Ms(d));
      p.busy_s += d;
      p.cpu_s += CpuSeconds() - c0;
      report->Count(ResponseOk(response), "snapshot");
      auto idx = s->engine_index.find(t.query);
      if (traced && idx != s->engine_index.end()) {
        auto* query = s->core->engine()->query(idx->second);
        p.snapshot_ms.push_back(Ms(Timed(tracer, "engine.snapshot", [&] {
          report->Count(query->SnapshotAt(last_ptime).ok(), "SnapshotAt");
        })));
      }
    }
    if (i % kRegisterEvery == kRegisterEvery / 2) {
      Scope span(tracer, "server.register");
      const double r0 = NowSeconds();
      const double c0 = CpuSeconds();
      auto session = s->core->OpenSession();
      report->Count(session.ok(), "OpenSession");
      if (session.ok()) {
        Json submit = Json::Object();
        submit.Set("cmd", Json::Str("submit"));
        submit.Set("sql", Json::Str(ShapeSql(late_shape++ % kNumShapes, "late")));
        const std::string response =
            s->core->HandleLine(session.value(), submit.Serialize());
        report->Count(ResponseOk(response), "late submit");
        const std::string query = StringField(response, "query");
        // Execute replayed the history, so the query is caught up once the
        // subscription is live; it receives deltas from now on.
        report->Count(
            ResponseOk(s->core->HandleLine(
                session.value(),
                "{\"cmd\":\"subscribe\",\"query\":\"" + query + "\"}")),
            "late subscribe");
        s->core->DrainOutbound(session.value());
        p.register_ms.push_back(Ms(NowSeconds() - r0));
        report->Count(
            ResponseOk(s->core->HandleLine(
                session.value(),
                "{\"cmd\":\"drop\",\"query\":\"" + query + "\"}")),
            "drop");
        s->core->CloseSession(session.value());
      }
      p.busy_s += NowSeconds() - r0;
      p.cpu_s += CpuSeconds() - c0;
    }

    // Spin until the line is due: a sleeping client thread would hand its
    // vCPU back to the host and start every line on cold caches, which on a
    // shared machine swamps the latency being measured.
    double now = NowSeconds();
    while (now < due) now = NowSeconds();
    p.late_ms.push_back(Ms(now - due));
    // Lines due by now but not yet sent (this one included).
    const double due_lines = std::floor((now - start) / period) + 1;
    p.backlog_events =
        std::max(p.backlog_events,
                 (due_lines - static_cast<double>(i)) * kEventsPerLine);

    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    if (traced) {
      p.wire_ms.push_back(Ms(Timed(tracer, "server.wire", [&] {
        auto parsed = Json::Parse(lines.wire[i]);
        report->Count(parsed.ok() && !parsed.value().Serialize().empty(),
                      "Json round trip");
      })));
    }
    std::string response;
    p.feed_line_ms.push_back(Ms(Timed(tracer, "server.feed_line", [&] {
      response = s->core->HandleLine(s->feeder, lines.wire[i]);
    })));
    report->Count(ResponseOk(response), "feed");
    p.drain_ms.push_back(Ms(Timed(tracer, "server.drain", [&] {
      for (Tenant& t : s->tenants) {
        auto out = s->core->DrainOutbound(t.session);
        t.pending.insert(t.pending.end(), std::make_move_iterator(out.begin()),
                         std::make_move_iterator(out.end()));
      }
    })));
    const double drained = NowSeconds();
    p.visible_ms.push_back(Ms(drained - due));
    for (Tenant& t : s->tenants) {
      p.deltas += t.pending.size();
      if (!Fold(&t, &p.bytes)) report->Count(false, "tenant " + t.query);
    }
    p.events += static_cast<double>(lines.events[i].size());
    last_ptime = lines.events[i].back().ptime;
    p.busy_s += NowSeconds() - t0;
    p.cpu_s += CpuSeconds() - c0;
    p.wall_s = drained - start;
  }
  return p;
}

/// What every tenant of each shape must have received: the table of a
/// dedicated engine running the shape over the same events, as a digest of
/// wire renderings. `first_row` keeps one rendering per shape for the
/// self-test's perturbation.
struct Expected {
  std::vector<Digest> digest = std::vector<Digest>(kNumShapes);
  std::vector<std::string> first_row = std::vector<std::string>(kNumShapes);
};

Expected DedicatedEngines(const Lines& lines, Report* report) {
  Expected want;
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    Engine engine;
    report->Count(
        engine.RegisterStream("Bid", onesql::nexmark::BidSchema()).ok(),
        "reference RegisterStream");
    onesql::ExecutionOptions opts;
    opts.shards = 1;
    auto query = engine.Execute(ShapeSql(shape, "b"), opts);
    report->Count(query.ok(), "reference Execute");
    if (!query.ok()) continue;
    for (const auto& batch : lines.events) {
      report->Count(engine.Feed(batch).ok(), "reference Feed");
    }
    auto table = query.value()->CurrentSnapshot();
    report->Count(table.ok(), "reference snapshot");
    if (!table.ok()) continue;
    for (const Row& row : table.value()) {
      const std::string text = onesql::server::EncodeRow(row).Serialize();
      want.digest[shape].Add(text, false);
      if (want.first_row[shape].empty()) want.first_row[shape] = text;
    }
  }
  return want;
}

/// Compares every tenant's folded deltas with the dedicated engines and
/// counts (as failed operations) the tenants the server disconnected.
/// Returns the number of disconnects.
size_t CheckTenants(Served* s, const Expected& want, bool perturb,
                    Report* report) {
  size_t disconnects = 0;
  for (Tenant& t : s->tenants) {
    if (!s->core->SessionOpen(t.session)) {
      ++disconnects;
      report->Count(false, "tenant " + t.query + " disconnected");
    }
    Digest got = t.digest;
    if (perturb) got.Add(want.first_row[t.shape], true);
    if (!(got == want.digest[t.shape])) {
      report->Mismatch("tenant of " + t.query + " (" + kShapes[t.shape].name +
                       "): " + std::to_string(got.rows) + " net rows, want " +
                       std::to_string(want.digest[t.shape].rows) +
                       " (or equal counts, different rows)");
    }
  }
  return disconnects;
}

}  // namespace

void RunServerFanout(const Options& options, Report* report, Tracer* tracer) {
  Tracer off(false);
  const Lines lines = MakeLines(options.seed, kLinesPerEpisode);
  const Expected want = DedicatedEngines(lines, report);

  // One episode: a fresh server, set up (timed), served and checked.
  struct Episode {
    double setup_s = 0;
    double plan_s = 0;
    Phase phase;
    size_t disconnects = 0;
    double plans = 0;
    double share_ratio = 0;
    double history = 0;
  };
  auto run_episode = [&](Tracer* t) {
    Episode e;
    const double s0 = NowSeconds();
    Served served = SetUpServer(report);
    e.setup_s = NowSeconds() - s0;
    if (served.core == nullptr) return e;
    if (t->enabled()) {
      for (size_t shape = 0; shape < kNumShapes; ++shape) {
        e.plan_s += Timed(t, "plan.plan", [&] {
          report->Count(served.core->engine()->Plan(ShapeSql(shape, "b")).ok(),
                        "Plan");
        });
      }
    }
    e.phase = Serve(&served, lines, t, report);
    e.disconnects = CheckTenants(&served, want, options.perturb, report);
    e.plans = static_cast<double>(served.core->num_plans());
    e.share_ratio = static_cast<double>(served.shared_submits) /
                    static_cast<double>(served.submits);
    e.history = static_cast<double>(served.core->engine()->history_size());
    return e;
  };

  // The traced run serves untraced episodes for half the budget (for the
  // tracing overhead and the e2e.* figures), then traced ones.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Episode> untraced, traced;
  double start = NowSeconds();
  while (untraced.size() < kMinEpisodes || NowSeconds() - start < phase_s) {
    untraced.push_back(run_episode(&off));
  }
  if (options.trace) {
    start = NowSeconds();
    while (traced.size() < kMinEpisodes || NowSeconds() - start < phase_s) {
      traced.push_back(run_episode(tracer));
    }
  }

  // Pools the samples of a set of episodes.
  struct Pooled {
    std::vector<double> episode_p50, setup_s;
    std::vector<double> visible_ms, read_ms, register_ms, late_ms;
    std::vector<double> feed_line_ms, wire_ms, drain_ms, snapshot_ms;
    double plan_s = 0, busy_s = 0, wall_s = 0, cpu_s = 0, events = 0;
    double deltas = 0, bytes = 0, backlog_events = 0, disconnects = 0;
    double lines = 0;
  };
  auto pool = [](const std::vector<Episode>& episodes) {
    Pooled o;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (const Episode& e : episodes) {
      const Phase& p = e.phase;
      o.episode_p50.push_back(Quantile(p.visible_ms, 0.50));
      o.setup_s.push_back(e.setup_s);
      append(&o.visible_ms, p.visible_ms);
      append(&o.read_ms, p.read_ms);
      append(&o.register_ms, p.register_ms);
      append(&o.late_ms, p.late_ms);
      append(&o.feed_line_ms, p.feed_line_ms);
      append(&o.wire_ms, p.wire_ms);
      append(&o.drain_ms, p.drain_ms);
      append(&o.snapshot_ms, p.snapshot_ms);
      o.plan_s += e.plan_s;
      o.busy_s += p.busy_s;
      o.wall_s += p.wall_s;
      o.cpu_s += p.cpu_s;
      o.events += p.events;
      o.deltas += static_cast<double>(p.deltas);
      o.bytes += static_cast<double>(p.bytes);
      o.backlog_events = std::max(o.backlog_events, p.backlog_events);
      o.disconnects += static_cast<double>(e.disconnects);
      o.lines += static_cast<double>(p.visible_ms.size());
    }
    return o;
  };
  const Pooled u = pool(untraced);
  std::fprintf(stderr,
               "perfbench: %zu episodes of %zu lines at %.0f/s, busy %.1f%%, "
               "%.0f plans, %zu reads, %zu registrations\n",
               untraced.size(), lines.wire.size(), kLinesPerSecond,
               100 * u.busy_s / u.wall_s, untraced.back().plans,
               u.read_ms.size(), u.register_ms.size());

  if (!options.trace) {
    report->Set("events_per_s", u.events / u.wall_s, "events/s");
    report->Set("visible_p50_ms", SustainedLatency(u.episode_p50), "ms");
    report->Set("setup_s", Median(u.setup_s), "s");
    report->Set("rss_peak_mb", PeakRssMb(), "MB");
    return;
  }

  const Pooled t = pool(traced);
  const double n = static_cast<double>(traced.size());
  report->Set("plan.plan_ms", Ms(t.plan_s / n), "ms");
  report->Set("engine.snapshot_ms", Median(t.snapshot_ms), "ms");
  report->Set("engine.history_events", traced.back().history, "count");
  report->Set("server.feed_line_ms", Median(t.feed_line_ms), "ms");
  report->Set("server.wire_ms", Median(t.wire_ms), "ms");
  report->Set("server.drain_ms", Median(t.drain_ms), "ms");
  report->Set("server.deltas", t.deltas / n, "count");
  report->Set("server.bytes_out", t.bytes / n, "bytes");
  report->Set("server.plans", traced.back().plans, "count");
  report->Set("server.share_ratio", traced.back().share_ratio, "ratio");
  report->Set("server.backlog_events", u.backlog_events, "count");
  report->Set("server.disconnects", u.disconnects + t.disconnects, "count");
  report->Set("bench.gen_late_ms", Quantile(u.late_ms, 0.99), "ms");
  const double untraced_busy = u.busy_s / u.lines;
  const double traced_busy = t.busy_s / t.lines;
  report->Set("bench.trace_overhead_pct",
              (traced_busy - untraced_busy) / untraced_busy * 100, "%");
  report->Set("e2e.read_p50_ms", Quantile(u.read_ms, 0.50), "ms");
  report->Set("e2e.read_p99_ms", Quantile(u.read_ms, 0.99), "ms");
  report->Set("e2e.register_ms", Median(u.register_ms), "ms");
  report->Set("e2e.cpu_us_per_event", u.cpu_s / u.events * 1e6, "us");
  report->Set("e2e.visible_p99_ms", Quantile(u.visible_ms, 0.99), "ms");
}

}  // namespace perfbench
