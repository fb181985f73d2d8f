#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "nexmark/nexmark.h"
#include "server/json.h"

namespace perfbench {

using onesql::Timestamp;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SustainedThroughput(std::vector<double> per_round) {
  return Quantile(std::move(per_round), 0.1);
}

double SustainedLatency(std::vector<double> per_round) {
  return Quantile(std::move(per_round), 0.9);
}

// -- Report -----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Mismatch("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Report::Count(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok && ++failed_ <= 10) {
    std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
  }
}

void Report::Mismatch(const std::string& what) {
  // The first few describe the problem; the rest would only repeat it.
  if (++mismatches_ <= 10) {
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
  }
}

void Report::Conform(const MetricCatalog& catalog, bool zero_missing) {
  std::map<std::string, std::pair<double, std::string>> kept;
  for (const auto& [name, unit] : catalog) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      if (!zero_missing) Mismatch("metric " + name + " was not measured");
      kept[name] = {0, unit};
      continue;
    }
    if (it->second.second != unit) {
      Mismatch("metric " + name + " has unit " + it->second.second);
    }
    kept[name] = {it->second.first, unit};
    metrics_.erase(it);
  }
  for (const auto& entry : metrics_) {
    Mismatch("metric " + entry.first + " is not in the catalog");
  }
  metrics_ = std::move(kept);
}

onesql::server::Json Report::ResultJson() const {
  using onesql::server::Json;
  Json metrics = Json::Object();
  for (const auto& [name, vu] : metrics_) {
    Json entry = Json::Object();
    entry.Set("value", Json::Double(vu.first));
    entry.Set("unit", Json::Str(vu.second));
    metrics.Set(name, std::move(entry));
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(correct()));
  out.Set("attempted", Json::Int(static_cast<int64_t>(attempted_)));
  out.Set("failed", Json::Int(static_cast<int64_t>(failed_)));
  out.Set("metrics", std::move(metrics));
  return out;
}

// -- Tracer -----------------------------------------------------------------

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child += span.end - span.start;
  }
  open_.pop_back();
}

onesql::server::Json Tracer::ToJson() const {
  using onesql::server::Json;
  Json out = Json::Array();
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json args = Json::Object();
    args.Set("id", Json::Int(static_cast<int64_t>(i)));
    args.Set("parent", Json::Int(s.parent));
    args.Set("self_us", Json::Double((s.end - s.start - s.child) * 1e6));
    Json event = Json::Object();
    event.Set("name", Json::Str(s.name));
    event.Set("ph", Json::Str("X"));
    event.Set("pid", Json::Int(1));
    event.Set("tid", Json::Int(1));
    event.Set("ts", Json::Double((s.start - origin) * 1e6));
    event.Set("dur", Json::Double((s.end - s.start) * 1e6));
    event.Set("args", std::move(args));
    out.Add(std::move(event));
  }
  return out;
}

// -- Result comparison --------------------------------------------------------

std::string RowKey(const Row& row) {
  std::string key;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) key.push_back('|');
    key += row[i].ToString();
  }
  return key;
}

Multiset SortedKeys(const std::vector<Row>& rows) {
  Multiset keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) keys.push_back(RowKey(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

Multiset NetChangelog(const std::vector<onesql::exec::Emission>& emissions,
                      std::string* error) {
  std::unordered_map<std::string, int64_t> net;
  for (const auto& e : emissions) {
    int64_t& n = net[RowKey(e.row)];
    n += e.undo ? -1 : 1;
    if (n < 0 && error->empty()) {
      *error = "retraction of absent row " + RowKey(e.row);
    }
  }
  Multiset keys;
  for (const auto& [key, n] : net) {
    for (int64_t i = 0; i < n; ++i) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string DiffMultisets(const Multiset& got, const Multiset& want) {
  if (got == want) return "";
  std::string out = "got " + std::to_string(got.size()) + " rows, want " +
                    std::to_string(want.size());
  std::vector<std::string> missing;
  std::vector<std::string> extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  if (!missing.empty()) out += "; missing e.g. [" + missing.front() + "]";
  if (!extra.empty()) out += "; unexpected e.g. [" + extra.front() + "]";
  return out;
}

void CheckQuery(Report* report, const std::string& label,
                onesql::ContinuousQuery* query, const Multiset& want,
                bool perturb) {
  auto table = query->CurrentSnapshot();
  if (!table.ok()) {
    report->Mismatch(label + ": snapshot failed: " +
                     table.status().ToString());
    return;
  }
  Multiset got = SortedKeys(table.value());
  std::string error;
  Multiset net = NetChangelog(query->Emissions(), &error);
  if (perturb && !got.empty()) got.pop_back();
  if (perturb && !net.empty()) net.pop_back();
  if (!error.empty()) report->Mismatch(label + " changelog: " + error);
  const std::string table_diff = DiffMultisets(got, want);
  if (!table_diff.empty()) report->Mismatch(label + " table: " + table_diff);
  const std::string net_diff = DiffMultisets(net, want);
  if (!net_diff.empty()) report->Mismatch(label + " net changelog: " + net_diff);
}

// -- NEXMark feed -------------------------------------------------------------

const std::vector<NamedQuery>& NexmarkQueries() {
  static const std::vector<NamedQuery> queries = {
      {"q1", onesql::nexmark::Q1()}, {"q2", onesql::nexmark::Q2()},
      {"q3", onesql::nexmark::Q3()}, {"q4", onesql::nexmark::Q4()},
      {"q5", onesql::nexmark::Q5()}, {"q7", onesql::nexmark::Q7()},
  };
  return queries;
}

std::vector<FeedEvent> NexmarkFeed(uint32_t seed, int num_events) {
  onesql::nexmark::GeneratorConfig config;
  config.seed = seed;
  config.num_events = num_events;
  config.mean_event_gap = onesql::Interval::Millis(500);
  // Up to 16 positions (~8 s of event time) of arrival disorder against a
  // 5 s heuristic watermark slack: a few percent of the bids land in
  // windows that already closed.
  config.max_disorder = 16;
  config.watermark_period = 10;
  config.watermark_strategy = onesql::nexmark::WatermarkStrategy::kHeuristic;
  config.heuristic_slack = onesql::Interval::Seconds(5);
  return onesql::nexmark::Generator(config).Generate();
}

std::vector<std::vector<FeedEvent>> SplitBatches(
    const std::vector<FeedEvent>& feed, size_t batch) {
  std::vector<std::vector<FeedEvent>> out;
  for (size_t i = 0; i < feed.size(); i += batch) {
    const size_t end = std::min(feed.size(), i + batch);
    out.emplace_back(feed.begin() + static_cast<std::ptrdiff_t>(i),
                     feed.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

size_t CountInserts(const std::vector<FeedEvent>& events) {
  size_t n = 0;
  for (const FeedEvent& e : events) {
    if (e.kind == FeedEvent::Kind::kInsert) ++n;
  }
  return n;
}

// -- Program counters -----------------------------------------------------------

namespace {

std::string LabelOf(const onesql::obs::Labels& labels, std::string_view key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

bool IsStateful(const std::string& op) {
  return op.rfind("aggregate", 0) == 0 || op.rfind("join", 0) == 0;
}

}  // namespace

ExecProfile ReadExecProfile(const onesql::obs::MetricsSnapshot& snap,
                            const std::string& query_label) {
  ExecProfile out;
  double vector_rows = 0;
  double scalar_rows = 0;
  for (const auto& c : snap.counters) {
    if (LabelOf(c.labels, "query") != query_label) continue;
    const double v = static_cast<double>(c.value);
    if (c.name == "onesql_sink_emissions_total") out.emissions += v;
    if (c.name == "onesql_operator_late_drops_total") out.late_drops += v;
    if (c.name == "onesql_kernel_rows_total") {
      (LabelOf(c.labels, "path") == "vectorized" ? vector_rows : scalar_rows) +=
          v;
    }
  }
  if (vector_rows + scalar_rows > 0) {
    out.vector_ratio = vector_rows / (vector_rows + scalar_rows);
  }
  onesql::obs::HistogramData sizes;
  for (const auto& h : snap.histograms) {
    if (h.name != "onesql_profile_batch_size") continue;
    if (LabelOf(h.labels, "query") != query_label) continue;
    if (!IsStateful(LabelOf(h.labels, "op"))) continue;
    sizes.Merge(h.data);
  }
  out.batch_rows_p50 = static_cast<double>(sizes.Percentile(50));
  return out;
}

}  // namespace perfbench
