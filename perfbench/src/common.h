// Shared pieces of the benchmark: run options, the result report, the
// benchmark-side span tracer, order-insensitive result comparison, and the
// seeded NEXMark feed every workload draws its events from.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/sink.h"
#include "server/json.h"

namespace perfbench {

using onesql::FeedEvent;
using onesql::Row;

struct Options {
  std::string workload;
  uint32_t seed = 1;
  /// Measurement budget of one run, in seconds.
  double seconds = 10;
  /// The per-layer (traced) run instead of the end-to-end run.
  bool trace = false;
  /// Self-test: drop one row from every result before it is checked, so a
  /// working check must report a mismatch.
  bool perturb = false;
  /// Directory (inside the checkout) for files a run writes: durable state
  /// and the span dump.
  std::string scratch;
};

double NowSeconds();
/// User + system CPU time of the whole process (every thread).
double CpuSeconds();
/// Peak resident set size of the process so far.
double PeakRssMb();

/// Quantile with linear interpolation between order statistics (q in [0,1]).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The level nine rounds in ten reach, from per-round samples of identical
/// work: the 10th percentile of a throughput, the 90th of a latency. Every
/// round repeats the same deterministic work, so the spread between rounds
/// is interference from other tenants of the machine. It comes in spells
/// whose share of a run changes from run to run; the median round moves
/// with that share, while the level under interference, which nearly every
/// run sees, holds.
double SustainedThroughput(std::vector<double> per_round);
double SustainedLatency(std::vector<double> per_round);

/// (name, unit) pairs.
using MetricCatalog = std::vector<std::pair<std::string, std::string>>;

/// Everything one run prints: named metrics with units, operation counts,
/// and the verdict of the correctness checks.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation, failed when `ok` is false.
  void Count(bool ok, const std::string& what);
  /// Records a correctness mismatch; the run's `correct` becomes false.
  void Mismatch(const std::string& what);

  bool correct() const { return mismatches_ == 0 && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Restricts the printed metrics to `catalog`: a metric the run did not
  /// set is printed as 0 when `zero_missing`, else it is a mismatch; a unit
  /// disagreement or a metric outside the catalog is a mismatch.
  void Conform(const MetricCatalog& catalog, bool zero_missing);

  /// The JSON result: correct, attempted, failed, metrics.
  onesql::server::Json ResultJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Benchmark-side spans, kept in memory and written out at the end. Each
/// span records its name, start, end and parent; a span's self time is its
/// duration minus the time its direct children cover. A disabled tracer
/// records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const char* name);
  void End(int id);

  /// Chrome trace_event JSON ("X" events; args carry the parent index).
  onesql::server::Json ToJson() const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    double child = 0;  // time covered by direct children
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs `f` inside a span named `name` and returns its wall time, seconds.
template <typename F>
double Timed(Tracer* tracer, const char* name, F&& f) {
  Scope scope(tracer, name);
  const double start = NowSeconds();
  f();
  return NowSeconds() - start;
}

/// A result as a sorted multiset of canonical row renderings, so the
/// comparison ignores emission order.
using Multiset = std::vector<std::string>;

std::string RowKey(const Row& row);
Multiset SortedKeys(const std::vector<Row>& rows);
/// The changelog folded to its net multiset (insertions minus retractions).
/// A retraction of a row that is not present is reported in `*error`.
Multiset NetChangelog(const std::vector<onesql::exec::Emission>& emissions,
                      std::string* error);
/// "" when equal, else a short description of the first differences.
std::string DiffMultisets(const Multiset& got, const Multiset& want);

/// Compares a query's table rendering and net changelog with `want`,
/// recording a mismatch under `label`. With `perturb` one row is dropped
/// from the measured side first (the self-test of the check itself).
void CheckQuery(Report* report, const std::string& label,
                onesql::ContinuousQuery* query, const Multiset& want,
                bool perturb);

/// The six NEXMark queries the benchmark runs.
struct NamedQuery {
  std::string name;  // "q1", ...
  std::string sql;
};
const std::vector<NamedQuery>& NexmarkQueries();

/// The seeded NEXMark feed: Person/Auction/Bid inserts in standard
/// proportions, bounded arrival disorder and heuristic watermarks, so some
/// events arrive after their window closed and are dropped as late.
std::vector<FeedEvent> NexmarkFeed(uint32_t seed, int num_events);
std::vector<std::vector<FeedEvent>> SplitBatches(
    const std::vector<FeedEvent>& feed, size_t batch);
size_t CountInserts(const std::vector<FeedEvent>& events);

/// One query's program counters from MetricsSnapshot: sink emissions,
/// operator late drops, the share of rows that took the vectorized kernels,
/// and the p50 batch size its aggregates and joins saw (profiling on).
struct ExecProfile {
  double emissions = 0;
  double late_drops = 0;
  double vector_ratio = 0;
  double batch_rows_p50 = 0;
};
ExecProfile ReadExecProfile(const onesql::obs::MetricsSnapshot& snap,
                            const std::string& query_label);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
