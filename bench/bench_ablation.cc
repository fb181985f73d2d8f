// Ablation study of the optimizer rules called out in DESIGN.md: what each
// rule buys on the paper's Q7 pipeline.
//
//   full        — pushdown + equi-key extraction + watermark purge
//   no-purge    — hash join, but state never released
//   unoptimized — the binder's raw plan: cross join with the whole WHERE
//                 evaluated above it (nested-loop behavior, no purge)

#include <benchmark/benchmark.h>

#include <chrono>
#include <random>

#include "bench/bench_util.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"

namespace onesql {
namespace bench {
namespace {

enum class Variant { kFull, kNoPurge, kUnoptimized };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kFull: return "full optimizer";
    case Variant::kNoPurge: return "no watermark purge";
    case Variant::kUnoptimized: return "unoptimized (cross join + filter)";
  }
  return "?";
}

void StripPurges(plan::LogicalNode* node) {
  switch (node->kind()) {
    case plan::LogicalNode::Kind::kJoin: {
      auto* join = static_cast<plan::JoinNode*>(node);
      join->clear_purges();
      StripPurges(join->mutable_left().get());
      StripPurges(join->mutable_right().get());
      break;
    }
    case plan::LogicalNode::Kind::kFilter:
      StripPurges(
          static_cast<plan::FilterNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kProject:
      StripPurges(
          static_cast<plan::ProjectNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kWindow:
      StripPurges(
          static_cast<plan::WindowNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kAggregate:
      StripPurges(
          static_cast<plan::AggregateNode*>(node)->mutable_input().get());
      break;
    default:
      break;
  }
}

std::unique_ptr<exec::DataflowRuntime> BuildVariant(
    const plan::Catalog& catalog, Variant variant) {
  auto stmt = sql::Parser::Parse(PaperQ7());
  if (!stmt.ok()) std::abort();
  plan::Binder binder(&catalog);
  auto plan = binder.Bind(**stmt);
  if (!plan.ok()) std::abort();
  if (variant != Variant::kUnoptimized) {
    if (!plan::Optimizer::Optimize(&*plan).ok()) std::abort();
    if (variant == Variant::kNoPurge) StripPurges(plan->root.get());
  }
  auto flow = exec::BuildDataflowRuntime(std::move(*plan), /*shards=*/1);
  if (!flow.ok()) std::abort();
  return std::move(*flow);
}

struct Feed {
  std::vector<Change> bids;                 // ptime-stamped inserts
  std::vector<std::pair<Timestamp, Timestamp>> watermarks;  // (ptime, wm)
};

Feed MakeFeed(int n) {
  std::mt19937 rng(3);
  Feed feed;
  int64_t event_time = T(8, 0).millis();
  Timestamp ptime = T(8, 0);
  for (int i = 0; i < n; ++i) {
    event_time += 1 + static_cast<int64_t>(rng() % 4000);
    ptime = ptime + Interval::Millis(10);
    feed.bids.push_back(
        Change{ChangeKind::kInsert,
               {Value::Time(Timestamp(event_time)),
                Value::Int64(1 + static_cast<int64_t>(rng() % 500)),
                Value::String("x")},
               ptime});
    if (i % 20 == 19) {
      feed.watermarks.emplace_back(
          ptime + Interval::Millis(1),
          Timestamp(event_time) - Interval::Seconds(5));
    }
  }
  return feed;
}

struct RunResult {
  double events_per_sec = 0;
  size_t join_rows = 0;
  size_t state_bytes = 0;
};

RunResult Run(Variant variant, const Feed& feed,
              const plan::Catalog& catalog) {
  auto flow = BuildVariant(catalog, variant);
  // One single-event chunk per push, so the rate stays per event. The
  // chunks are reused: each push refills the one-row batch in place.
  exec::InputChunk element;
  element.source = "Bid";
  element.source_lower = "bid";
  exec::InputChunk mark = element;
  mark.kind = exec::InputChunk::Kind::kWatermark;
  element.batch.ResetForTypes(
      {DataType::kTimestamp, DataType::kBigint, DataType::kVarchar});
  const std::vector<const exec::InputChunk*> push_element{&element};
  const std::vector<const exec::InputChunk*> push_mark{&mark};
  const auto start = std::chrono::steady_clock::now();
  size_t wm_next = 0;
  for (const Change& bid : feed.bids) {
    element.batch.Clear();
    element.batch.AppendRow(bid.row, +1, bid.ptime, 0);
    if (!flow->PushChunks(push_element).ok()) std::abort();
    while (wm_next < feed.watermarks.size() &&
           feed.watermarks[wm_next].first <= bid.ptime) {
      mark.ptime = feed.watermarks[wm_next].first;
      mark.watermark = feed.watermarks[wm_next].second;
      if (!flow->PushChunks(push_mark).ok()) std::abort();
      ++wm_next;
    }
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  RunResult out;
  out.events_per_sec = static_cast<double>(feed.bids.size()) / secs;
  for (const auto* join : flow->joins()) {
    out.join_rows += join->left_rows() + join->right_rows();
  }
  out.state_bytes = flow->StateBytes();
  return out;
}

void PrintAblation() {
  plan::Catalog catalog;
  if (!catalog.Register(plan::TableDef{"Bid", PaperBidSchema(), true}).ok()) {
    std::abort();
  }
  const int kEvents = 3000;
  const Feed feed = MakeFeed(kEvents);
  PrintSection("Optimizer ablation on Q7 (" + std::to_string(kEvents) +
               " bids, 10-minute windows)");
  std::printf("%-36s %14s %12s %14s\n", "variant", "events/s", "join rows",
              "state bytes");
  for (Variant v :
       {Variant::kFull, Variant::kNoPurge, Variant::kUnoptimized}) {
    const RunResult r = Run(v, feed, catalog);
    std::printf("%-36s %14.0f %12zu %14zu\n", VariantName(v),
                r.events_per_sec, r.join_rows, r.state_bytes);
  }
  std::printf(
      "(equi-key extraction turns the nested-loop cross join into a hash\n"
      " join; purge derivation additionally bounds the retained join "
      "state)\n");
}

void BM_Ablation(benchmark::State& state) {
  plan::Catalog catalog;
  if (!catalog.Register(plan::TableDef{"Bid", PaperBidSchema(), true}).ok()) {
    std::abort();
  }
  const Feed feed = MakeFeed(1000);
  const auto variant = static_cast<Variant>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Run(variant, feed, catalog));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel(VariantName(variant));
}
BENCHMARK(BM_Ablation)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace bench
}  // namespace onesql

int main(int argc, char** argv) {
  onesql::bench::PrintAblation();
  return onesql::bench::RunBenchmarksAndDumpJson("ablation", &argc, &argv[0]);
}
