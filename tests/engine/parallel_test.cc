// The key-partitioned parallel runtime must be observationally
// indistinguishable from the sequential one: identical stream rendering
// (StreamRows, including undo/ptime/ver metadata) and identical snapshots
// for every shard count. These tests run the same scenarios at N ∈ {1, 2, 8}
// and compare bit-for-bit, plus check which plans actually shard and which
// fall back to the sequential runtime.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

constexpr const char* kStateless =
    "SELECT bidtime, price, item FROM Bid WHERE price > 20";

constexpr const char* kWindowedMaxByWend =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend";

/// Bid joined to a static table: replay pushes the table's chunks (rows at
/// the beginning of time, then a +inf watermark) ahead of the history's.
constexpr const char* kItemJoin =
    "SELECT Bid.bidtime, Bid.price, Bid.item, Item.category "
    "FROM Bid, Item WHERE Bid.item = Item.item";

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

/// The static table every scenario registers: one row per feed item (Bid
/// items are "item0".."item12"), so kItemJoin matches every bid.
Schema ItemSchema() {
  return Schema(
      {{"item", DataType::kVarchar}, {"category", DataType::kBigint}});
}

std::vector<Row> ItemRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 13; ++i) {
    rows.push_back({Value::String("item" + std::to_string(i)),
                    Value::Int64(i % 4)});
  }
  return rows;
}

/// Deterministic pseudo-random feed: many distinct items (so hash routing
/// actually spreads work), out-of-order event times, interleaved watermarks,
/// and occasional retractions of earlier rows.
std::vector<FeedEvent> MakeBidFeed(int n) {
  std::vector<FeedEvent> events;
  events.reserve(static_cast<size_t>(n) + static_cast<size_t>(n) / 40 + 1);
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Row> inserted;
  for (int i = 0; i < n; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const uint64_t r = next();
    FeedEvent event;
    event.source = "Bid";
    event.ptime = ptime;
    if (i % 97 == 13 && !inserted.empty()) {
      // Retract a previously inserted row (each at most once).
      const size_t pick = next() % inserted.size();
      event.kind = FeedEvent::Kind::kDelete;
      event.row = inserted[pick];
      inserted[pick] = inserted.back();
      inserted.pop_back();
    } else {
      event.kind = FeedEvent::Kind::kInsert;
      const Timestamp bidtime =
          T(9, 0) + Interval::Seconds(i) - Interval::Seconds(r % 120);
      event.row = {Value::Time(bidtime),
                   Value::Int64(static_cast<int64_t>(r % 100)),
                   Value::String("item" + std::to_string(r % 13))};
      inserted.push_back(event.row);
    }
    events.push_back(std::move(event));
    if (i % 40 == 39) {
      FeedEvent mark;
      mark.kind = FeedEvent::Kind::kWatermark;
      mark.source = "Bid";
      mark.ptime = ptime;
      mark.watermark = ptime - Interval::Minutes(3);
      events.push_back(std::move(mark));
    }
  }
  return events;
}

struct RunResult {
  int shard_count = 0;
  size_t state_bytes = 0;
  std::vector<Row> stream;
  std::vector<Row> snapshot;
};

/// Runs `sql` at the given shard count over `feed`, either executing before
/// feeding (live path) or after (replay path: the static table's chunks, then
/// the recorded history's chunks).
RunResult RunBidScenario(const std::string& sql, int shards,
                         const std::vector<FeedEvent>& feed,
                         bool execute_before_feed) {
  RunResult result;
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  EXPECT_TRUE(engine.RegisterTable("Item", ItemSchema(), ItemRows()).ok());
  ExecutionOptions options;
  options.shards = shards;
  ContinuousQuery* query = nullptr;
  auto run = [&] {
    auto q = engine.Execute(sql, options);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query = *q;
  };
  if (execute_before_feed) run();
  EXPECT_TRUE(engine.Feed(feed).ok());
  if (!execute_before_feed) run();
  if (query == nullptr) return result;
  result.shard_count = query->dataflow().shard_count();
  result.state_bytes = query->StateBytes();
  result.stream = query->StreamRows();
  auto snapshot = query->CurrentSnapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (snapshot.ok()) result.snapshot = *snapshot;
  return result;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what << ": row count mismatch";
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(RowsEqual(got[i], want[i]))
        << what << " row " << i << ": got " << RowToString(got[i])
        << ", want " << RowToString(want[i]);
  }
}

void ExpectDeterministicAcrossShardCounts(const std::string& sql,
                                          const std::vector<FeedEvent>& feed,
                                          bool expect_sharded) {
  const RunResult baseline =
      RunBidScenario(sql, /*shards=*/1, feed, /*execute_before_feed=*/true);
  EXPECT_EQ(baseline.shard_count, 1);
  EXPECT_FALSE(baseline.stream.empty()) << "the scenario must emit rows";
  for (int shards : {1, 2, 8}) {
    for (bool before : {true, false}) {
      if (shards == 1 && before) continue;  // the baseline itself
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " execute_before_feed=" + std::to_string(before));
      const RunResult run = RunBidScenario(sql, shards, feed, before);
      EXPECT_EQ(run.shard_count, expect_sharded ? shards : 1);
      // Keyed operator state is accounted per entry, never per shard, so the
      // total must be invariant under re-partitioning.
      EXPECT_EQ(run.state_bytes, baseline.state_bytes)
          << "StateBytes() must not depend on the shard count";
      ExpectSameRows(run.stream, baseline.stream, "stream rendering");
      ExpectSameRows(run.snapshot, baseline.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, KeyedAggregationIsDeterministicAcrossShardCounts) {
  // GROUP BY item, wend: `item` is a verbatim source column, so the plan is
  // hash-partitionable by it.
  ExpectDeterministicAcrossShardCounts(kKeyedAgg, MakeBidFeed(600),
                                       /*expect_sharded=*/true);
}

TEST(ParallelRuntimeTest, KeyedAggregationAfterWatermarkIsDeterministic) {
  ExpectDeterministicAcrossShardCounts(
      std::string(kKeyedAgg) + " EMIT STREAM AFTER WATERMARK",
      MakeBidFeed(600), /*expect_sharded=*/true);
}

TEST(ParallelRuntimeTest, StatelessPipelineIsDeterministicAcrossShardCounts) {
  // No keyed state: round-robin dealt across shards, merged back in input
  // order.
  ExpectDeterministicAcrossShardCounts(kStateless, MakeBidFeed(400),
                                       /*expect_sharded=*/true);
}

TEST(ParallelRuntimeTest, StaticTableJoinReplayMatchesLivePath) {
  // Executing after the feed replays the table's chunks and then the
  // history's chunks as two pushes; the result must match the live path,
  // where the table replays alone and the feed arrives afterwards.
  ExpectDeterministicAcrossShardCounts(kItemJoin, MakeBidFeed(400),
                                       /*expect_sharded=*/true);
}

TEST(ParallelRuntimeTest, NonPartitionableShapesFallBackToSequential) {
  // GROUP BY wend only: the group key is a computed window bound, not a
  // verbatim source column — no correct hash routing exists, so the plan
  // runs sequentially even when shards are requested.
  const RunResult run = RunBidScenario(kWindowedMaxByWend, /*shards=*/8,
                                       MakeBidFeed(200),
                                       /*execute_before_feed=*/true);
  EXPECT_EQ(run.shard_count, 1);
}

TEST(ParallelRuntimeTest, SelfJoinFallsBackToSequential) {
  // The paper's Q7 feeds Bid to both join sides under different keys: a
  // single-shard routing cannot honor both, so it must fall back.
  const std::string q7 =
      "SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.item "
      "FROM Bid, "
      "  (SELECT MAX(TumbleBid.price) maxPrice, TumbleBid.wstart wstart, "
      "          TumbleBid.wend wend "
      "   FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "        dur => INTERVAL '10' MINUTE) TumbleBid "
      "   GROUP BY TumbleBid.wend) MaxBid "
      "WHERE Bid.price = MaxBid.maxPrice AND "
      "      Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND "
      "      Bid.bidtime < MaxBid.wend";
  const RunResult run = RunBidScenario(q7, /*shards=*/4, MakeBidFeed(150),
                                       /*execute_before_feed=*/true);
  EXPECT_EQ(run.shard_count, 1);
}

TEST(ParallelRuntimeTest, TwoSourceEquiJoinIsDeterministicAcrossShardCounts) {
  // An equi join over two distinct sources partitions by the key pair.
  const std::string sql =
      "SELECT Bid.bidtime, Bid.item, Bid.price, Ask.price "
      "FROM Bid, Ask WHERE Bid.item = Ask.item";
  std::vector<FeedEvent> feed;
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 300; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const uint64_t r = next();
    FeedEvent event;
    event.kind = FeedEvent::Kind::kInsert;
    event.source = (i % 2 == 0) ? "Bid" : "Ask";
    event.ptime = ptime;
    event.row = {Value::Time(ptime),
                 Value::Int64(static_cast<int64_t>(r % 50)),
                 Value::String("item" + std::to_string(r % 9))};
    feed.push_back(std::move(event));
    if (i % 30 == 29) {
      for (const char* source : {"Bid", "Ask"}) {
        FeedEvent mark;
        mark.kind = FeedEvent::Kind::kWatermark;
        mark.source = source;
        mark.ptime = ptime;
        mark.watermark = ptime - Interval::Minutes(2);
        feed.push_back(std::move(mark));
      }
    }
  }

  RunResult baseline;
  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.RegisterStream("Ask", BidSchema()).ok());
    ExecutionOptions options;
    options.shards = shards;
    auto q = engine.Execute(sql, options);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(engine.Feed(feed).ok());
    EXPECT_EQ((*q)->dataflow().shard_count(), shards);
    auto snapshot = (*q)->CurrentSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    if (shards == 1) {
      baseline.stream = (*q)->StreamRows();
      baseline.snapshot = *snapshot;
    } else {
      ExpectSameRows((*q)->StreamRows(), baseline.stream, "stream rendering");
      ExpectSameRows(*snapshot, baseline.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, SingleEventPushesMatchBatchedFeed) {
  // The per-event Insert/AdvanceWatermark path and the batched Feed path
  // must produce the same output on the sharded runtime.
  const std::vector<FeedEvent> feed = MakeBidFeed(300);
  ExecutionOptions options;
  options.shards = 4;

  Engine batched;
  ASSERT_TRUE(batched.RegisterStream("Bid", BidSchema()).ok());
  auto qb = batched.Execute(kKeyedAgg, options);
  ASSERT_TRUE(qb.ok()) << qb.status().ToString();
  ASSERT_TRUE(batched.Feed(feed).ok());

  Engine single;
  ASSERT_TRUE(single.RegisterStream("Bid", BidSchema()).ok());
  auto qs = single.Execute(kKeyedAgg, options);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();
  for (const FeedEvent& event : feed) {
    switch (event.kind) {
      case FeedEvent::Kind::kInsert:
        ASSERT_TRUE(single.Insert(event.source, event.ptime, event.row).ok());
        break;
      case FeedEvent::Kind::kDelete:
        ASSERT_TRUE(single.Delete(event.source, event.ptime, event.row).ok());
        break;
      case FeedEvent::Kind::kWatermark:
        ASSERT_TRUE(
            single.AdvanceWatermark(event.source, event.ptime, event.watermark)
                .ok());
        break;
    }
  }

  ExpectSameRows((*qb)->StreamRows(), (*qs)->StreamRows(),
                 "stream rendering");
  auto sb = (*qb)->CurrentSnapshot();
  auto ss = (*qs)->CurrentSnapshot();
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(ss.ok());
  ExpectSameRows(*sb, *ss, "snapshot");
}

}  // namespace
}  // namespace onesql
