// Concurrent multi-feeder durability: N feeder threads drive one engine
// through the group-commit WAL, the run "crashes" at group boundaries (the
// log bytes are captured at quiescent points — exactly the states a real
// crash can expose, since Feed only returns after its group's fsync), and a
// restored engine must be bit-identical to a sequential run of the logged
// record order. Built to run under TSan (ci.sh leg): the feeder threads
// exercise the engine feed lock, the dispatch turnstile, and the appender
// thread handoff concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "state/frame.h"
#include "state/wal.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace {

using state::NewTempDir;

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

// All concurrent feeders share one ptime: the engine validates that feed
// ptime never regresses, and with truly concurrent callers no cross-thread
// ptime order exists to promise. Equal ptimes are always admissible.
constexpr int kPtimeH = 9;
constexpr int kPtimeM = 0;

FeedEvent ThreadBid(int thread, int i) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kInsert;
  e.source = "Bid";
  e.ptime = T(kPtimeH, kPtimeM);
  e.row = {Value::Time(T(8, (thread * 7 + i) % 60)),
           Value::Int64(thread * 1000 + i),
           Value::String("t" + std::to_string(thread) + "i" +
                         std::to_string(i % 5))};
  return e;
}

FeedEvent FromWal(const state::WalRecord& rec) {
  FeedEvent e;
  switch (rec.kind) {
    case state::WalRecord::Kind::kInsert:
      e.kind = FeedEvent::Kind::kInsert;
      break;
    case state::WalRecord::Kind::kDelete:
      e.kind = FeedEvent::Kind::kDelete;
      break;
    case state::WalRecord::Kind::kWatermark:
      e.kind = FeedEvent::Kind::kWatermark;
      break;
  }
  e.source = rec.source;
  e.ptime = rec.ptime;
  e.row = rec.row;
  e.watermark = rec.watermark;
  return e;
}

struct Rendering {
  std::vector<Row> stream;
  std::vector<Row> snapshot;
};

Rendering Render(ContinuousQuery* query) {
  Rendering r;
  r.stream = query->StreamRows();
  auto snapshot = query->SnapshotAt(T(23, 0));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (snapshot.ok()) r.snapshot = *snapshot;
  return r;
}

void ExpectSameRendering(const Rendering& got, const Rendering& want) {
  ASSERT_EQ(got.stream.size(), want.stream.size());
  for (size_t i = 0; i < got.stream.size(); ++i) {
    EXPECT_EQ(got.stream[i], want.stream[i]) << "stream row " << i;
  }
  ASSERT_EQ(got.snapshot.size(), want.snapshot.size());
  for (size_t i = 0; i < got.snapshot.size(); ++i) {
    EXPECT_EQ(got.snapshot[i], want.snapshot[i]) << "snapshot row " << i;
  }
}

/// Runs `threads` feeders, each pushing `per_thread` single-event feeds
/// concurrently. Every Feed must succeed (events are all valid).
void FeedConcurrently(Engine* engine, int threads, int per_thread, int round) {
  std::vector<std::thread> feeders;
  std::atomic<int> failures{0};
  for (int t = 0; t < threads; ++t) {
    feeders.emplace_back([=, &failures] {
      for (int i = 0; i < per_thread; ++i) {
        const Status s =
            engine->Feed({ThreadBid(t, round * per_thread + i)});
        if (!s.ok()) {
          ADD_FAILURE() << "feeder " << t << ": " << s.ToString();
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& f : feeders) f.join();
  ASSERT_EQ(failures.load(), 0);
}

TEST(GroupCommitEngineTest, ConcurrentFeedersCrashAtGroupBoundariesRestoreBitIdentical) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  constexpr int kRounds = 3;

  const std::string dir = NewTempDir("gc_crash");
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableDurability(dir).ok());
  auto q = engine.Execute(kKeyedAgg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  for (int round = 0; round < kRounds; ++round) {
    FeedConcurrently(&engine, kThreads, kPerThread, round);

    // Quiescent point = group boundary: every Feed above returned only after
    // its group's fsync, and no other append is in flight, so the file holds
    // exactly the acknowledged records. Capture it as the crash image.
    const uint64_t acknowledged = engine.feed_seq();
    auto wal_bytes = state::ReadFileToString(dir + "/feed.wal");
    ASSERT_TRUE(wal_bytes.ok()) << wal_bytes.status().ToString();
    const std::string crash_dir = NewTempDir("gc_crash_img");
    ASSERT_TRUE(
        state::WriteFileAtomic(crash_dir + "/feed.wal", *wal_bytes).ok());

    // The crash image must hold every acknowledged record, contiguously.
    auto records = state::FeedLog::ReadAll(crash_dir + "/feed.wal");
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), acknowledged);
    for (size_t i = 0; i < records->size(); ++i) {
      ASSERT_EQ((*records)[i].seq, i);
    }

    // Restore from the crash image and compare against a sequential run of
    // the logged order — bit-identical stream and snapshot.
    Engine restored;
    ASSERT_TRUE(restored.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(restored.Restore(crash_dir).ok());
    EXPECT_EQ(restored.feed_seq(), acknowledged);
    EXPECT_TRUE(restored.durable());

    Engine reference;
    ASSERT_TRUE(reference.RegisterStream("Bid", BidSchema()).ok());
    std::vector<FeedEvent> replay;
    replay.reserve(records->size());
    for (const state::WalRecord& rec : *records) {
      replay.push_back(FromWal(rec));
    }
    ASSERT_TRUE(reference.Feed(replay).ok());

    auto rq = restored.Execute(kKeyedAgg);
    ASSERT_TRUE(rq.ok()) << rq.status().ToString();
    auto cq = reference.Execute(kKeyedAgg);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    ExpectSameRendering(Render(*rq), Render(*cq));
  }
}

TEST(GroupCommitEngineTest, ConcurrentFeedersMatchLoggedOrderLive) {
  // No crash: after the feeders join, the *live* engine must agree with a
  // sequential engine fed the logged order — dispatch order and log order
  // are the same total order even though the feeders raced.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;

  const std::string dir = NewTempDir("gc_live");
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableDurability(dir).ok());
  auto q = engine.Execute(kKeyedAgg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // A second log cannot be attached over the live one.
  EXPECT_FALSE(engine.EnableDurability(dir).ok());

  FeedConcurrently(&engine, kThreads, kPerThread, 0);
  ASSERT_EQ(engine.feed_seq(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  auto records = state::FeedLog::ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), engine.feed_seq());

  Engine reference;
  ASSERT_TRUE(reference.RegisterStream("Bid", BidSchema()).ok());
  std::vector<FeedEvent> replay;
  replay.reserve(records->size());
  for (const state::WalRecord& rec : *records) replay.push_back(FromWal(rec));
  ASSERT_TRUE(reference.Feed(replay).ok());
  auto cq = reference.Execute(kKeyedAgg);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  // Advance both through the same watermark so windows close identically.
  ASSERT_TRUE(engine
                  .AdvanceWatermark("Bid", T(kPtimeH, kPtimeM + 1), T(9, 0))
                  .ok());
  ASSERT_TRUE(reference
                  .AdvanceWatermark("Bid", T(kPtimeH, kPtimeM + 1), T(9, 0))
                  .ok());
  ExpectSameRendering(Render(*q), Render(*cq));
}

}  // namespace
}  // namespace onesql
