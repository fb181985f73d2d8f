#include "engine/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .RegisterStream(
                        "Bid", Schema({{"bidtime", DataType::kTimestamp, true},
                                       {"price", DataType::kBigint},
                                       {"item", DataType::kVarchar}}))
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterTable(
                        "Category",
                        Schema({{"item", DataType::kVarchar},
                                {"name", DataType::kVarchar}}),
                        {{Value::String("A"), Value::String("art")},
                         {Value::String("B"), Value::String("books")}})
                    .ok());
  }

  Status InsertBid(int ph, int pm, int eh, int em, int64_t price,
                   const std::string& item) {
    return engine_.Insert("Bid", T(ph, pm),
                          {Value::Time(T(eh, em)), Value::Int64(price),
                           Value::String(item)});
  }

  Engine engine_;
};

TEST_F(EngineTest, DuplicateRegistrationFails) {
  EXPECT_EQ(engine_.RegisterStream("Bid", Schema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_.RegisterTable("bid", Schema(), {}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, InsertValidatesShape) {
  // Wrong arity.
  EXPECT_EQ(engine_.Insert("Bid", T(8, 0), {Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(engine_
                .Insert("Bid", T(8, 0),
                        {Value::Int64(1), Value::Int64(2), Value::String("x")})
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown stream.
  EXPECT_EQ(engine_.Insert("NoSuch", T(8, 0), {}).code(),
            StatusCode::kNotFound);
  // Static table refuses feeds.
  EXPECT_EQ(engine_
                .Insert("Category", T(8, 0),
                        {Value::String("C"), Value::String("cars")})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, ProcessingTimeMustBeMonotonic) {
  ASSERT_TRUE(InsertBid(8, 10, 8, 0, 1, "A").ok());
  EXPECT_EQ(InsertBid(8, 9, 8, 1, 1, "B").code(),
            StatusCode::kInvalidArgument);
  // Equal ptime is fine.
  EXPECT_TRUE(InsertBid(8, 10, 8, 1, 1, "B").ok());
}

TEST_F(EngineTest, WatermarkMustBeMonotonic) {
  ASSERT_TRUE(engine_.AdvanceWatermark("Bid", T(8, 0), T(7, 50)).ok());
  EXPECT_EQ(engine_.AdvanceWatermark("Bid", T(8, 1), T(7, 40)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.AdvanceWatermark("Category", T(8, 2), T(8, 0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, SimpleFilterQuery) {
  auto q = engine_.Execute(
      "SELECT bidtime, item FROM Bid WHERE price >= 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 5, "B").ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::String("B"));
}

TEST_F(EngineTest, JoinStreamWithStaticTable) {
  auto q = engine_.Execute(
      "SELECT b.bidtime, c.name FROM Bid b JOIN Category c "
      "ON b.item = c.item");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 5, "Z").ok());  // no category
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::String("art"));
}

TEST_F(EngineTest, MultipleQueriesShareTheFeed) {
  auto q1 = engine_.Execute("SELECT bidtime, price FROM Bid");
  auto q2 = engine_.Execute("SELECT bidtime, item FROM Bid EMIT STREAM");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  EXPECT_EQ((*q1)->CurrentSnapshot()->size(), 1u);
  EXPECT_EQ((*q2)->Emissions().size(), 1u);
}

TEST_F(EngineTest, RetractionsFlowThrough) {
  auto q = engine_.Execute("SELECT bidtime, price, item FROM Bid");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(engine_
                  .Delete("Bid", T(8, 2),
                          {Value::Time(T(8, 0)), Value::Int64(2),
                           Value::String("A")})
                  .ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  // But the 8:01 snapshot still shows the row.
  auto earlier = (*q)->SnapshotAt(T(8, 1));
  ASSERT_TRUE(earlier.ok());
  EXPECT_EQ(earlier->size(), 1u);
}

TEST_F(EngineTest, OrderByAndLimitApplyToSnapshots) {
  auto q = engine_.Execute(
      "SELECT bidtime, price, item FROM Bid ORDER BY price DESC LIMIT 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 9, "B").ok());
  ASSERT_TRUE(InsertBid(8, 3, 8, 2, 5, "C").ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][2], Value::String("B"));
  EXPECT_EQ((*rows)[1][2], Value::String("C"));
}

TEST_F(EngineTest, StreamSchemaAddsMetadataColumns) {
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid EMIT STREAM");
  ASSERT_TRUE(q.ok());
  const Schema schema = (*q)->StreamSchema();
  ASSERT_EQ(schema.num_fields(), 5u);
  EXPECT_EQ(schema.field(2).name, "undo");
  EXPECT_EQ(schema.field(3).name, "ptime");
  EXPECT_EQ(schema.field(4).name, "ver");
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  auto rows = (*q)->StreamRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 5u);
  EXPECT_EQ(rows[0][3], Value::Time(T(8, 1)));
}

TEST_F(EngineTest, PlanExposesExplainableTree) {
  auto plan = engine_.Plan("SELECT bidtime, price FROM Bid WHERE price > 1");
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("Project"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("Scan(Bid, stream)"), std::string::npos);
}

TEST_F(EngineTest, ParseAndBindErrorsSurface) {
  EXPECT_EQ(engine_.Execute("SELECT FROM WHERE").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(engine_.Execute("SELECT nosuch FROM Bid").status().code(),
            StatusCode::kBindError);
}

TEST_F(EngineTest, FeedBatchApi) {
  std::vector<FeedEvent> events;
  FeedEvent insert;
  insert.kind = FeedEvent::Kind::kInsert;
  insert.source = "Bid";
  insert.ptime = T(8, 1);
  insert.row = {Value::Time(T(8, 0)), Value::Int64(2), Value::String("A")};
  events.push_back(insert);
  FeedEvent wm;
  wm.kind = FeedEvent::Kind::kWatermark;
  wm.source = "Bid";
  wm.ptime = T(8, 2);
  wm.watermark = T(8, 1);
  events.push_back(wm);

  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine_.Feed(events).ok());
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), 1u);
  EXPECT_EQ((*q)->watermark(), T(8, 1));
}

TEST_F(EngineTest, FeedDispatchesValidPrefixOnError) {
  // Engine::Feed's contract: the batch is validated event by event, and on
  // the first invalid event the valid prefix has already been recorded and
  // dispatched — exactly matching the event-by-event path — with the error
  // returned afterwards.
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  auto insert = [](int pm, int64_t price) {
    FeedEvent e;
    e.kind = FeedEvent::Kind::kInsert;
    e.source = "Bid";
    e.ptime = T(8, pm);
    e.row = {Value::Time(T(8, pm - 1)), Value::Int64(price),
             Value::String("A")};
    return e;
  };
  std::vector<FeedEvent> events = {insert(1, 10), insert(2, 20)};
  FeedEvent bad = insert(3, 30);
  bad.row.pop_back();  // arity mismatch
  events.push_back(bad);
  events.push_back(insert(4, 40));  // never reached

  const Status s = engine_.Feed(events);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Exactly the two valid leading events were recorded and dispatched.
  EXPECT_EQ(engine_.history_size(), 2u);
  EXPECT_EQ(engine_.feed_seq(), 2u);
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  // The engine is not poisoned: the tail (sans the bad event) still feeds.
  EXPECT_TRUE(engine_.Feed({insert(4, 40)}).ok());
  EXPECT_EQ(engine_.history_size(), 3u);

  // A mid-batch ordering violation behaves the same: prefix dispatched,
  // error deferred.
  std::vector<FeedEvent> regress = {insert(5, 50), insert(2, 60)};
  const Status s2 = engine_.Feed(regress);
  EXPECT_EQ(s2.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.history_size(), 4u);
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), 4u);
}

TEST_F(EngineTest, CompactionRetainsWatermarkPositionPerSource) {
  // The CompactHistory invariant: after compaction, a query executed later
  // re-establishes each source's watermark position from the retained
  // last-dominated watermark event — even for a source whose watermark
  // stopped advancing long before the compaction floor.
  ASSERT_TRUE(engine_
                  .RegisterStream(
                      "Ask", Schema({{"asktime", DataType::kTimestamp, true},
                                     {"price", DataType::kBigint}}))
                  .ok());
  auto q = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // Ask's watermark advances once, early, then never again.
  const Timestamp ask_mark = Timestamp(30 * 1000);
  ASSERT_TRUE(
      engine_.AdvanceWatermark("Ask", Timestamp(31 * 1000), ask_mark).ok());

  // Phase 1: Bid watermarks rise with the feed. Phase 2: Bid's watermark
  // freezes while events keep arriving, pushing the history over the
  // compaction threshold with every watermark event dominated by the floor.
  Timestamp bid_mark = Timestamp::Min();
  constexpr int kEvents = 10000;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i + 60) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i % 50),
                             Value::String("item")})
                    .ok());
    if (i < 3000 && i % 50 == 49) {
      bid_mark = ptime - Interval::Minutes(1);
      ASSERT_TRUE(engine_.AdvanceWatermark("Bid", ptime, bid_mark).ok());
    }
  }
  // Compaction ran: far fewer events retained than fed.
  ASSERT_LT(engine_.history_size(), 8000u);
  ASSERT_EQ((*q)->watermark(), bid_mark);

  // A late-executed Bid query recovers the frozen watermark position from
  // the single retained dominated watermark event (every Bid watermark
  // event is at or below the compaction floor, so only the last survives).
  auto late_bid = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late_bid.ok()) << late_bid.status().ToString();
  EXPECT_EQ((*late_bid)->watermark(), bid_mark);

  // Same for the idle source: its long-dominated watermark event survived
  // compaction, so a late Ask query sees Ask's position, not Min().
  auto late_ask = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Ask), timecol => DESCRIPTOR(asktime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late_ask.ok()) << late_ask.status().ToString();
  EXPECT_EQ((*late_ask)->watermark(), ask_mark);
}

TEST_F(EngineTest, HistoryIsCompactedOnceWatermarksAdvance) {
  // Regression guard: Execute used to replay an unbounded history_, so the
  // engine's memory grew linearly with the feed forever. With a running
  // query whose watermark advances, the history must stop growing
  // monotonically: events below every query's watermark floor are compacted
  // away (only the tail plus the watermark position survive).
  auto q = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  constexpr int kEvents = 12000;
  size_t peak = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i % 50),
                             Value::String("item")})
                    .ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(
          engine_
              .AdvanceWatermark("Bid", ptime, ptime - Interval::Minutes(1))
              .ok());
    }
    peak = std::max(peak, engine_.history_size());
  }
  // Far fewer than the events fed are retained: the history is bounded by
  // the compaction schedule (threshold ~4096) rather than growing with the
  // feed length (12k+ events were fed).
  EXPECT_LT(engine_.history_size(), 4500u);
  EXPECT_LT(peak, 4500u);

  // A query executed after compaction still sees the retained (recent)
  // history: its watermark matches the feed's frontier.
  auto late = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ((*late)->watermark(), (*q)->watermark());
  // Recent (post-floor) windows are replayed identically.
  EXPECT_FALSE((*late)->CurrentSnapshot()->empty());
}

// ---------------------------------------------------------------------------
// Compaction oracle: the kept set is exactly the documented rule's, and a
// query executed after compaction renders as on a fresh engine fed only the
// kept events.
// ---------------------------------------------------------------------------

Schema AskSchema() {
  return Schema({{"asktime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

/// Two sources, one of them also fed under a case-variant spelling ("bid",
/// "BID"), with out-of-order event times, retractions and per-source
/// watermarks that trail the processing time by 90 s, one event per second.
std::vector<FeedEvent> TwoSourceFeed(int n) {
  std::vector<FeedEvent> events;
  uint64_t state = 11;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Row> bids;
  for (int i = 0; i < n; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i) * 1000);
    const uint64_t r = next();
    FeedEvent e;
    e.ptime = ptime;
    const Value etime = Value::Time(ptime - Interval::Seconds(r % 60));
    const Value item = Value::String("item" + std::to_string(r % 400));
    if (i % 3 == 0) {
      e.source = "Ask";
      e.row = {etime, Value::Int64(static_cast<int64_t>(r % 90)), item};
    } else if (i % 47 == 5 && !bids.empty()) {
      e.kind = FeedEvent::Kind::kDelete;
      e.source = "Bid";
      e.row = bids.back();
      bids.pop_back();
    } else {
      e.source = i % 5 == 1 ? "bid" : "Bid";
      e.row = {etime, Value::Int64(static_cast<int64_t>(r % 100)), item};
      bids.push_back(e.row);
    }
    events.push_back(std::move(e));
    if (i % 40 == 39 || i % 55 == 54) {
      FeedEvent wm;
      wm.kind = FeedEvent::Kind::kWatermark;
      wm.source = i % 40 == 39 ? (i % 80 == 79 ? "BID" : "Bid") : "Ask";
      wm.ptime = ptime;
      wm.watermark = ptime - Interval::Seconds(90);
      events.push_back(std::move(wm));
    }
  }
  return events;
}

/// The documented compaction rule applied to `events[0, cut)` at `floor`:
/// elements with ptime > floor, watermarks above the floor, and the last
/// dominated watermark per lower-cased source; `events[cut, end)` (fed
/// after that compaction) are all kept.
std::vector<FeedEvent> KeptByRule(const std::vector<FeedEvent>& events,
                                  size_t cut, Timestamp floor) {
  std::map<std::string, size_t> last_dominated;
  for (size_t i = 0; i < cut; ++i) {
    const FeedEvent& e = events[i];
    if (e.kind == FeedEvent::Kind::kWatermark && e.watermark <= floor) {
      last_dominated[ToLower(e.source)] = i;
    }
  }
  std::vector<FeedEvent> kept;
  for (size_t i = 0; i < events.size(); ++i) {
    const FeedEvent& e = events[i];
    bool keep = i >= cut;
    if (!keep && e.kind == FeedEvent::Kind::kWatermark) {
      keep = e.watermark > floor || last_dominated[ToLower(e.source)] == i;
    } else if (!keep) {
      keep = e.ptime > floor;
    }
    if (keep) kept.push_back(e);
  }
  return kept;
}

void ExpectSameStream(ContinuousQuery* got, ContinuousQuery* want) {
  const std::vector<Row> got_rows = got->StreamRows();
  const std::vector<Row> want_rows = want->StreamRows();
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (size_t i = 0; i < want_rows.size(); ++i) {
    ASSERT_TRUE(RowsEqual(got_rows[i], want_rows[i]))
        << "row " << i << ": got " << RowToString(got_rows[i]) << ", want "
        << RowToString(want_rows[i]);
  }
}

TEST_F(EngineTest, CompactionKeepsExactlyTheRuleAndReplaysLikeAFreshFeed) {
  ASSERT_TRUE(engine_.RegisterStream("Ask", AskSchema()).ok());
  // The floor is the lower of the two sources' watermarks.
  auto run_bid = engine_.Execute(
      "SELECT item, wend, SUM(price) AS total FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '1' MINUTES) t "
      "GROUP BY item, wend");
  ASSERT_TRUE(run_bid.ok()) << run_bid.status().ToString();
  auto run_ask = engine_.Execute(
      "SELECT wend, MAX(price) AS top FROM Tumble(data => TABLE(Ask), "
      "timecol => DESCRIPTOR(asktime), dur => INTERVAL '1' MINUTES) t "
      "GROUP BY wend");
  ASSERT_TRUE(run_ask.ok()) << run_ask.status().ToString();

  // Fed in 97-event calls, so each call's per-source runs span many ptimes
  // and the floor (90 s behind the feed) lands inside them.
  const std::vector<FeedEvent> feed = TwoSourceFeed(20000);
  constexpr size_t kBatch = 97;
  size_t cut = 0;
  Timestamp floor = Timestamp::Min();
  int compactions = 0;
  for (size_t begin = 0; begin < feed.size(); begin += kBatch) {
    const size_t end = std::min(feed.size(), begin + kBatch);
    const size_t before = engine_.history_size();
    ASSERT_TRUE(engine_
                    .Feed(std::vector<FeedEvent>(feed.begin() + begin,
                                                 feed.begin() + end))
                    .ok());
    if (engine_.history_size() == before + (end - begin)) continue;
    ++compactions;
    cut = end;
    floor = std::min((*run_bid)->watermark(), (*run_ask)->watermark());
  }
  ASSERT_GE(compactions, 3);
  // The last floor fell inside a run: one call fed elements of one spelling
  // on both sides of it with no watermark of that source between them, so
  // that chunk was trimmed rather than dropped or kept whole.
  bool floor_inside_a_run = false;
  for (size_t begin = 0; begin < cut; begin += kBatch) {
    std::map<std::string, bool> below;  // open runs, by exact spelling
    for (size_t i = begin; i < std::min(cut, begin + kBatch); ++i) {
      const FeedEvent& e = feed[i];
      if (e.kind == FeedEvent::Kind::kWatermark) {
        for (auto it = below.begin(); it != below.end();) {
          it = ToLower(it->first) == ToLower(e.source) ? below.erase(it)
                                                       : std::next(it);
        }
      } else if (e.ptime <= floor) {
        below[e.source] = true;
      } else if (below.count(e.source) > 0) {
        floor_inside_a_run = true;
      }
    }
  }
  EXPECT_TRUE(floor_inside_a_run);
  const std::vector<FeedEvent> kept = KeptByRule(feed, cut, floor);
  ASSERT_LT(kept.size(), feed.size() / 2);
  EXPECT_EQ(engine_.history_size(), kept.size());

  // A fresh engine fed exactly the kept events (no query runs, so nothing
  // compacts) must render every later query identically.
  Engine fresh;
  ASSERT_TRUE(fresh
                  .RegisterStream(
                      "Bid", Schema({{"bidtime", DataType::kTimestamp, true},
                                     {"price", DataType::kBigint},
                                     {"item", DataType::kVarchar}}))
                  .ok());
  ASSERT_TRUE(fresh.RegisterStream("Ask", AskSchema()).ok());
  ASSERT_TRUE(fresh.Feed(kept).ok());
  ASSERT_EQ(fresh.history_size(), kept.size());

  const std::vector<std::string> queries = {
      "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '1' MINUTES) t GROUP BY item, wend",
      "SELECT Bid.bidtime, Bid.price, Ask.price AS ask FROM Bid, Ask "
      "WHERE Bid.item = Ask.item",
  };
  for (const std::string& sql : queries) {
    for (int shards : {1, 2, 8}) {
      SCOPED_TRACE(sql + " shards=" + std::to_string(shards));
      ExecutionOptions options;
      options.shards = shards;
      auto got = engine_.Execute(sql, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = fresh.Execute(sql, options);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_FALSE((*want)->StreamRows().empty());
      ExpectSameStream(*got, *want);
      EXPECT_EQ((*got)->watermark(), (*want)->watermark());
    }
  }
}

TEST_F(EngineTest, CompactionKeepsSeqOrderAcrossTrimmedRuns) {
  // Runs of B and C open before the floor and continue after it, so
  // compaction trims them to start after A's watermark and A's new run,
  // which sit later in the chunk list. A later query over A and B must
  // still see A's row before B's.
  Schema schema({{"t", DataType::kTimestamp, true}, {"k", DataType::kBigint}});
  for (const char* name : {"A", "B", "C"}) {
    ASSERT_TRUE(engine_.RegisterStream(name, schema).ok());
  }
  auto running = engine_.Execute(
      "SELECT wend, COUNT(*) AS n FROM Tumble(data => TABLE(A), "
      "timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTES) x GROUP BY wend");
  ASSERT_TRUE(running.ok()) << running.status().ToString();

  auto row = [](const char* source, int64_t ptime_s, int64_t k) {
    FeedEvent e;
    e.source = source;
    e.ptime = Timestamp(ptime_s * 1000);
    e.row = {Value::Time(e.ptime), Value::Int64(k)};
    return e;
  };
  std::vector<FeedEvent> feed = {row("B", 100, 1), row("C", 100, 1)};
  for (int i = 0; i < 4096; ++i) feed.push_back(row("A", 100, 2));
  FeedEvent mark;
  mark.kind = FeedEvent::Kind::kWatermark;
  mark.source = "A";
  mark.ptime = Timestamp(100 * 1000);
  mark.watermark = Timestamp(150 * 1000);
  feed.push_back(mark);
  const std::vector<FeedEvent> kept = {mark, row("A", 200, 1),
                                       row("B", 300, 1), row("C", 300, 1)};
  feed.insert(feed.end(), kept.begin() + 1, kept.end());
  ASSERT_TRUE(engine_.Feed(feed).ok());
  ASSERT_EQ(engine_.history_size(), kept.size());

  Engine fresh;
  for (const char* name : {"A", "B", "C"}) {
    ASSERT_TRUE(fresh.RegisterStream(name, schema).ok());
  }
  ASSERT_TRUE(fresh.Feed(kept).ok());
  const std::string join =
      "SELECT A.t, B.t AS bt, A.k FROM A, B WHERE A.k = B.k";
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExecutionOptions options;
    options.shards = shards;
    auto got = engine_.Execute(join, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = fresh.Execute(join, options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ((*want)->StreamRows().size(), 1u);
    ExpectSameStream(*got, *want);
  }
}

TEST_F(EngineTest, HistoryIsKeptWhenNoQueriesRun) {
  // The paper's late-executed point-in-time SELECTs (Listing 3's "8:21>")
  // require the full feed when no query was running: nothing may be
  // compacted then.
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i),
                             Value::String("item")})
                    .ok());
  }
  EXPECT_EQ(engine_.history_size(), static_cast<size_t>(kEvents));
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), static_cast<size_t>(kEvents));
}

}  // namespace
}  // namespace onesql
