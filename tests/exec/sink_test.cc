#include "exec/sink.h"

#include <gtest/gtest.h>

namespace onesql {
namespace exec {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

// Rows: (window_end TIMESTAMP, value BIGINT). Version key = {0}, the window
// end doubles as the completeness column.
Row R(int h, int m, int64_t v) {
  return {Value::Time(T(h, m)), Value::Int64(v)};
}

Change Ins(int ph, int pm, Row row) {
  return Change{ChangeKind::kInsert, std::move(row), T(ph, pm)};
}
Change Del(int ph, int pm, Row row) {
  return Change{ChangeKind::kDelete, std::move(row), T(ph, pm)};
}

SinkConfig GroupedConfig() {
  SinkConfig config;
  config.completeness_column = 0;
  config.version_key_columns = {0};
  return config;
}

TEST(SinkTest, InstantModeEmitsEveryChange) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 2))).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_FALSE(sink.emissions()[0].undo);
  EXPECT_EQ(sink.emissions()[0].ver, 0);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ver, 1);
  EXPECT_FALSE(sink.emissions()[2].undo);
  EXPECT_EQ(sink.emissions()[2].ver, 2);
}

TEST(SinkTest, VersionCountersAreIndependentPerKey) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 20, 9))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 10, 2))).ok());
  EXPECT_EQ(sink.emissions()[0].ver, 0);  // window 8:10, first change
  EXPECT_EQ(sink.emissions()[1].ver, 0);  // window 8:20, first change
  EXPECT_EQ(sink.emissions()[2].ver, 1);  // window 8:10, second change
}

TEST(SinkTest, SnapshotReflectsPtime) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 5, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 5, R(8, 10, 2))).ok());
  EXPECT_EQ(sink.SnapshotAt(T(8, 1)).size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.SnapshotAt(T(8, 1))[0], R(8, 10, 1)));
  EXPECT_TRUE(RowsEqual(sink.SnapshotAt(T(8, 6))[0], R(8, 10, 2)));
  EXPECT_TRUE(sink.SnapshotAt(T(8, 0)).empty());
}

TEST(SinkTest, DeleteOfUnknownRowIsError) {
  MaterializationSink sink(GroupedConfig());
  EXPECT_FALSE(sink.OnElement(0, Del(8, 1, R(8, 10, 1))).ok());
}

TEST(SinkTest, AfterWatermarkHoldsUntilComplete) {
  SinkConfig config = GroupedConfig();
  config.after_watermark = true;
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 2))).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark below the window end: still nothing.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 9), T(8, 5)).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark passes 8:10: only the *net* row materializes, at the
  // watermark arrival's processing time.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.emissions()[0].row, R(8, 10, 2)));
  EXPECT_FALSE(sink.emissions()[0].undo);
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 12));
  EXPECT_EQ(sink.emissions()[0].ver, 0);
}

TEST(SinkTest, AfterWatermarkDropsLateChanges) {
  SinkConfig config = GroupedConfig();
  config.after_watermark = true;
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  // A change for the completed window is dropped.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 13, R(8, 10, 7))).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);
  EXPECT_EQ(sink.late_drops(), 1);
}

TEST(SinkTest, DelayCoalescesUpdates) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(6);
  MaterializationSink sink(config);

  // Changes at 8:01 and 8:03 coalesce into one net emission at 8:07.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 3, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 10, 2))).ok());
  EXPECT_TRUE(sink.emissions().empty());

  ASSERT_TRUE(sink.AdvanceTo(T(8, 7), true).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.emissions()[0].row, R(8, 10, 2)));
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 7));
}

TEST(SinkTest, DelayTimerRearmsAfterFiring) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(6);
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 7), true).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);

  // A later change re-arms the timer from its own ptime.
  ASSERT_TRUE(sink.OnElement(0, Del(8, 9, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 9, R(8, 10, 5))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 14), true).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);  // 8:15 deadline not reached
  ASSERT_TRUE(sink.AdvanceTo(T(8, 15), true).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 15));
  EXPECT_EQ(sink.emissions()[1].ver, 1);
  EXPECT_FALSE(sink.emissions()[2].undo);
  EXPECT_EQ(sink.emissions()[2].ver, 2);
}

TEST(SinkTest, ExclusiveAdvanceLeavesBoundaryTimer) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  // Exclusive advance to exactly the deadline: not fired yet.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), false).ok());
  EXPECT_TRUE(sink.emissions().empty());
  // Inclusive advance fires it.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), true).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);
}

TEST(SinkTest, NoChangeNoEmissionOnDelayFire) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  MaterializationSink sink(config);
  // Insert then delete the same row: net zero at the deadline.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 10), true).ok());
  EXPECT_TRUE(sink.emissions().empty());
}

TEST(SinkTest, CombinedDelayAndWatermark) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  config.after_watermark = true;
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  // Early firing at 8:05.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 6), false).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  // Update, then the watermark completes the window before the next delay
  // deadline: on-time firing happens immediately.
  ASSERT_TRUE(sink.OnElement(0, Del(8, 7, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 7, R(8, 10, 3))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 8), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 10), T(8, 8)).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 8));
  EXPECT_TRUE(RowsEqual(sink.emissions()[2].row, R(8, 10, 3)));
  // After completion, the pending delay timer must not fire again.
  ASSERT_TRUE(sink.AdvanceTo(T(9, 0), true).ok());
  EXPECT_EQ(sink.emissions().size(), 3u);
}

TEST(SinkTest, DelayTimerRespectsWatermarkGateForUnknownCompleteness) {
  // EMIT AFTER WATERMARK + AFTER DELAY, with the completeness column
  // distinct from the grouping key so completeness can become known late.
  SinkConfig config;
  config.after_watermark = true;
  config.delay = Interval::Minutes(5);
  config.completeness_column = 0;
  config.version_key_columns = {1};
  MaterializationSink sink(config);

  // A change arrives whose completeness timestamp is still NULL: the delay
  // timer must NOT materialize it (there is no watermark gate to have
  // passed). Previously the timer flushed it, leaking an ungated emission
  // and — because Flush advanced `last` — suppressing part of the eventual
  // on-time pane.
  Row unknown = {Value::Null(), Value::Int64(1)};
  ASSERT_TRUE(
      sink.OnElement(0, Change{ChangeKind::kInsert, unknown, T(8, 0)}).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 6), true).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Completeness becomes known (8:10) via a second change of the grouping.
  Row known = {Value::Time(T(8, 10)), Value::Int64(1)};
  ASSERT_TRUE(
      sink.OnElement(0, Change{ChangeKind::kInsert, known, T(8, 7)}).ok());
  // Until the watermark passes 8:10, nothing materializes (the re-armed
  // delay timer keeps being gated).
  ASSERT_TRUE(sink.AdvanceTo(T(8, 9), true).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark passes: the on-time pane flushes the complete grouping.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 2u);
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 12));
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 12));

  // The stale delay timer must not re-materialize the completed grouping.
  ASSERT_TRUE(sink.AdvanceTo(T(9, 0), true).ok());
  EXPECT_EQ(sink.emissions().size(), 2u);
}

TEST(SinkTest, UpToDateSnapshotsDoNotReplayTheChangelog) {
  // Regression guard: SnapshotAt used to replay the whole changelog on
  // every call (O(history) per lookup). Up-to-date queries must now be
  // served from the incrementally maintained snapshot without touching the
  // changelog at all.
  MaterializationSink sink(GroupedConfig());
  constexpr int kChanges = 2000;
  for (int i = 0; i < kChanges; ++i) {
    const Change change{ChangeKind::kInsert, R(8, i % 50, i % 7),
                        Timestamp(i)};
    ASSERT_TRUE(sink.OnElement(0, change).ok());
  }
  const Timestamp latest(kChanges - 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sink.CurrentSnapshot().size(),
              static_cast<size_t>(kChanges));
    EXPECT_EQ(sink.SnapshotAt(latest).size(), static_cast<size_t>(kChanges));
    EXPECT_EQ(sink.SnapshotAt(Timestamp::Max()).size(),
              static_cast<size_t>(kChanges));
  }
  EXPECT_EQ(sink.changelog_entries_scanned(), 0);

  // Historical point-in-time queries replay only the bounded prefix.
  const auto historical = sink.SnapshotAt(Timestamp(49));
  EXPECT_EQ(historical.size(), 50u);
  EXPECT_EQ(sink.changelog_entries_scanned(), 50);
}

TEST(SinkTest, IncrementalSnapshotMatchesChangelogReplay) {
  // The incrementally maintained bag must render exactly what a full
  // changelog replay renders (same rows, same multiset order), including
  // across deletes that drop multiplicities back to zero.
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 20, 2))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 4, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 5, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 6, R(8, 5, 3))).ok());

  const std::vector<Row> current = sink.CurrentSnapshot();
  // Historical replay at the frontier must agree with the incremental bag.
  const std::vector<Row> replayed = sink.SnapshotAt(T(8, 5));
  ASSERT_EQ(current.size(), 2u);
  EXPECT_TRUE(RowsEqual(current[0], R(8, 5, 3)));
  EXPECT_TRUE(RowsEqual(current[1], R(8, 20, 2)));
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(RowsEqual(replayed[0], R(8, 20, 2)));
}

TEST(SinkTest, CheckpointChangelogMustMatchEmissions) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 2))).ok());
  state::Writer w;
  ASSERT_TRUE(sink.SaveState(&w).ok());

  // The state ends with the changelog section: the emissions again, as
  // INSERT/DELETE changes.
  auto changelog = [](ChangeKind first_kind, Timestamp last_ptime) {
    state::Writer section;
    section.PutVarint(3);
    section.PutChange(Change{first_kind, R(8, 10, 1), T(8, 1)});
    section.PutChange(Del(8, 2, R(8, 10, 1)));
    section.PutChange(Change{ChangeKind::kInsert, R(8, 10, 2), last_ptime});
    return section.TakeBuffer();
  };
  const std::string& bytes = w.buffer();
  const std::string section = changelog(ChangeKind::kInsert, T(8, 2));
  ASSERT_GE(bytes.size(), section.size());
  const std::string prefix = bytes.substr(0, bytes.size() - section.size());
  ASSERT_EQ(prefix + section, bytes);

  MaterializationSink restored(GroupedConfig());
  state::Reader r(bytes);
  ASSERT_TRUE(restored.LoadState(&r, nullptr).ok());
  ASSERT_EQ(restored.emissions().size(), 3u);
  EXPECT_EQ(restored.SnapshotAt(T(8, 1)).size(), 1u);  // replays emissions
  ASSERT_EQ(restored.CurrentSnapshot().size(), 1u);
  EXPECT_TRUE(RowsEqual(restored.CurrentSnapshot()[0], R(8, 10, 2)));

  // A changelog that disagrees with the emissions — in a change's kind, in
  // its ptime, or in its length — is damage, not a second source of truth.
  state::Writer shorter;
  shorter.PutVarint(2);
  shorter.PutChange(Ins(8, 1, R(8, 10, 1)));
  shorter.PutChange(Del(8, 2, R(8, 10, 1)));
  for (const std::string& bad :
       {changelog(ChangeKind::kDelete, T(8, 2)),
        changelog(ChangeKind::kInsert, T(8, 3)), shorter.buffer()}) {
    const std::string damaged = prefix + bad;
    MaterializationSink target(GroupedConfig());
    state::Reader dr(damaged);
    const Status status = target.LoadState(&dr, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

TEST(SinkTest, WholeRowKeyWhenNoVersionColumns) {
  SinkConfig config;  // no version key, no completeness
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 1))).ok());
  ASSERT_EQ(sink.emissions().size(), 2u);
  EXPECT_EQ(sink.emissions()[0].ver, 0);
  EXPECT_EQ(sink.emissions()[1].ver, 1);  // same row, same key
}

}  // namespace
}  // namespace exec
}  // namespace onesql
