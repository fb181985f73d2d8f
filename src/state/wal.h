#ifndef ONESQL_STATE_WAL_H_
#define ONESQL_STATE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "common/timestamp.h"

namespace onesql {

namespace obs {
struct WalMetrics;
}  // namespace obs

namespace state {

/// One durably logged feed event. This mirrors the engine's FeedEvent but is
/// defined here so the state layer does not depend on the engine layer; the
/// engine converts between the two shapes at its WAL boundary.
struct WalRecord {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1, kWatermark = 2 };

  uint64_t seq = 0;  ///< Position in the global feed order, 0-based.
  Kind kind = Kind::kInsert;
  std::string source;
  Timestamp ptime = Timestamp::Min();
  Row row;                             ///< kInsert / kDelete
  Timestamp watermark = Timestamp::Min();  ///< kWatermark
};

/// The write-ahead feed log: an append-only file of CRC32-framed WalRecords,
/// preceded by a magic/version header frame. Every feed event is appended
/// and fsync'd *before* it is dispatched to running queries, so a crash
/// loses at most events the caller was never told were accepted. FeedLog is
/// the file's writer inside GroupCommitLog (the engine's only durable mode)
/// and recovery's reader (ReadAll).
///
/// File layout:
///
///   frame 0:  "1SQLWAL1" magic + varint format version (currently 1)
///   frame 1…: one WalRecord each (varint seq, u8 kind, string source,
///             signed-varint ptime millis, then row or watermark payload)
///
/// Records carry explicit sequence numbers so recovery can replay exactly
/// the suffix past a checkpoint's feed position. Sequence numbers must be
/// contiguous; a gap or regression is reported as corruption.
///
/// Any structural damage — truncated frame, CRC mismatch, bad magic, wrong
/// version, non-contiguous seq — fails with Status::DataLoss. The log is
/// strict by design: a damaged WAL is surfaced to the operator rather than
/// silently replayed up to the damage point.
class FeedLog {
 public:
  FeedLog() = default;
  ~FeedLog();

  FeedLog(const FeedLog&) = delete;
  FeedLog& operator=(const FeedLog&) = delete;
  FeedLog(FeedLog&& other) noexcept;
  FeedLog& operator=(FeedLog&& other) noexcept;

  /// Opens (creating if absent) the log at `path` for appending. An existing
  /// file is fully validated first — every frame checked, every record
  /// decoded — and the next sequence number is recovered from its tail.
  static Result<FeedLog> Open(const std::string& path);

  /// Reads and validates every record of the log at `path` without opening
  /// it for appending. An empty vector means a fresh (header-only) log.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  /// Appends one record (buffered; call Sync before dispatching the event).
  /// `record.seq` must equal next_seq().
  Status Append(const WalRecord& record);

  /// Flushes buffered appends to the OS and fsyncs the file.
  Status Sync();

  /// Closes the underlying file (Sync first if records were appended).
  Status Close();

  /// Sequence number the next Append must carry.
  uint64_t next_seq() const { return next_seq_; }

  const std::string& path() const { return path_; }
  bool is_open() const { return file_ != nullptr; }

  /// Attaches durability instruments (nullptr detaches — the default).
  /// Append records its latency and byte count; Sync records fsync latency.
  void AttachMetrics(const obs::WalMetrics* metrics) { metrics_ = metrics; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t next_seq_ = 0;
  bool dirty_ = false;
  const obs::WalMetrics* metrics_ = nullptr;
};

/// Asynchronous group-commit front end over a FeedLog (DESIGN.md §16).
///
/// A single appender thread owns the underlying log. Producers enqueue
/// records with Append (cheap: one mutex-protected vector push) and block in
/// WaitDurable until the appender's next fsync covers their sequence number.
/// While one fsync is in flight every newly enqueued record accumulates into
/// the next group, so the fsync cost is amortized across all feeders that
/// arrived during it — under contention the log pays one fsync per *group*,
/// not one per feed, while each caller's records are still durable before
/// its WaitDurable returns.
///
/// The file format is exactly FeedLog's; a log written under group commit is
/// read back by FeedLog::ReadAll / replayed by recovery unchanged, and a
/// crash at any point leaves a valid prefix of whole groups.
///
/// Errors are sticky: once an append or sync fails, that status is returned
/// to every current and future waiter (the log's contents past the error are
/// undefined on disk, so pretending later groups committed would lie about
/// durability).
///
/// Thread-safe: any number of producer threads may call Append/WaitDurable
/// concurrently; Sync/Close serialize against them.
class GroupCommitLog {
 public:
  /// Opens (creating/validating) the log at `path` — see FeedLog::Open —
  /// and starts the appender thread.
  static Result<std::unique_ptr<GroupCommitLog>> Open(const std::string& path);

  ~GroupCommitLog();

  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  /// Enqueues one record. `record.seq` must equal next_seq() (enqueue
  /// order). Returns immediately; durability comes from WaitDurable.
  Status Append(WalRecord record);

  /// Blocks until every record with seq < `up_to_seq` is fsync'd (or the
  /// log has failed; the sticky error is returned).
  Status WaitDurable(uint64_t up_to_seq);

  /// Full barrier: waits until everything enqueued so far is durable.
  Status Sync();

  /// Drains, syncs, and stops the appender thread. Idempotent.
  Status Close();

  /// Sequence number the next Append must carry (enqueue position).
  uint64_t next_seq() const;

  const std::string& path() const { return path_; }

  /// Attaches durability instruments (nullptr detaches). The inner log
  /// records append/sync latencies on the appender thread; the group-size
  /// and group-wait histograms are recorded here.
  void AttachMetrics(const obs::WalMetrics* metrics);

 private:
  explicit GroupCommitLog(FeedLog log);

  void AppenderLoop();

  std::string path_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     ///< appender waits for records
  std::condition_variable durable_cv_;  ///< feeders wait for their group
  std::vector<WalRecord> pending_;      ///< enqueued, not yet appended
  uint64_t enqueued_seq_ = 0;           ///< next seq to enqueue
  uint64_t durable_seq_ = 0;            ///< seqs below this are fsync'd
  Status error_;                        ///< sticky failure
  bool stop_ = false;
  const obs::WalMetrics* metrics_ = nullptr;

  /// Owned by the appender thread between start and join; guarded by mu_
  /// only around Close's handover.
  FeedLog log_;
  std::thread appender_;
};

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_STATE_WAL_H_
