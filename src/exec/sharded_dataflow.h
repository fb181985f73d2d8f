#ifndef ONESQL_EXEC_SHARDED_DATAFLOW_H_
#define ONESQL_EXEC_SHARDED_DATAFLOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/dataflow.h"
#include "exec/worker_pool.h"

namespace onesql {
namespace exec {

/// The N-chain dispatch of DataflowRuntime (route, epoch, merge) lives in
/// sharded_dataflow.cc; this header adds the piece only that path uses.

/// Terminal operator of one shard's chain: buffers everything the chain
/// emits, tagged with the global sequence number of the input event being
/// processed, so the merge step can re-interleave shard outputs in input
/// order and feed the shared sink exactly as the one-chain run would.
class CaptureOperator : public Operator {
 public:
  struct Record {
    uint64_t seq = 0;
    bool is_watermark = false;
    Change change;        // element records
    Timestamp watermark;  // watermark records
    Timestamp ptime;      // watermark records
  };

  /// Sets the sequence number subsequent captures are attributed to.
  void set_seq(uint64_t seq) { seq_ = seq; }

  std::vector<Record>& records() { return records_; }

  Status ProcessElement(int port, const Change& change) override;
  /// Batch-path capture: records one element per row, attributed to the
  /// row's own sequence number (sub-batches scattered to a shard carry the
  /// runtime seqs), so the merge stays input-ordered without decomposing the
  /// batch upstream.
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark, Timestamp ptime) override;
  const char* Name() const override { return "capture"; }

 private:
  uint64_t seq_ = 0;
  std::vector<Record> records_;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_SHARDED_DATAFLOW_H_
