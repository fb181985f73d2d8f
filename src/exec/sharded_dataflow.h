#ifndef ONESQL_EXEC_SHARDED_DATAFLOW_H_
#define ONESQL_EXEC_SHARDED_DATAFLOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/dataflow.h"
#include "exec/shard_router.h"
#include "exec/worker_pool.h"

namespace onesql {
namespace exec {

/// Terminal operator of one shard's chain: buffers everything the chain
/// emits, tagged with the global sequence number of the input event being
/// processed, so the merge step can re-interleave shard outputs in input
/// order and feed the shared sink exactly as the sequential runtime would.
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

/// The key-partitioned parallel runtime: N independent copies of the query's
/// operator chain, each fed the key-partition of the input it owns (hash of
/// the grouping/join key; see shard_router.h) plus every watermark. Shard
/// outputs are buffered per input sequence number and merged — in input
/// order — into the single MaterializationSink, so the emission stream and
/// all snapshots are bit-identical to the sequential `Dataflow` run.
///
/// Execution is pipelined (DESIGN.md §16): each push opens one epoch, the
/// router streams fixed-size slices of the routed input into the per-shard
/// worker queues as it produces them — so routing of slice k+1 overlaps
/// shard processing of slice k — and the epoch barrier (WorkerPool::
/// EndEpoch) closes the epoch before the deterministic input-order merge
/// runs on the caller thread. Batches at or below the inline threshold skip
/// the queues entirely and run shard-by-shard on the caller, which is both
/// faster for tiny batches and trivially produces the same output.
///
/// Construction is via `BuildDataflowRuntime`, which falls back to the
/// sequential runtime when the plan is not key-partitionable or N == 1.
class ShardedDataflow : public DataflowRuntime {
 public:
  static Result<std::unique_ptr<ShardedDataflow>> Build(plan::QueryPlan plan,
                                                        PartitionSpec spec,
                                                        int shards);
  ~ShardedDataflow() override;

  Status PushChunks(const std::vector<const InputChunk*>& chunks) override;
  Status AdvanceTo(Timestamp ptime) override;
  bool ReadsSource(const std::string& source) const override;

  const MaterializationSink& sink() const override { return *sink_; }
  const plan::QueryPlan& plan() const override { return plan_; }
  size_t StateBytes() const override;
  int shard_count() const override {
    return static_cast<int>(shards_.size());
  }
  const std::vector<AggregateOperator*>& aggregates() const override {
    return aggregates_;
  }
  const std::vector<JoinOperator*>& joins() const override { return joins_; }
  Status SaveState(state::Writer* w) const override;

  /// Restores a checkpoint taken at *any* shard count: every target shard
  /// re-reads all saved chain sections, keeping exactly the keyed state it
  /// owns under this runtime's routing (RouteStateKey), so the merged state
  /// is bit-identical regardless of the saving and loading shard counts.
  Status LoadState(state::Reader* r) override;

  void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                 int query_index) override;
  void SampleObsGauges() override;
  void ZeroObsGauges() override;
  size_t NumOperators() const override {
    return shards_.size() * shards_[0].chain.operators.size() + 1;
  }

 private:
  struct Shard {
    std::unique_ptr<CaptureOperator> capture;
    CompiledChain chain;
  };

  /// A position in the flattened chunk list: one input event, living either
  /// as a row of a columnar chunk or as a watermark chunk.
  struct ChunkRef {
    const InputChunk* chunk = nullptr;
    uint32_t row = 0;  // kRows row index
  };

  static constexpr uint64_t kNoFailure = ~uint64_t{0};
  /// Pushes at or below this many events run inline on the caller thread;
  /// above it the per-shard queues pipeline routing against processing.
  static constexpr size_t kInlineEventThreshold = 32;
  /// Events routed per dispatched slice. Small enough that a multi-block
  /// push overlaps routing with processing, large enough that the per-slice
  /// queue handoff amortizes.
  static constexpr uint32_t kRouteBlockEvents = 256;

  /// Per-shard worker-side state for the epoch in flight. Reused across
  /// epochs (reset at push entry), so steady-state dispatch allocates
  /// nothing beyond what the sub-batch accumulator retains.
  struct ShardEpochState {
    Status status;
    uint64_t fail_seq = kNoFailure;
    bool failed = false;
    bool started = false;  ///< per-epoch worker init done (failure slot)
    ChangeBatch sub;       ///< chunk scatter: owned rows awaiting delivery
    const std::vector<SourceOperator*>* sub_ops = nullptr;
  };

  ShardedDataflow() = default;

  // WorkerPool task trampolines (ctx is the ShardedDataflow).
  static void RunChunkRangeTask(void* ctx, int worker, uint32_t begin,
                                uint32_t end);
  static void RunChunkFlushTask(void* ctx, int worker, uint32_t begin,
                                uint32_t end);

  /// Processes events [begin, end) of the epoch's flattened chunk-ref list
  /// for shard `s`. No-op once the shard has failed this epoch.
  void ProcessChunkRange(int s, uint32_t begin, uint32_t end);
  /// Delivers shard `s`'s accumulated sub-batch to its source operators
  /// (batch-scatter mode); records failure state on error.
  void FlushShardSub(ShardEpochState* st);
  /// Resets per-shard epoch state at push entry.
  void BeginPushEpoch();
  /// Earliest failing input seq across shards; the deterministic error.
  int SelectFailedShard(uint64_t* limit) const;
  /// The input-order merge into the sink, up to (and at, for elements)
  /// `limit`.
  Status MergeEpoch(size_t count, uint64_t limit);

  plan::QueryPlan plan_;
  PartitionSpec spec_;
  std::unique_ptr<MaterializationSink> sink_;
  std::vector<Shard> shards_;
  std::unique_ptr<WorkerPool> pool_;
  uint64_t next_seq_ = 0;

  // Epoch inputs: set by PushChunks before the first dispatch, read by the
  // workers until the epoch barrier, cleared after the merge.
  const std::vector<ChunkRef>* epoch_refs_ = nullptr;
  const std::vector<int>* epoch_owner_ = nullptr;
  uint64_t epoch_base_ = 0;
  bool epoch_batch_scatter_ = false;
  std::vector<ShardEpochState> shard_epoch_;
  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
  /// Stall attribution (null unless profiling): epoch-barrier wait and merge
  /// time per pushed batch, plus the rows/s gauge epoch and the worker-queue
  /// depth high-water gauge.
  const obs::QueryProfileMetrics* query_profile_ = nullptr;
  uint64_t profile_attach_us_ = 0;

  // Introspection flattened across shards (shard-major order).
  std::vector<AggregateOperator*> aggregates_;
  std::vector<JoinOperator*> joins_;
};

/// Builds the runtime for `plan` with the requested shard count
/// (`shards <= 0` means auto: std::thread::hardware_concurrency()). Returns
/// the sharded runtime when the plan is key-partitionable and N > 1, and the
/// sequential `Dataflow` otherwise — both behind the same interface with
/// identical observable behavior.
Result<std::unique_ptr<DataflowRuntime>> BuildDataflowRuntime(
    plan::QueryPlan plan, int shards);

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_SHARDED_DATAFLOW_H_
