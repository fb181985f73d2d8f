#ifndef ONESQL_EXEC_DATAFLOW_H_
#define ONESQL_EXEC_DATAFLOW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operators.h"
#include "exec/shard_router.h"
#include "exec/sink.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

class CaptureOperator;
class WorkerPool;

/// A compiled copy of a query's operator chain (everything upstream of the
/// chain's terminal). The chain holds only const pointers into the owning
/// QueryPlan, so several copies — one per shard — can share one plan.
struct CompiledChain {
  /// What CompileChain records about the operator at the same position of
  /// `operators`. Positions follow the plan tree's pre-order (join: left,
  /// then right), so position 0 is the root's operator.
  struct Node {
    const plan::LogicalNode* plan = nullptr;  ///< compiled from this node
    /// Metric `op` label: Operator::Name(), suffixed `_2`, `_3`, ... for
    /// repeats in chain order — deterministic, so every shard copy of a
    /// chain position resolves to the same shared instrument bundle.
    std::string op;
    std::vector<size_t> inputs;  ///< positions feeding ports 0, 1, ...
  };

  std::vector<std::unique_ptr<Operator>> operators;
  std::vector<Node> nodes;
  std::unordered_map<std::string, std::vector<SourceOperator*>> sources;
  std::vector<AggregateOperator*> aggregates;
  std::vector<JoinOperator*> joins;

  size_t StateBytes() const;

  /// Attaches per-operator instruments from `ctx` under `query_label`, each
  /// operator under its node's `op` label.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label);

  /// Serializes every operator's state, in the chain's deterministic build
  /// order, as one length-prefixed blob per operator.
  Status SaveState(state::Writer* w) const;

  /// Merges a saved chain section into this chain: operator blobs are
  /// length-prefixed, each handed to the operator at the same position.
  /// `filter` redistributes keyed state at restore time (see
  /// StateKeyFilter); the chain structure (a pure function of the plan) must
  /// match the saved one, or DataLoss is returned.
  Status LoadState(state::Reader* r, const StateKeyFilter* filter);
};

/// Compiles the plan tree into an operator chain terminating at `terminal`.
/// Fails with NotImplemented for plan shapes the streaming runtime does not
/// support (e.g. LEFT JOIN).
Result<CompiledChain> CompileChain(const plan::QueryPlan& plan,
                                   Operator* terminal);

/// Derives the sink's materialization controls from the plan's EMIT clause,
/// validating the completeness/version-key requirements.
Result<SinkConfig> MakeSinkConfig(const plan::QueryPlan& plan);

/// An executable continuous query, driven by pushing source changes and
/// watermarks in processing-time order. It owns the plan, one
/// MaterializationSink, and one compiled operator chain per shard:
///
///  - **One chain** (N = 1, or a plan that cannot be key-partitioned; see
///    ExtractPartitionSpec): the chain ends at the sink and events are
///    delivered sequentially on the caller thread.
///  - **N chains**: each input change goes to the chain that owns its key
///    (hash of the grouping/join key; see shard_router.h), every chain sees
///    every watermark, and each chain ends at a CaptureOperator. Execution
///    is pipelined (DESIGN.md §16): each push opens one epoch, the router
///    streams fixed-size slices of the routed input into per-shard worker
///    queues — so routing of slice k+1 overlaps processing of slice k — and
///    after the epoch barrier the captured outputs are merged, in input
///    order, into the sink on the caller thread. Pushes at or below the
///    inline threshold skip the queues and run shard by shard on the caller.
///
/// The merge keeps the emission stream and every snapshot bit-identical to
/// the one-chain run. Construction is via BuildDataflowRuntime.
class DataflowRuntime {
 public:
  ~DataflowRuntime();

  /// Pushes pre-chunked input: columnar element runs, watermark advances and
  /// singleton events, ordered across chunks by per-event sequence number
  /// (see ChunkBuilder). Events must arrive in non-decreasing ptime order,
  /// within and across calls; events of sources the query does not read only
  /// move its processing-time clock. This is the only way input enters a
  /// runtime. A one-chain, single-source query consumes whole ChangeBatches
  /// through the vectorized operator kernels; every other one-chain query
  /// decomposes back to scalar per-event delivery in exact sequence order,
  /// so output bytes are identical either way. With N chains the whole push
  /// is dispatched across shards behind one barrier, so larger pushes
  /// amortize the per-push synchronization cost.
  Status PushChunks(const std::vector<const InputChunk*>& chunks);

  /// Advances the processing-time clock to `ptime`, firing all AFTER DELAY
  /// timers due at or before it. Call before observing results at `ptime`.
  Status AdvanceTo(Timestamp ptime);

  /// True if this query reads `source`.
  bool ReadsSource(const std::string& source) const;

  const MaterializationSink& sink() const { return *sink_; }
  const plan::QueryPlan& plan() const { return plan_; }

  /// Total bytes of operator state (aggregations, joins, sink), for the
  /// state-size benchmarks.
  size_t StateBytes() const;

  /// Number of chains (parallel shards); 1 for the sequential run.
  int shard_count() const { return static_cast<int>(chains_.size()); }

  /// Serializes all runtime state (operator chains, sink, input sequence
  /// counter) into `w`. Must be called at a feed boundary (between pushes).
  /// Layout: a varint chain count, one length-prefixed section per chain, a
  /// length-prefixed sink section, and the next input sequence number — so
  /// state saved at N shards can be loaded at any other shard count.
  Status SaveState(state::Writer* w) const;

  /// Restores state saved by SaveState, at any shard count, into a freshly
  /// built runtime for the same plan. Every chain re-reads all saved chain
  /// sections, keeping exactly the keyed state it owns under this runtime's
  /// routing (RouteStateKey); saved section i's counters load into chain
  /// i mod N, so a restore at the saving shard count reproduces the saved
  /// bytes. Structural mismatch or damage yields Status::DataLoss.
  Status LoadState(state::Reader* r);

  /// Introspection for tests and benchmarks, flattened across chains
  /// (shard-major order).
  const std::vector<AggregateOperator*>& aggregates() const {
    return aggregates_;
  }
  const std::vector<JoinOperator*>& joins() const { return joins_; }

  /// What CompileChain recorded per operator (plan node, `op` label,
  /// inputs), in chain order; identical for every shard's chain.
  const std::vector<CompiledChain::Node>& nodes() const {
    return chains_[0].nodes;
  }

  /// Attaches observability: per-operator and sink instruments resolved
  /// from `ctx` under `query_label`, and trace spans tagged with
  /// `query_index`. A null context (or one with everything disabled) leaves
  /// all hooks detached — the default state. Call before pushing data.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                 int query_index);

  /// Publishes instantaneous gauges — per-operator state bytes (summed
  /// across shards), sink timer-queue depth, pending panes, snapshot rows.
  /// Called single-threaded at snapshot time; a no-op when detached.
  void SampleObsGauges();

  /// Zeroes the same gauges SampleObsGauges publishes. Called when the
  /// runtime is being torn down (Engine::DropQuery) so the exposition stops
  /// reporting state for a dead operator tree. A no-op when detached.
  void ZeroObsGauges();

  /// Live operator instances in this runtime, counting every shard copy of
  /// every chain position plus the sink. The engine sums this into the
  /// `onesql_engine_operators` gauge — the number the multi-tenant sharing
  /// tests pin (10k subscribers behind one shared plan must not move it).
  size_t NumOperators() const {
    return chains_.size() * chains_[0].operators.size() + 1;
  }

 private:
  friend Result<std::unique_ptr<DataflowRuntime>> BuildDataflowRuntime(
      plan::QueryPlan plan, int shards);

  DataflowRuntime() = default;

  // -- One chain: sequential delivery (dataflow.cc) -------------------------

  /// True when the chain reads exactly one source through exactly one scan,
  /// and the chunks relevant to it arrive in strictly ascending seq order —
  /// the conditions under which whole batches flow through OnBatch without
  /// changing the per-event delivery order.
  bool CanPushWholeBatches(
      const std::vector<const InputChunk*>& chunks) const;
  Status PushChunksWhole(const std::vector<const InputChunk*>& chunks);
  Status PushChunksMerged(const std::vector<const InputChunk*>& chunks);

  // -- N chains: route, epoch, merge (sharded_dataflow.cc) ------------------

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

  Status PushChunksSharded(const std::vector<const InputChunk*>& chunks);
  // WorkerPool task trampolines (ctx is the DataflowRuntime).
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
  std::unique_ptr<MaterializationSink> sink_;
  std::vector<CompiledChain> chains_;

  // The rest of the dispatch state is used only with N chains.
  PartitionSpec spec_;
  std::vector<std::unique_ptr<CaptureOperator>> captures_;  // one per chain
  std::unique_ptr<WorkerPool> pool_;
  uint64_t next_seq_ = 0;

  // Epoch inputs: set by PushChunksSharded before the first dispatch, read
  // by the workers until the epoch barrier, cleared after the merge.
  const std::vector<ChunkRef>* epoch_refs_ = nullptr;
  const std::vector<int>* epoch_owner_ = nullptr;
  uint64_t epoch_base_ = 0;
  bool epoch_batch_scatter_ = false;
  std::vector<ShardEpochState> shard_epoch_;

  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
  /// Stall attribution (null unless profiling with N chains): epoch-barrier
  /// wait and merge time per pushed batch, and the worker-queue depth
  /// high-water gauge.
  const obs::QueryProfileMetrics* query_profile_ = nullptr;
  /// Steady-clock attach time, the denominator epoch for rows/s gauges.
  uint64_t profile_attach_us_ = 0;

  // Introspection flattened across chains (shard-major order).
  std::vector<AggregateOperator*> aggregates_;
  std::vector<JoinOperator*> joins_;
};

/// Builds the runtime for `plan` with the requested shard count
/// (`shards <= 0` means auto: std::thread::hardware_concurrency()). The
/// runtime gets N chains when the plan is key-partitionable and N > 1, and
/// one chain otherwise, with identical observable behavior.
Result<std::unique_ptr<DataflowRuntime>> BuildDataflowRuntime(
    plan::QueryPlan plan, int shards);

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_DATAFLOW_H_
