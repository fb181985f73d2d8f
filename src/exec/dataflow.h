#ifndef ONESQL_EXEC_DATAFLOW_H_
#define ONESQL_EXEC_DATAFLOW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operators.h"
#include "exec/sink.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

/// A compiled copy of a query's operator chain (everything upstream of the
/// materialization sink). The chain holds only const pointers into the
/// owning QueryPlan, so several copies — one per shard — can share one plan.
struct CompiledChain {
  std::vector<std::unique_ptr<Operator>> operators;
  std::unordered_map<std::string, std::vector<SourceOperator*>> sources;
  std::vector<AggregateOperator*> aggregates;
  std::vector<JoinOperator*> joins;

  size_t StateBytes() const;

  /// Attaches per-operator instruments from `ctx` under `query_label`. The
  /// `op` label is the operator's kind name, suffixed `_2`, `_3`, ... for
  /// repeats in chain-build order — deterministic, so every shard copy of a
  /// chain position resolves to the same shared instrument bundle.
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
/// watermarks in processing-time order. Two implementations exist: the
/// sequential `Dataflow` (one operator chain) and the key-partitioned
/// `ShardedDataflow` (N chains behind a deterministic merge; see
/// sharded_dataflow.h). Both materialize into a single MaterializationSink
/// and are observationally identical — the sharded runtime's merge keeps
/// emissions bit-identical to the sequential run.
class DataflowRuntime {
 public:
  virtual ~DataflowRuntime() = default;

  /// Pushes pre-chunked input: columnar element runs, watermark advances and
  /// singleton events, ordered across chunks by per-event sequence number
  /// (see ChunkBuilder). Events must arrive in non-decreasing ptime order,
  /// within and across calls; events of sources the query does not read only
  /// move its processing-time clock. This is the only way input enters a
  /// runtime. Single-source chains consume whole ChangeBatches through the
  /// vectorized operator kernels; everything else decomposes back to the
  /// scalar per-event delivery in exact sequence order, so output bytes are
  /// identical either way. The sharded runtime dispatches the whole push
  /// across shards behind one barrier, so larger pushes amortize the
  /// per-push synchronization cost.
  virtual Status PushChunks(const std::vector<const InputChunk*>& chunks) = 0;

  /// Advances the processing-time clock to `ptime`, firing all AFTER DELAY
  /// timers due at or before it. Call before observing results at `ptime`.
  virtual Status AdvanceTo(Timestamp ptime) = 0;

  /// True if this query reads `source`.
  virtual bool ReadsSource(const std::string& source) const = 0;

  virtual const MaterializationSink& sink() const = 0;
  virtual const plan::QueryPlan& plan() const = 0;

  /// Total bytes of operator state (aggregations, joins, sink), for the
  /// state-size benchmarks.
  virtual size_t StateBytes() const = 0;

  /// Number of parallel shards (1 for the sequential runtime).
  virtual int shard_count() const = 0;

  /// Serializes all runtime state (operator chains, sink, input sequence
  /// counter) into `w`. Must be called at a feed boundary (between pushes).
  /// The blob layout is shared by both runtimes: a varint chain count, one
  /// length-prefixed section per chain, a length-prefixed sink section, and
  /// the next input sequence number — so state saved at N shards can be
  /// loaded at any other shard count (each loading chain takes the keyed
  /// entries it owns; see StateKeyFilter).
  virtual Status SaveState(state::Writer* w) const = 0;

  /// Restores state saved by SaveState into a freshly built runtime for the
  /// same plan. Structural mismatch or damage yields Status::DataLoss.
  virtual Status LoadState(state::Reader* r) = 0;

  /// Introspection for tests and benchmarks. For the sharded runtime these
  /// are flattened across shards (shard-major order).
  virtual const std::vector<AggregateOperator*>& aggregates() const = 0;
  virtual const std::vector<JoinOperator*>& joins() const = 0;

  /// Attaches observability: per-operator and sink instruments resolved
  /// from `ctx` under `query_label`, and trace spans tagged with
  /// `query_index`. A null context (or one with everything disabled) leaves
  /// all hooks detached — the default state. Call before pushing data.
  virtual void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                         int query_index) = 0;

  /// Publishes instantaneous gauges — per-operator state bytes (summed
  /// across shards), sink timer-queue depth, pending panes, snapshot rows.
  /// Called single-threaded at snapshot time; a no-op when detached.
  virtual void SampleObsGauges() = 0;

  /// Zeroes the same gauges SampleObsGauges publishes. Called when the
  /// runtime is being torn down (Engine::DropQuery) so the exposition stops
  /// reporting state for a dead operator tree. A no-op when detached.
  virtual void ZeroObsGauges() = 0;

  /// Live operator instances in this runtime, counting every shard copy of
  /// every chain position plus the sink. The engine sums this into the
  /// `onesql_engine_operators` gauge — the number the multi-tenant sharing
  /// tests pin (10k subscribers behind one shared plan must not move it).
  virtual size_t NumOperators() const = 0;
};

/// The sequential runtime: one operator chain feeding the sink directly.
class Dataflow : public DataflowRuntime {
 public:
  /// Compiles the plan. Fails with NotImplemented for plan shapes the
  /// streaming runtime does not support (e.g. LEFT JOIN).
  static Result<std::unique_ptr<Dataflow>> Build(plan::QueryPlan plan);

  Status PushChunks(const std::vector<const InputChunk*>& chunks) override;
  Status AdvanceTo(Timestamp ptime) override;
  bool ReadsSource(const std::string& source) const override;

  const MaterializationSink& sink() const override { return *sink_; }
  const plan::QueryPlan& plan() const override { return plan_; }
  size_t StateBytes() const override;
  int shard_count() const override { return 1; }
  Status SaveState(state::Writer* w) const override;
  Status LoadState(state::Reader* r) override;
  const std::vector<AggregateOperator*>& aggregates() const override {
    return chain_.aggregates;
  }
  const std::vector<JoinOperator*>& joins() const override {
    return chain_.joins;
  }
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                 int query_index) override;
  void SampleObsGauges() override;
  void ZeroObsGauges() override;
  size_t NumOperators() const override { return chain_.operators.size() + 1; }

 private:
  Dataflow() = default;

  /// True when the chain reads exactly one source through exactly one scan,
  /// and the chunks relevant to it arrive in strictly ascending seq order —
  /// the conditions under which whole batches flow through OnBatch without
  /// changing the per-event delivery order.
  bool CanPushWholeBatches(
      const std::vector<const InputChunk*>& chunks) const;
  Status PushChunksWhole(const std::vector<const InputChunk*>& chunks);
  Status PushChunksMerged(const std::vector<const InputChunk*>& chunks);

  plan::QueryPlan plan_;
  std::unique_ptr<MaterializationSink> sink_holder_;
  MaterializationSink* sink_ = nullptr;
  CompiledChain chain_;
  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
  /// Steady-clock attach time, the denominator epoch for rows/s gauges.
  uint64_t profile_attach_us_ = 0;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_DATAFLOW_H_
