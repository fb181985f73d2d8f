#include "exec/sharded_dataflow.h"

#include <algorithm>
#include <string_view>
#include <thread>
#include <utility>

#include "common/schema.h"

namespace onesql {
namespace exec {

Status CaptureOperator::ProcessElement(int /*port*/, const Change& change) {
  Record record;
  record.seq = seq_;
  record.is_watermark = false;
  record.change = change;
  records_.push_back(std::move(record));
  return Status::OK();
}

Status CaptureOperator::ProcessBatch(int /*port*/, const ChangeBatch& batch) {
  for (size_t i = 0; i < batch.num_rows; ++i) {
    Record record;
    record.seq = i < batch.seqs.size() ? batch.seqs[i] : seq_;
    record.is_watermark = false;
    batch.MaterializeChange(i, &record.change);
    records_.push_back(std::move(record));
  }
  return Status::OK();
}

Status CaptureOperator::ProcessWatermark(int /*port*/, Timestamp watermark,
                                    Timestamp ptime) {
  Record record;
  record.seq = seq_;
  record.is_watermark = true;
  record.watermark = watermark;
  record.ptime = ptime;
  records_.push_back(std::move(record));
  return Status::OK();
}

ShardedDataflow::~ShardedDataflow() = default;

Result<std::unique_ptr<ShardedDataflow>> ShardedDataflow::Build(
    plan::QueryPlan plan, PartitionSpec spec, int shards) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  if (shards < 2) {
    return Status::InvalidArgument(
        "the sharded runtime needs at least 2 shards; use Dataflow for 1");
  }
  auto flow = std::unique_ptr<ShardedDataflow>(new ShardedDataflow());
  flow->plan_ = std::move(plan);
  flow->spec_ = std::move(spec);

  ONESQL_ASSIGN_OR_RETURN(SinkConfig config, MakeSinkConfig(flow->plan_));
  flow->sink_ = std::make_unique<MaterializationSink>(std::move(config));

  flow->shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    Shard shard;
    shard.capture = std::make_unique<CaptureOperator>();
    // Every chain holds only const pointers into flow->plan_, so N copies
    // share the one plan; each copy owns its (key-partitioned) state.
    ONESQL_ASSIGN_OR_RETURN(shard.chain,
                            CompileChain(flow->plan_, shard.capture.get()));
    for (AggregateOperator* agg : shard.chain.aggregates) {
      flow->aggregates_.push_back(agg);
    }
    for (JoinOperator* join : shard.chain.joins) {
      flow->joins_.push_back(join);
    }
    flow->shards_.push_back(std::move(shard));
  }
  flow->shard_epoch_.resize(static_cast<size_t>(shards));
  flow->pool_ = std::make_unique<WorkerPool>(shards);
  return flow;
}

void ShardedDataflow::BeginPushEpoch() {
  for (ShardEpochState& st : shard_epoch_) {
    st.status = Status::OK();
    st.fail_seq = kNoFailure;
    st.failed = false;
    st.started = false;
    st.sub.Clear();
    st.sub_ops = nullptr;
  }
}

void ShardedDataflow::RunChunkRangeTask(void* ctx, int worker, uint32_t begin,
                                        uint32_t end) {
  static_cast<ShardedDataflow*>(ctx)->ProcessChunkRange(worker, begin, end);
}

void ShardedDataflow::RunChunkFlushTask(void* ctx, int worker,
                                        uint32_t /*begin*/, uint32_t /*end*/) {
  auto* self = static_cast<ShardedDataflow*>(ctx);
  ShardEpochState& st = self->shard_epoch_[static_cast<size_t>(worker)];
  if (st.failed) return;
  self->FlushShardSub(&st);
}

void ShardedDataflow::FlushShardSub(ShardEpochState* st) {
  if (st->sub.num_rows == 0) return;
  for (SourceOperator* op : *st->sub_ops) {
    Status status = op->OnBatch(0, st->sub);
    if (!status.ok()) {
      const BatchFailure& failure = GetBatchFailure();
      st->fail_seq = failure.has ? failure.seq : st->sub.seqs.front();
      st->status = std::move(status);
      st->failed = true;
      return;
    }
  }
  st->sub.Clear();
}

void ShardedDataflow::ProcessChunkRange(int s, uint32_t begin, uint32_t end) {
  ShardEpochState& st = shard_epoch_[static_cast<size_t>(s)];
  if (st.failed) return;
  if (!st.started) {
    // Reset this worker's thread-local batch-failure slot once per epoch:
    // FlushShardSub reads it to attribute OnBatch failures to a seq.
    ClearBatchFailure();
    st.started = true;
  }
  obs::Span shard_span(trace_, "shard_worker", "dataflow", query_tag_, s);
  shard_span.set_aux(end - begin);
  Shard& shard = shards_[static_cast<size_t>(s)];
  const std::vector<ChunkRef>& refs = *epoch_refs_;
  const std::vector<int>& owner = *epoch_owner_;
  for (uint32_t i = begin; i < end; ++i) {
    const ChunkRef& ref = refs[i];
    const InputChunk* chunk = ref.chunk;
    const uint64_t rseq = epoch_base_ + i;
    if (chunk->kind == InputChunk::Kind::kWatermark) {
      auto it = shard.chain.sources.find(chunk->source_lower);
      if (it == shard.chain.sources.end()) continue;
      FlushShardSub(&st);
      if (st.failed) return;
      shard.capture->set_seq(rseq);
      for (SourceOperator* op : it->second) {
        Status status = op->OnWatermark(0, chunk->watermark, chunk->ptime);
        if (!status.ok()) {
          st.status = std::move(status);
          st.fail_seq = rseq;
          st.failed = true;
          return;
        }
      }
      continue;
    }
    if (owner[i] != s) continue;
    auto it = shard.chain.sources.find(chunk->source_lower);
    if (it == shard.chain.sources.end()) continue;
    if (epoch_batch_scatter_) {
      if (st.sub_ops != nullptr && st.sub_ops != &it->second) {
        FlushShardSub(&st);
        if (st.failed) return;
      }
      st.sub_ops = &it->second;
      if (st.sub.num_rows == 0) st.sub.ResetLike(chunk->batch);
      st.sub.AppendRowFrom(chunk->batch, ref.row);
      st.sub.seqs.back() = rseq;  // runtime seq: routing + merge attribution
      continue;
    }
    FlushShardSub(&st);
    if (st.failed) return;
    shard.capture->set_seq(rseq);
    Change change;
    chunk->batch.MaterializeChange(ref.row, &change);
    for (SourceOperator* op : it->second) {
      Status status = op->OnElement(0, change);
      if (!status.ok()) {
        st.status = std::move(status);
        st.fail_seq = rseq;
        st.failed = true;
        return;
      }
    }
  }
}

// The error a push surfaces must be the one the *sequential* runtime would
// hit: the earliest failing input event, not whichever failing shard happens
// to come first in shard order. (On a watermark — which every shard
// processes — ties across shards break to the lowest shard id, which is
// deterministic even if sequential, walking one combined state map, could
// surface a different group's error first.)
int ShardedDataflow::SelectFailedShard(uint64_t* limit) const {
  int failed_shard = -1;
  *limit = kNoFailure;
  for (size_t s = 0; s < shard_epoch_.size(); ++s) {
    if (shard_epoch_[s].fail_seq < *limit) {
      *limit = shard_epoch_[s].fail_seq;
      failed_shard = static_cast<int>(s);
    }
  }
  return failed_shard;
}

// Deterministic merge: replay the epoch's input in order, advancing the
// sink's clock per event exactly as the sequential runtime's per-event
// delivery would, then deliver the capture records attributed to that
// event's sequence number. Element outputs live on the owning shard only.
// Watermark outputs exist identically on every shard (watermarks are
// broadcast and the partitionable operator set emits no elements on
// watermarks), so shard 0's copy is delivered and the duplicates skipped.
//
// On failure the merge still runs, but only up to the failing event:
// sequential semantics are that everything before the first error has
// already reached the sink, and the failing element's own pre-error
// emissions (captured by its owning shard) have too. Discarding the
// captured prefix here — or delivering past the failure — would leave the
// sink shard-divergent from the sequential run. A failing *watermark*
// delivers nothing at its own seq: no single shard's partial output matches
// the partial walk of sequential's combined state map.
Status ShardedDataflow::MergeEpoch(size_t count, uint64_t limit) {
  const int num_shards = shard_count();
  const std::vector<int>& owner = *epoch_owner_;
  std::vector<size_t> cursor(static_cast<size_t>(num_shards), 0);
  auto deliver = [&](int s, uint64_t seq, bool deliver_records) -> Status {
    auto& records = shards_[static_cast<size_t>(s)].capture->records();
    size_t& c = cursor[static_cast<size_t>(s)];
    while (c < records.size() && records[c].seq == seq) {
      const CaptureOperator::Record& record = records[c];
      if (deliver_records) {
        if (record.is_watermark) {
          ONESQL_RETURN_NOT_OK(
              sink_->OnWatermark(0, record.watermark, record.ptime));
        } else {
          ONESQL_RETURN_NOT_OK(sink_->OnElement(0, record.change));
        }
      }
      ++c;
    }
    return Status::OK();
  };
  Status merge_status = Status::OK();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t seq = epoch_base_ + i;
    if (seq > limit) break;
    const ChunkRef& ref = (*epoch_refs_)[i];
    const bool is_watermark = ref.chunk->kind == InputChunk::Kind::kWatermark;
    const Timestamp ptime = ref.chunk->kind == InputChunk::Kind::kRows
                                ? ref.chunk->batch.ptimes[ref.row]
                                : ref.chunk->ptime;
    merge_status = sink_->AdvanceTo(ptime, /*inclusive=*/false);
    if (!merge_status.ok()) break;
    if (seq == limit) {
      if (!is_watermark) {
        merge_status = deliver(owner[i], seq, /*deliver_records=*/true);
      }
      break;
    }
    if (is_watermark) {
      for (int s = 0; s < num_shards; ++s) {
        merge_status = deliver(s, seq, /*deliver_records=*/s == 0);
        if (!merge_status.ok()) break;
      }
    } else {
      merge_status = deliver(owner[i], seq, /*deliver_records=*/true);
    }
    if (!merge_status.ok()) break;
  }
  for (Shard& shard : shards_) shard.capture->records().clear();
  return merge_status;
}

Status ShardedDataflow::PushChunks(
    const std::vector<const InputChunk*>& chunks) {
  // Flatten the chunk list to one globally seq-ordered event list. Routing,
  // scatter and merge all walk this list, while element payloads stay
  // columnar: stateless chains receive whole per-shard sub-batches through
  // the vectorized kernels, and keyed chains materialize rows on the owning
  // worker instead of on the caller.
  std::vector<ChunkRef> refs;
  {
    size_t total = 0;
    for (const InputChunk* chunk : chunks) total += chunk->NumEvents();
    refs.reserve(total);
  }
  (void)VisitInSeqOrder(chunks, [&](size_t index, size_t row) {
    refs.push_back(ChunkRef{chunks[index], static_cast<uint32_t>(row)});
    return Status::OK();
  });
  if (refs.empty()) return Status::OK();

  obs::Span batch_span(trace_, "push_batch", "dataflow", query_tag_);
  batch_span.set_aux(refs.size());
  const int num_shards = shard_count();
  const uint64_t base = next_seq_;
  next_seq_ += refs.size();
  const uint32_t n = static_cast<uint32_t>(refs.size());

  // Whole sub-batches can only flow into chains whose capture re-attributes
  // per row (one scan per source: a second scan of the same source would
  // interleave its records per event, which per-operator batch delivery
  // cannot reproduce). Stateless chains are single-scan in practice, but
  // verify rather than assume.
  bool batch_scatter = spec_.stateless;
  for (const auto& [name, ops] : shards_[0].chain.sources) {
    if (ops.size() != 1) batch_scatter = false;
  }

  std::vector<int> owner(refs.size(), 0);

  BeginPushEpoch();
  epoch_refs_ = &refs;
  epoch_owner_ = &owner;
  epoch_base_ = base;
  epoch_batch_scatter_ = batch_scatter;
  const bool inline_run = refs.size() <= kInlineEventThreshold;

  {
    obs::Span route_span(trace_, "route", "dataflow", query_tag_);
    route_span.set_aux(refs.size());
    for (uint32_t block = 0; block < n; block += kRouteBlockEvents) {
      const uint32_t block_end = std::min(n, block + kRouteBlockEvents);
      for (uint32_t i = block; i < block_end; ++i) {
        const ChunkRef& ref = refs[i];
        if (ref.chunk->kind == InputChunk::Kind::kRows) {
          owner[i] = RouteShard(spec_, ref.chunk->source_lower,
                                ref.chunk->batch, ref.row, base + i,
                                num_shards);
        }
      }
      if (!inline_run) {
        pool_->DispatchAll(&RunChunkRangeTask, this, block, block_end);
      }
    }
  }
  if (inline_run) {
    for (int s = 0; s < num_shards; ++s) {
      ProcessChunkRange(s, 0, n);
      ShardEpochState& st = shard_epoch_[static_cast<size_t>(s)];
      if (!st.failed) FlushShardSub(&st);
    }
  } else {
    // Trailing per-shard flush (accumulated scatter sub-batches), then the
    // epoch barrier: FIFO queue order guarantees the flush runs after every
    // range slice on its worker, and the barrier gives this thread the
    // happens-before edge the lock-free merge depends on.
    pool_->DispatchAll(&RunChunkFlushTask, this, 0, 0);
    const uint64_t t0 =
        query_profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
    pool_->EndEpoch();
    if (query_profile_ != nullptr) {
      query_profile_->shard_wait_us->Record(obs::TraceRecorder::NowMicros() -
                                            t0);
    }
  }

  uint64_t limit = kNoFailure;
  const int failed_shard = SelectFailedShard(&limit);

  // Deterministic merge: advance the sink per event, deliver the owning
  // shard's captures (shard 0's copy for watermarks), and stop at the
  // earliest failing event.
  obs::Span merge_span(trace_, "merge", "dataflow", query_tag_);
  const uint64_t merge_t0 =
      query_profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
  Status merge_status = MergeEpoch(refs.size(), limit);
  if (query_profile_ != nullptr) {
    query_profile_->merge_us->Record(obs::TraceRecorder::NowMicros() -
                                     merge_t0);
  }
  epoch_refs_ = nullptr;
  epoch_owner_ = nullptr;
  if (!merge_status.ok()) return merge_status;
  if (failed_shard >= 0) {
    return std::move(shard_epoch_[static_cast<size_t>(failed_shard)].status);
  }
  return Status::OK();
}

Status ShardedDataflow::SaveState(state::Writer* w) const {
  w->PutVarint(shards_.size());
  for (const Shard& shard : shards_) {
    state::Writer chain;
    ONESQL_RETURN_NOT_OK(shard.chain.SaveState(&chain));
    w->PutBlob(chain);
  }
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  w->PutVarint(next_seq_);
  return Status::OK();
}

namespace {

/// Keeps the keyed state owned by shard `shard` of `num_shards` under the
/// spec's state-key routing; counters load into shard 0 only.
struct ShardStateFilter : StateKeyFilter {
  ShardStateFilter(const PartitionSpec* spec, int shard, int num_shards)
      : spec_(spec), shard_(shard), num_shards_(num_shards) {
    primary = shard == 0;
  }
  bool Keep(const Row& state_key) const override {
    return RouteStateKey(*spec_, state_key, num_shards_) == shard_;
  }

 private:
  const PartitionSpec* spec_;
  int shard_;
  int num_shards_;
};

}  // namespace

Status ShardedDataflow::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t nchains, r->ReadVarint());
  if (nchains == 0) {
    return Status::DataLoss("checkpoint holds no chain sections");
  }
  if (nchains > r->remaining()) {
    return Status::DataLoss("impossible chain section count in checkpoint");
  }
  // Hold the raw bytes of every saved chain section so each target shard can
  // re-decode all of them with its own ownership filter. A checkpoint taken
  // at N shards thus restores at M shards with the same merged state: every
  // group/bucket lands on the shard that will receive its future inputs.
  std::vector<std::string_view> sections;
  sections.reserve(static_cast<size_t>(nchains));
  for (uint64_t i = 0; i < nchains; ++i) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadBlobBytes());
    sections.push_back(bytes);
  }
  const int num_shards = shard_count();
  for (int s = 0; s < num_shards; ++s) {
    ShardStateFilter filter(&spec_, s, num_shards);
    for (std::string_view bytes : sections) {
      state::Reader section(bytes);
      ONESQL_RETURN_NOT_OK(
          shards_[static_cast<size_t>(s)].chain.LoadState(&section, &filter));
      ONESQL_RETURN_NOT_OK(section.ExpectEnd());
    }
  }
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section, nullptr));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
  ONESQL_ASSIGN_OR_RETURN(uint64_t seq, r->ReadVarint());
  // Continue the input sequence so stateless round-robin routing stays
  // deterministic across the restore boundary.
  next_seq_ = std::max(next_seq_, seq);
  return r->ExpectEnd();
}

Status ShardedDataflow::AdvanceTo(Timestamp ptime) {
  return sink_->AdvanceTo(ptime, /*inclusive=*/true);
}

bool ShardedDataflow::ReadsSource(const std::string& source) const {
  return shards_[0].chain.sources.count(ToLower(source)) > 0;
}

size_t ShardedDataflow::StateBytes() const {
  size_t total = sink_->StateBytes();
  for (const Shard& shard : shards_) total += shard.chain.StateBytes();
  return total;
}

void ShardedDataflow::AttachObs(obs::ObsContext* ctx,
                                const std::string& query_label,
                                int query_index) {
  if (ctx == nullptr) return;
  trace_ = ctx->trace();
  query_tag_ = query_index;
  // Every shard chain resolves to the same instrument bundles (same query
  // and op labels), so rows in/out totals are shard-count-invariant; the
  // sharded Counter absorbs the concurrent writes.
  for (Shard& shard : shards_) shard.chain.AttachObs(ctx, query_label);
  sink_->AttachSinkMetrics(ctx->ForSink(query_label));
  sink_->AttachTrace(ctx->trace(), query_index);
  query_profile_ = ctx->ForQueryProfile(query_label);
  if (ctx->profiling_enabled()) {
    profile_attach_us_ = obs::TraceRecorder::NowMicros();
  }
}

void ShardedDataflow::SampleObsGauges() {
  const uint64_t now_us = obs::TraceRecorder::NowMicros();
  if (!shards_.empty()) {
    const size_t num_ops = shards_[0].chain.operators.size();
    for (size_t pos = 0; pos < num_ops; ++pos) {
      const obs::OperatorMetrics* m =
          shards_[0].chain.operators[pos]->metrics();
      if (m == nullptr) continue;
      // All shard copies of a chain position share one bundle: publish the
      // summed state so the gauge means the same thing at any shard count.
      size_t total = 0;
      for (const Shard& shard : shards_) {
        total += shard.chain.operators[pos]->StateBytes();
      }
      m->state_bytes->Set(static_cast<int64_t>(total));
      // The shared rows_in counter already sums across shard copies, so one
      // rows/s computation per chain position covers every shard.
      const obs::OperatorProfileMetrics* p =
          shards_[0].chain.operators[pos]->profile();
      if (p != nullptr && now_us > profile_attach_us_) {
        p->rows_per_sec->Set(static_cast<int64_t>(
            m->rows_in->Value() * 1000000 / (now_us - profile_attach_us_)));
      }
    }
  }
  if (query_profile_ != nullptr) {
    query_profile_->shard_queue_high_water->Set(
        static_cast<int64_t>(pool_->queue_depth_high_water()));
  }
  sink_->SampleObs();
}

void ShardedDataflow::ZeroObsGauges() {
  if (!shards_.empty()) {
    for (const auto& op : shards_[0].chain.operators) {
      const obs::OperatorMetrics* m = op->metrics();
      if (m != nullptr) m->state_bytes->Set(0);
      const obs::OperatorProfileMetrics* p = op->profile();
      if (p != nullptr) p->rows_per_sec->Set(0);
    }
  }
  if (query_profile_ != nullptr) query_profile_->shard_queue_high_water->Set(0);
  sink_->ZeroObs();
}

Result<std::unique_ptr<DataflowRuntime>> BuildDataflowRuntime(
    plan::QueryPlan plan, int shards) {
  int n = shards;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  if (n > 1) {
    std::optional<PartitionSpec> spec = ExtractPartitionSpec(plan);
    if (spec.has_value()) {
      ONESQL_ASSIGN_OR_RETURN(
          std::unique_ptr<ShardedDataflow> sharded,
          ShardedDataflow::Build(std::move(plan), *std::move(spec), n));
      return std::unique_ptr<DataflowRuntime>(std::move(sharded));
    }
  }
  // Non-partitionable plans (and N == 1) run on the sequential runtime.
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<Dataflow> flow,
                          Dataflow::Build(std::move(plan)));
  return std::unique_ptr<DataflowRuntime>(std::move(flow));
}

}  // namespace exec
}  // namespace onesql
