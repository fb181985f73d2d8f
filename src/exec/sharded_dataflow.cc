#include "exec/sharded_dataflow.h"

#include <algorithm>
#include <utility>

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

void DataflowRuntime::BeginPushEpoch() {
  for (ShardEpochState& st : shard_epoch_) {
    st.status = Status::OK();
    st.fail_seq = kNoFailure;
    st.failed = false;
    st.started = false;
    st.sub.Clear();
    st.sub_ops = nullptr;
  }
}

void DataflowRuntime::RunChunkRangeTask(void* ctx, int worker, uint32_t begin,
                                        uint32_t end) {
  static_cast<DataflowRuntime*>(ctx)->ProcessChunkRange(worker, begin, end);
}

void DataflowRuntime::RunChunkFlushTask(void* ctx, int worker,
                                        uint32_t /*begin*/, uint32_t /*end*/) {
  auto* self = static_cast<DataflowRuntime*>(ctx);
  ShardEpochState& st = self->shard_epoch_[static_cast<size_t>(worker)];
  if (st.failed) return;
  self->FlushShardSub(&st);
}

void DataflowRuntime::FlushShardSub(ShardEpochState* st) {
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

void DataflowRuntime::ProcessChunkRange(int s, uint32_t begin, uint32_t end) {
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
  CompiledChain& chain = chains_[static_cast<size_t>(s)];
  CaptureOperator& capture = *captures_[static_cast<size_t>(s)];
  const std::vector<ChunkRef>& refs = *epoch_refs_;
  const std::vector<int>& owner = *epoch_owner_;
  for (uint32_t i = begin; i < end; ++i) {
    const ChunkRef& ref = refs[i];
    const InputChunk* chunk = ref.chunk;
    const uint64_t rseq = epoch_base_ + i;
    if (chunk->kind == InputChunk::Kind::kWatermark) {
      auto it = chain.sources.find(chunk->source_lower);
      if (it == chain.sources.end()) continue;
      FlushShardSub(&st);
      if (st.failed) return;
      capture.set_seq(rseq);
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
    auto it = chain.sources.find(chunk->source_lower);
    if (it == chain.sources.end()) continue;
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
    capture.set_seq(rseq);
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

// The error a push surfaces must be the one the one-chain run would
// hit: the earliest failing input event, not whichever failing shard happens
// to come first in shard order. (On a watermark — which every shard
// processes — ties across shards break to the lowest shard id, which is
// deterministic even if sequential, walking one combined state map, could
// surface a different group's error first.)
int DataflowRuntime::SelectFailedShard(uint64_t* limit) const {
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
// sink's clock per event exactly as the one-chain run's per-event
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
Status DataflowRuntime::MergeEpoch(size_t count, uint64_t limit) {
  const int num_shards = shard_count();
  const std::vector<int>& owner = *epoch_owner_;
  std::vector<size_t> cursor(static_cast<size_t>(num_shards), 0);
  auto deliver = [&](int s, uint64_t seq, bool deliver_records) -> Status {
    auto& records = captures_[static_cast<size_t>(s)]->records();
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
  for (auto& capture : captures_) capture->records().clear();
  return merge_status;
}

Status DataflowRuntime::PushChunksSharded(
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
  for (const auto& [name, ops] : chains_[0].sources) {
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

}  // namespace exec
}  // namespace onesql
