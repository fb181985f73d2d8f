#include "exec/dataflow.h"

#include <algorithm>

namespace onesql {
namespace exec {

size_t CompiledChain::StateBytes() const {
  size_t total = 0;
  for (const auto& op : operators) total += op->StateBytes();
  return total;
}

void CompiledChain::AttachObs(obs::ObsContext* ctx,
                              const std::string& query_label) {
  if (ctx == nullptr || ctx->registry() == nullptr) return;
  std::unordered_map<std::string, int> seen;
  const int sample_every = ctx->profile_sample_every();
  for (const auto& op : operators) {
    std::string label = op->Name();
    const int occurrence = ++seen[label];
    if (occurrence > 1) label += "_" + std::to_string(occurrence);
    op->AttachMetrics(ctx->ForOperator(query_label, label));
    // Null unless profiling is enabled; shard copies share the bundle.
    op->AttachProfile(ctx->ForOperatorProfile(query_label, label),
                      sample_every);
  }
}

Status CompiledChain::SaveState(state::Writer* w) const {
  w->PutVarint(operators.size());
  for (const auto& op : operators) {
    state::Writer nested;
    ONESQL_RETURN_NOT_OK(op->SaveState(&nested));
    w->PutBlob(nested);
  }
  return Status::OK();
}

Status CompiledChain::LoadState(state::Reader* r,
                                const StateKeyFilter* filter) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  if (n != operators.size()) {
    return Status::DataLoss(
        "checkpointed chain has " + std::to_string(n) +
        " operators, the plan compiles to " +
        std::to_string(operators.size()) +
        " (checkpoint incompatible with this query)");
  }
  // CompileChain builds the operator vector deterministically from the plan,
  // so position i of the saved chain is the same operator as position i here.
  for (auto& op : operators) {
    ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
    ONESQL_RETURN_NOT_OK(op->LoadState(&section, filter));
    ONESQL_RETURN_NOT_OK(section.ExpectEnd());
  }
  return Status::OK();
}

namespace {

/// Recursive chain builder shared by the sequential and sharded runtimes.
Status BuildNode(const plan::QueryPlan& plan, const plan::LogicalNode& node,
                 Operator* out, int port, CompiledChain* chain) {
  switch (node.kind()) {
    case plan::LogicalNode::Kind::kScan: {
      const auto& scan = static_cast<const plan::ScanNode&>(node);
      auto op = std::make_unique<SourceOperator>();
      op->SetOutput(out, port);
      chain->sources[ToLower(scan.source())].push_back(op.get());
      chain->operators.push_back(std::move(op));
      return Status::OK();
    }
    case plan::LogicalNode::Kind::kFilter: {
      const auto& filter = static_cast<const plan::FilterNode&>(node);
      auto op = std::make_unique<FilterOperator>(&filter.predicate());
      op->SetOutput(out, port);
      Operator* self = op.get();
      chain->operators.push_back(std::move(op));
      return BuildNode(plan, filter.input(), self, 0, chain);
    }
    case plan::LogicalNode::Kind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      auto op = std::make_unique<ProjectOperator>(&project.exprs());
      op->SetOutput(out, port);
      Operator* self = op.get();
      chain->operators.push_back(std::move(op));
      return BuildNode(plan, project.input(), self, 0, chain);
    }
    case plan::LogicalNode::Kind::kWindow: {
      const auto& window = static_cast<const plan::WindowNode&>(node);
      std::unique_ptr<Operator> op;
      if (window.window_kind() == plan::WindowKind::kSession) {
        op = std::make_unique<SessionOperator>(&window, plan.allowed_lateness);
      } else {
        op = std::make_unique<WindowOperator>(&window);
      }
      op->SetOutput(out, port);
      Operator* self = op.get();
      chain->operators.push_back(std::move(op));
      return BuildNode(plan, window.input(), self, 0, chain);
    }
    case plan::LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const plan::AggregateNode&>(node);
      auto op = std::make_unique<AggregateOperator>(&agg,
                                                    plan.allowed_lateness);
      op->SetOutput(out, port);
      AggregateOperator* self = op.get();
      chain->aggregates.push_back(self);
      chain->operators.push_back(std::move(op));
      return BuildNode(plan, agg.input(), self, 0, chain);
    }
    case plan::LogicalNode::Kind::kTemporalFilter: {
      const auto& tf = static_cast<const plan::TemporalFilterNode&>(node);
      auto op = std::make_unique<TemporalFilterOperator>(&tf);
      op->SetOutput(out, port);
      Operator* self = op.get();
      chain->operators.push_back(std::move(op));
      return BuildNode(plan, tf.input(), self, 0, chain);
    }
    case plan::LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      if (join.join_type() == sql::JoinType::kLeft) {
        return Status::NotImplemented(
            "LEFT JOIN is not supported by the streaming runtime");
      }
      auto op = std::make_unique<JoinOperator>(&join);
      op->SetOutput(out, port);
      JoinOperator* self = op.get();
      chain->joins.push_back(self);
      chain->operators.push_back(std::move(op));
      ONESQL_RETURN_NOT_OK(BuildNode(plan, join.left(), self, 0, chain));
      return BuildNode(plan, join.right(), self, 1, chain);
    }
  }
  return Status::Internal("unreachable plan node kind");
}

}  // namespace

Result<CompiledChain> CompileChain(const plan::QueryPlan& plan,
                                   Operator* terminal) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  CompiledChain chain;
  ONESQL_RETURN_NOT_OK(BuildNode(plan, *plan.root, terminal, 0, &chain));
  return chain;
}

Result<SinkConfig> MakeSinkConfig(const plan::QueryPlan& plan) {
  SinkConfig config;
  if (plan.emit.has_value()) {
    config.after_watermark = plan.emit->after_watermark;
    config.delay = plan.emit->delay;
  }
  config.completeness_column = plan.completeness_column;
  config.version_key_columns = plan.version_key_columns;
  config.allowed_lateness = plan.allowed_lateness;
  if (config.after_watermark && !config.completeness_column.has_value()) {
    return Status::PlanError(
        "EMIT AFTER WATERMARK requires a completeness column");
  }
  // The completeness value must be constant within a version key so the sink
  // can gate whole groupings on it.
  if (config.after_watermark && !config.version_key_columns.empty()) {
    if (std::find(config.version_key_columns.begin(),
                  config.version_key_columns.end(),
                  *config.completeness_column) ==
        config.version_key_columns.end()) {
      return Status::PlanError(
          "the completeness column must be part of the grouping key");
    }
  }
  return config;
}

Result<std::unique_ptr<Dataflow>> Dataflow::Build(plan::QueryPlan plan) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  auto flow = std::unique_ptr<Dataflow>(new Dataflow());
  flow->plan_ = std::move(plan);

  ONESQL_ASSIGN_OR_RETURN(SinkConfig config, MakeSinkConfig(flow->plan_));
  flow->sink_holder_ = std::make_unique<MaterializationSink>(std::move(config));
  flow->sink_ = flow->sink_holder_.get();

  ONESQL_ASSIGN_OR_RETURN(flow->chain_,
                          CompileChain(flow->plan_, flow->sink_));
  return flow;
}

bool Dataflow::CanPushWholeBatches(
    const std::vector<const InputChunk*>& chunks) const {
  if (chain_.sources.size() != 1) return false;
  if (chain_.sources.begin()->second.size() != 1) return false;
  const std::string& source = chain_.sources.begin()->first;
  // Relevant chunks must be strictly seq-ordered: case-variant spellings of
  // one source open separate chunks whose runs can interleave, and replaying
  // such chunks whole would reorder events. (Chunks are internally ordered
  // by construction.)
  bool any = false;
  uint64_t last_seq = 0;
  for (const InputChunk* chunk : chunks) {
    if (chunk->source_lower != source) continue;
    if (chunk->NumEvents() == 0) continue;
    if (any && chunk->FirstSeq() <= last_seq) return false;
    last_seq = chunk->LastSeq();
    any = true;
  }
  return true;
}

Status Dataflow::PushChunksWhole(const std::vector<const InputChunk*>& chunks) {
  const std::string& source = chain_.sources.begin()->first;
  SourceOperator* op = chain_.sources.begin()->second[0];
  Timestamp max_ptime = Timestamp::Min();
  for (const InputChunk* chunk : chunks) {
    const Timestamp chunk_max = chunk->MaxPtime();
    if (chunk_max > max_ptime) max_ptime = chunk_max;
    if (chunk->source_lower != source) continue;
    switch (chunk->kind) {
      case InputChunk::Kind::kRows: {
        Status status = op->OnBatch(0, chunk->batch);
        if (!status.ok()) {
          // The scalar path advances the sink to the failing event's ptime
          // before delivering it; the batch path reports that row out of
          // band, so catch the sink up before surfacing the error.
          const BatchFailure& failure = GetBatchFailure();
          if (failure.has) {
            ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(failure.ptime,
                                                  /*inclusive=*/false));
          }
          return status;
        }
        break;
      }
      case InputChunk::Kind::kWatermark:
        ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk->ptime,
                                              /*inclusive=*/false));
        ONESQL_RETURN_NOT_OK(op->OnWatermark(0, chunk->watermark,
                                             chunk->ptime));
        break;
    }
  }
  // Events of unread sources only move the sink's processing-time clock;
  // one advance to the batch frontier reproduces the scalar timer firings
  // (each timer flushes at its own deadline, not at the advance instant).
  if (max_ptime > Timestamp::Min()) {
    ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(max_ptime, /*inclusive=*/false));
  }
  return Status::OK();
}

Status Dataflow::PushChunksMerged(
    const std::vector<const InputChunk*>& chunks) {
  // Replay events in exact seq order across chunks, resolving each chunk's
  // reading operators once (nullptr: the query does not read that source).
  std::vector<const std::vector<SourceOperator*>*> ops(chunks.size(), nullptr);
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto it = chain_.sources.find(chunks[i]->source_lower);
    if (it != chain_.sources.end()) ops[i] = &it->second;
  }
  Change scratch;
  return VisitInSeqOrder(chunks, [&](size_t index, size_t row) -> Status {
    const InputChunk& chunk = *chunks[index];
    if (chunk.kind == InputChunk::Kind::kWatermark) {
      ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk.ptime, /*inclusive=*/false));
      if (ops[index] == nullptr) return Status::OK();
      for (SourceOperator* op : *ops[index]) {
        ONESQL_RETURN_NOT_OK(op->OnWatermark(0, chunk.watermark, chunk.ptime));
      }
      return Status::OK();
    }
    ONESQL_RETURN_NOT_OK(
        sink_->AdvanceTo(chunk.batch.ptimes[row], /*inclusive=*/false));
    if (ops[index] == nullptr) return Status::OK();
    chunk.batch.MaterializeChange(row, &scratch);
    for (SourceOperator* op : *ops[index]) {
      ONESQL_RETURN_NOT_OK(op->OnElement(0, scratch));
    }
    return Status::OK();
  });
}

Status Dataflow::PushChunks(const std::vector<const InputChunk*>& chunks) {
  if (chunks.empty()) return Status::OK();
  obs::Span span(trace_, "push_batch", "dataflow", query_tag_, 0);
  size_t nevents = 0;
  for (const InputChunk* chunk : chunks) nevents += chunk->NumEvents();
  span.set_aux(nevents);
  ClearBatchFailure();
  if (CanPushWholeBatches(chunks)) return PushChunksWhole(chunks);
  return PushChunksMerged(chunks);
}

Status Dataflow::AdvanceTo(Timestamp ptime) {
  return sink_->AdvanceTo(ptime, /*inclusive=*/true);
}

bool Dataflow::ReadsSource(const std::string& source) const {
  return chain_.sources.count(ToLower(source)) > 0;
}

void Dataflow::AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                         int query_index) {
  if (ctx == nullptr) return;
  trace_ = ctx->trace();
  query_tag_ = query_index;
  chain_.AttachObs(ctx, query_label);
  sink_->AttachSinkMetrics(ctx->ForSink(query_label));
  sink_->AttachTrace(ctx->trace(), query_index);
  if (ctx->profiling_enabled()) {
    profile_attach_us_ = obs::TraceRecorder::NowMicros();
  }
}

void Dataflow::SampleObsGauges() {
  const uint64_t now_us = obs::TraceRecorder::NowMicros();
  for (const auto& op : chain_.operators) {
    const obs::OperatorMetrics* m = op->metrics();
    if (m != nullptr) {
      m->state_bytes->Set(static_cast<int64_t>(op->StateBytes()));
    }
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr && m != nullptr && now_us > profile_attach_us_) {
      p->rows_per_sec->Set(static_cast<int64_t>(
          m->rows_in->Value() * 1000000 / (now_us - profile_attach_us_)));
    }
  }
  sink_->SampleObs();
}

void Dataflow::ZeroObsGauges() {
  for (const auto& op : chain_.operators) {
    const obs::OperatorMetrics* m = op->metrics();
    if (m != nullptr) m->state_bytes->Set(0);
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr) p->rows_per_sec->Set(0);
  }
  sink_->ZeroObs();
}

size_t Dataflow::StateBytes() const {
  return chain_.StateBytes() + sink_->StateBytes();
}

Status Dataflow::SaveState(state::Writer* w) const {
  w->PutVarint(1);  // one chain section
  state::Writer chain;
  ONESQL_RETURN_NOT_OK(chain_.SaveState(&chain));
  w->PutBlob(chain);
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  w->PutVarint(0);  // the sequential runtime keeps no routing sequence
  return Status::OK();
}

Status Dataflow::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t nchains, r->ReadVarint());
  if (nchains == 0) {
    return Status::DataLoss("checkpoint holds no chain sections");
  }
  if (nchains > r->remaining()) {
    return Status::DataLoss("impossible chain section count in checkpoint");
  }
  // A checkpoint taken at N shards merges into the single chain: keyed
  // entries are disjoint across sections, watermarks merge by maximum, and
  // counters sum (nullptr filter loads everything from every section).
  for (uint64_t i = 0; i < nchains; ++i) {
    ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
    ONESQL_RETURN_NOT_OK(chain_.LoadState(&section, nullptr));
    ONESQL_RETURN_NOT_OK(section.ExpectEnd());
  }
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section, nullptr));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
  ONESQL_ASSIGN_OR_RETURN(uint64_t seq, r->ReadVarint());
  (void)seq;  // no routing sequence on the sequential runtime
  return r->ExpectEnd();
}

}  // namespace exec
}  // namespace onesql
