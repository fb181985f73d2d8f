#include "exec/dataflow.h"

#include <algorithm>
#include <string_view>
#include <thread>

#include "exec/sharded_dataflow.h"

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
  const int sample_every = ctx->profile_sample_every();
  for (size_t i = 0; i < operators.size(); ++i) {
    const std::string& label = nodes[i].op;
    operators[i]->AttachMetrics(ctx->ForOperator(query_label, label));
    // Null unless profiling is enabled; shard copies share the bundle.
    operators[i]->AttachProfile(ctx->ForOperatorProfile(query_label, label),
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

/// Recursive chain builder: appends the operator for `node` (wired into
/// `out` at `port`), then compiles its inputs, so chain order is pre-order.
Status BuildNode(const plan::QueryPlan& plan, const plan::LogicalNode& node,
                 Operator* out, int port, CompiledChain* chain) {
  std::unique_ptr<Operator> op;
  std::vector<const plan::LogicalNode*> inputs;
  switch (node.kind()) {
    case plan::LogicalNode::Kind::kScan: {
      const auto& scan = static_cast<const plan::ScanNode&>(node);
      auto source = std::make_unique<SourceOperator>();
      chain->sources[ToLower(scan.source())].push_back(source.get());
      op = std::move(source);
      break;
    }
    case plan::LogicalNode::Kind::kFilter: {
      const auto& filter = static_cast<const plan::FilterNode&>(node);
      op = std::make_unique<FilterOperator>(&filter.predicate());
      inputs = {&filter.input()};
      break;
    }
    case plan::LogicalNode::Kind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      op = std::make_unique<ProjectOperator>(&project.exprs());
      inputs = {&project.input()};
      break;
    }
    case plan::LogicalNode::Kind::kWindow: {
      const auto& window = static_cast<const plan::WindowNode&>(node);
      if (window.window_kind() == plan::WindowKind::kSession) {
        op = std::make_unique<SessionOperator>(&window, plan.allowed_lateness);
      } else {
        op = std::make_unique<WindowOperator>(&window);
      }
      inputs = {&window.input()};
      break;
    }
    case plan::LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const plan::AggregateNode&>(node);
      auto aggregate =
          std::make_unique<AggregateOperator>(&agg, plan.allowed_lateness);
      chain->aggregates.push_back(aggregate.get());
      op = std::move(aggregate);
      inputs = {&agg.input()};
      break;
    }
    case plan::LogicalNode::Kind::kTemporalFilter: {
      const auto& tf = static_cast<const plan::TemporalFilterNode&>(node);
      op = std::make_unique<TemporalFilterOperator>(&tf);
      inputs = {&tf.input()};
      break;
    }
    case plan::LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      if (join.join_type() == sql::JoinType::kLeft) {
        return Status::NotImplemented(
            "LEFT JOIN is not supported by the streaming runtime");
      }
      auto joiner = std::make_unique<JoinOperator>(&join);
      chain->joins.push_back(joiner.get());
      op = std::move(joiner);
      inputs = {&join.left(), &join.right()};
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unreachable plan node kind");
  op->SetOutput(out, port);
  Operator* self = op.get();
  const size_t position = chain->operators.size();
  chain->operators.push_back(std::move(op));
  chain->nodes.push_back(CompiledChain::Node{&node, self->Name(), {}});
  for (size_t p = 0; p < inputs.size(); ++p) {
    chain->nodes[position].inputs.push_back(chain->operators.size());
    ONESQL_RETURN_NOT_OK(
        BuildNode(plan, *inputs[p], self, static_cast<int>(p), chain));
  }
  return Status::OK();
}

}  // namespace

Result<CompiledChain> CompileChain(const plan::QueryPlan& plan,
                                   Operator* terminal) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  CompiledChain chain;
  ONESQL_RETURN_NOT_OK(BuildNode(plan, *plan.root, terminal, 0, &chain));
  // Suffix repeated operator names in chain order: "join", "join_2", ...
  std::unordered_map<std::string, int> seen;
  for (CompiledChain::Node& node : chain.nodes) {
    const int occurrence = ++seen[node.op];
    if (occurrence > 1) node.op += "_" + std::to_string(occurrence);
  }
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

Result<std::unique_ptr<DataflowRuntime>> BuildDataflowRuntime(
    plan::QueryPlan plan, int shards) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  int n = shards;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  std::optional<PartitionSpec> spec;
  if (n > 1) spec = ExtractPartitionSpec(plan);
  // Non-partitionable plans (and N == 1) run on one chain.
  if (!spec.has_value()) n = 1;

  auto flow = std::unique_ptr<DataflowRuntime>(new DataflowRuntime());
  flow->plan_ = std::move(plan);
  ONESQL_ASSIGN_OR_RETURN(SinkConfig config, MakeSinkConfig(flow->plan_));
  flow->sink_ = std::make_unique<MaterializationSink>(std::move(config));
  for (int i = 0; i < n; ++i) {
    // One chain ends at the sink; each of N chains ends at its own capture,
    // merged into the sink. Every chain holds only const pointers into
    // flow->plan_, so the copies share the one plan; each owns its
    // (key-partitioned) state.
    Operator* terminal = flow->sink_.get();
    if (n > 1) {
      flow->captures_.push_back(std::make_unique<CaptureOperator>());
      terminal = flow->captures_.back().get();
    }
    ONESQL_ASSIGN_OR_RETURN(CompiledChain chain,
                            CompileChain(flow->plan_, terminal));
    flow->aggregates_.insert(flow->aggregates_.end(), chain.aggregates.begin(),
                             chain.aggregates.end());
    flow->joins_.insert(flow->joins_.end(), chain.joins.begin(),
                        chain.joins.end());
    flow->chains_.push_back(std::move(chain));
  }
  if (n > 1) {
    flow->spec_ = *std::move(spec);
    flow->shard_epoch_.resize(static_cast<size_t>(n));
    flow->pool_ = std::make_unique<WorkerPool>(n);
  }
  return flow;
}

DataflowRuntime::~DataflowRuntime() = default;

bool DataflowRuntime::CanPushWholeBatches(
    const std::vector<const InputChunk*>& chunks) const {
  const auto& sources = chains_[0].sources;
  if (sources.size() != 1) return false;
  if (sources.begin()->second.size() != 1) return false;
  const std::string& source = sources.begin()->first;
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

Status DataflowRuntime::PushChunksWhole(
    const std::vector<const InputChunk*>& chunks) {
  const std::string& source = chains_[0].sources.begin()->first;
  SourceOperator* op = chains_[0].sources.begin()->second[0];
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

Status DataflowRuntime::PushChunksMerged(
    const std::vector<const InputChunk*>& chunks) {
  // Replay events in exact seq order across chunks, resolving each chunk's
  // reading operators once (nullptr: the query does not read that source).
  const auto& sources = chains_[0].sources;
  std::vector<const std::vector<SourceOperator*>*> ops(chunks.size(), nullptr);
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto it = sources.find(chunks[i]->source_lower);
    if (it != sources.end()) ops[i] = &it->second;
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

Status DataflowRuntime::PushChunks(
    const std::vector<const InputChunk*>& chunks) {
  if (chains_.size() > 1) return PushChunksSharded(chunks);
  if (chunks.empty()) return Status::OK();
  obs::Span span(trace_, "push_batch", "dataflow", query_tag_, 0);
  size_t nevents = 0;
  for (const InputChunk* chunk : chunks) nevents += chunk->NumEvents();
  span.set_aux(nevents);
  ClearBatchFailure();
  if (CanPushWholeBatches(chunks)) return PushChunksWhole(chunks);
  return PushChunksMerged(chunks);
}

Status DataflowRuntime::AdvanceTo(Timestamp ptime) {
  return sink_->AdvanceTo(ptime, /*inclusive=*/true);
}

bool DataflowRuntime::ReadsSource(const std::string& source) const {
  return chains_[0].sources.count(ToLower(source)) > 0;
}

size_t DataflowRuntime::StateBytes() const {
  size_t total = sink_->StateBytes();
  for (const CompiledChain& chain : chains_) total += chain.StateBytes();
  return total;
}

void DataflowRuntime::AttachObs(obs::ObsContext* ctx,
                                const std::string& query_label,
                                int query_index) {
  if (ctx == nullptr) return;
  trace_ = ctx->trace();
  query_tag_ = query_index;
  // Every shard chain resolves to the same instrument bundles (same query
  // and op labels), so rows in/out totals are shard-count-invariant; the
  // sharded Counter absorbs the concurrent writes.
  for (CompiledChain& chain : chains_) chain.AttachObs(ctx, query_label);
  sink_->AttachSinkMetrics(ctx->ForSink(query_label));
  sink_->AttachTrace(ctx->trace(), query_index);
  // Shard-wait and merge stalls exist only behind several chains.
  if (chains_.size() > 1) query_profile_ = ctx->ForQueryProfile(query_label);
  if (ctx->profiling_enabled()) {
    profile_attach_us_ = obs::TraceRecorder::NowMicros();
  }
}

void DataflowRuntime::SampleObsGauges() {
  const uint64_t now_us = obs::TraceRecorder::NowMicros();
  for (size_t pos = 0; pos < chains_[0].operators.size(); ++pos) {
    const Operator& op = *chains_[0].operators[pos];
    const obs::OperatorMetrics* m = op.metrics();
    if (m == nullptr) continue;
    // All shard copies of a chain position share one bundle: publish the
    // summed state so the gauge means the same thing at any shard count.
    size_t total = 0;
    for (const CompiledChain& chain : chains_) {
      total += chain.operators[pos]->StateBytes();
    }
    m->state_bytes->Set(static_cast<int64_t>(total));
    // The shared rows_in counter already sums across shard copies, so one
    // rows/s computation per chain position covers every shard.
    const obs::OperatorProfileMetrics* p = op.profile();
    if (p != nullptr && now_us > profile_attach_us_) {
      p->rows_per_sec->Set(static_cast<int64_t>(
          m->rows_in->Value() * 1000000 / (now_us - profile_attach_us_)));
    }
  }
  if (query_profile_ != nullptr) {
    query_profile_->shard_queue_high_water->Set(
        static_cast<int64_t>(pool_->queue_depth_high_water()));
  }
  sink_->SampleObs();
}

void DataflowRuntime::ZeroObsGauges() {
  for (const auto& op : chains_[0].operators) {
    const obs::OperatorMetrics* m = op->metrics();
    if (m != nullptr) m->state_bytes->Set(0);
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr) p->rows_per_sec->Set(0);
  }
  if (query_profile_ != nullptr) query_profile_->shard_queue_high_water->Set(0);
  sink_->ZeroObs();
}

Status DataflowRuntime::SaveState(state::Writer* w) const {
  w->PutVarint(chains_.size());
  for (const CompiledChain& chain : chains_) {
    state::Writer section;
    ONESQL_RETURN_NOT_OK(chain.SaveState(&section));
    w->PutBlob(section);
  }
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  w->PutVarint(next_seq_);
  return Status::OK();
}

namespace {

/// Keeps the keyed state owned by shard `shard` of `num_shards` under the
/// spec's state-key routing. The loader sets `primary` per saved section.
struct ShardStateFilter : StateKeyFilter {
  ShardStateFilter(const PartitionSpec* spec, int shard, int num_shards)
      : spec_(spec), shard_(shard), num_shards_(num_shards) {}
  bool Keep(const Row& state_key) const override {
    return RouteStateKey(*spec_, state_key, num_shards_) == shard_;
  }

 private:
  const PartitionSpec* spec_;
  int shard_;
  int num_shards_;
};

}  // namespace

Status DataflowRuntime::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t nsections, r->ReadVarint());
  if (nsections == 0) {
    return Status::DataLoss("checkpoint holds no chain sections");
  }
  if (nsections > r->remaining()) {
    return Status::DataLoss("impossible chain section count in checkpoint");
  }
  // Hold the raw bytes of every saved chain section so each chain can
  // re-decode all of them. A checkpoint taken at N shards thus restores at
  // M shards with the same merged state: every group/bucket lands on the
  // chain that will receive its future inputs, watermarks merge by maximum,
  // and counters sum. One chain keeps everything (null filter).
  std::vector<std::string_view> sections;
  sections.reserve(static_cast<size_t>(nsections));
  for (uint64_t i = 0; i < nsections; ++i) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadBlobBytes());
    sections.push_back(bytes);
  }
  const size_t num_chains = chains_.size();
  for (size_t c = 0; c < num_chains; ++c) {
    ShardStateFilter filter(&spec_, static_cast<int>(c),
                            static_cast<int>(num_chains));
    for (size_t i = 0; i < sections.size(); ++i) {
      // Section i's counters land on chain i mod M: the totals survive any
      // shard-count change, and each chain's own at the saving count.
      filter.primary = i % num_chains == c;
      state::Reader section(sections[i]);
      ONESQL_RETURN_NOT_OK(chains_[c].LoadState(
          &section, num_chains > 1 ? &filter : nullptr));
      ONESQL_RETURN_NOT_OK(section.ExpectEnd());
    }
  }
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section, nullptr));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
  ONESQL_ASSIGN_OR_RETURN(uint64_t seq, r->ReadVarint());
  // Continue the input sequence so stateless round-robin routing stays
  // deterministic across the restore boundary. One chain routes nothing.
  if (num_chains > 1) next_seq_ = std::max(next_seq_, seq);
  return r->ExpectEnd();
}

}  // namespace exec
}  // namespace onesql
