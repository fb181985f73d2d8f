// The three workloads (README.md describes what each loads and bypasses).
// Each fills `report` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), and records every correctness mismatch.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "exec/dataflow.h"

namespace perfbench {

void RunNexmark(const Options& options, Report* report, Tracer* tracer);
void RunDurableIngest(const Options& options, Report* report, Tracer* tracer);
void RunServerFanout(const Options& options, Report* report, Tracer* tracer);

/// An exec-only twin of one query: the plan from Engine::Plan, a runtime from
/// exec::BuildDataflowRuntime, fed the same batches through exec::ChunkBuilder
/// and DataflowRuntime::PushChunks. Splits the engine's feed time into
/// columnarization and operator work.
struct ExecTwin {
  double chunk_s = 0;
  double push_s = 0;
  std::unique_ptr<onesql::exec::DataflowRuntime> runtime;
};
ExecTwin RunExecTwin(const onesql::Engine& planner, const std::string& sql,
                     const std::vector<std::vector<FeedEvent>>& batches,
                     Tracer* tracer, Report* report);

/// Milliseconds / seconds helpers for readability at call sites.
inline double Ms(double seconds) { return seconds * 1e3; }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
