// perfbench: the repository benchmark. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> --spec <BENCHMARK.json> [--rev <revision>]
//             [--perturb 1]
//
// Prints a machine fingerprint line, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The untraced
// run (--trace 0) reports the end-to-end metrics; the traced run
// (--trace 1) the per-layer metrics, and writes its spans to
// <scratch>/trace-<workload>.json. Every metric of the chosen set is printed
// on every workload (the sets are read from BENCHMARK.json); a per-layer
// metric of a layer the workload bypasses reads 0.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "server/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The metric set of one kind ("end_to_end" or "per_layer") from
/// BENCHMARK.json, as (name, unit) pairs.
onesql::Result<MetricCatalog> LoadCatalog(const std::string& spec_path,
                                          const char* kind) {
  std::ifstream in(spec_path);
  if (!in) return onesql::Status::InvalidArgument("cannot read " + spec_path);
  std::stringstream text;
  text << in.rdbuf();
  auto spec = onesql::server::Json::Parse(text.str());
  if (!spec.ok()) return spec.status();
  const onesql::server::Json* list = spec.value().Find(kind);
  if (list == nullptr || !list->is_array()) {
    return onesql::Status::InvalidArgument(spec_path + " has no " + kind);
  }
  MetricCatalog catalog;
  for (const auto& m : list->items()) {
    const onesql::server::Json* name = m.Find("name");
    const onesql::server::Json* unit = m.Find("unit");
    if (name == nullptr || unit == nullptr || !name->is_string() ||
        !unit->is_string()) {
      return onesql::Status::InvalidArgument(spec_path + ": bad metric entry");
    }
    catalog.emplace_back(name->AsString(), unit->AsString());
  }
  return catalog;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<nexmark|durable-ingest|server-fanout> "
               "--seed N --seconds S --trace 0|1 --scratch DIR --spec FILE "
               "[--rev REV] [--perturb 1]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string rev = "unknown";
  std::string spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--perturb") {
      options.perturb = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--spec") {
      spec = value;
    } else if (flag == "--rev") {
      rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (options.scratch.empty()) return Usage("--scratch is required");
  auto catalog =
      LoadCatalog(spec, options.trace ? "per_layer" : "end_to_end");
  if (!catalog.ok()) return Usage(catalog.status().ToString().c_str());
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  using onesql::server::Json;
  Json fingerprint = Json::Object();
  fingerprint.Set("nproc", Json::Int(std::thread::hardware_concurrency()));
  fingerprint.Set("cpu", Json::Str(CpuModel()));
  fingerprint.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  fingerprint.Set("compiler", Json::Str(PERFBENCH_COMPILER));
  fingerprint.Set("rev", Json::Str(rev));
  fingerprint.Set("workload", Json::Str(options.workload));
  fingerprint.Set("seed", Json::Int(options.seed));
  fingerprint.Set("seconds", Json::Double(options.seconds));
  fingerprint.Set("trace", Json::Int(options.trace ? 1 : 0));
  std::printf("# fingerprint: %s\n", fingerprint.Serialize().c_str());
  std::fflush(stdout);

  Report report;
  Tracer tracer(options.trace);
  if (options.workload == "nexmark") {
    RunNexmark(options, &report, &tracer);
  } else if (options.workload == "durable-ingest") {
    RunDurableIngest(options, &report, &tracer);
  } else if (options.workload == "server-fanout") {
    RunServerFanout(options, &report, &tracer);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (options.trace) {
    report.Set("e2e.error_rate",
               report.attempted() == 0
                   ? 0
                   : static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               "ratio");
    const std::string path =
        options.scratch + "/trace-" + options.workload + ".json";
    std::ofstream out(path);
    out << tracer.ToJson().Serialize() << "\n";
    if (!out) report.Mismatch("could not write " + path);
  }

  // Exactly the chosen metric set: a metric the workload did not set is a
  // bypassed layer (per-layer run) or a benchmark bug (end-to-end run).
  report.Conform(catalog.value(), /*zero_missing=*/options.trace);
  std::printf("%s\n", report.ResultJson().Serialize().c_str());
  return 0;
}
