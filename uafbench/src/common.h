// Shared plumbing of the benchmark program: command-line arguments, the
// per-run report (attempted/failed counts, named metrics) and small
// measurement helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace uafbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Generator seed of the batch corpora and of the serve program stream:
/// the Table I reproduction seed. Pinned, see README.md.
inline constexpr std::uint64_t kRecordedCorpusSeed = 20170529;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// chpl-uaf-serve binary (serve_mixed only).
  std::string serve_binary;
};

/// Scratch directory for the daemon's socket and cache dirs, relative to
/// the checkout root (a relative path keeps Unix socket names short).
inline constexpr const char* kWorkDir = ".bench_tmp";
/// Where traced runs write their spans (run.py writes results there too).
inline constexpr const char* kOutDir = ".bench_out";

/// Path of the span file a traced run of `workload` writes.
inline std::string spanPath(const std::string& workload) {
  return std::string(kOutDir) + "/spans-" + workload + ".jsonl";
}

struct Program {
  std::string name;
  std::string source;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: attempted/failed operations, the first failure
/// messages, and every metric in print order.
class RunReport {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& message);
  void add(std::string name, double value, std::string unit);
  /// Free-form provenance or gate detail recorded next to the metrics.
  void note(std::string key, std::string value);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& notes()
      const {
    return notes_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order: BENCHMARK.json's per_layer
/// list. Every traced run prints all of them; a layer that the workload's
/// path does not run reads 0 (witness and oracle on begin_heavy and
/// serve_mixed, the service and net layers on the batch workloads).
inline constexpr LayerMetricSpec kPerLayerMetrics[] = {
    {"corpus.gen_ms", "ms"},
    {"parser.ms", "ms"},
    {"parser.p99_us", "us"},
    {"parser.kb_per_ms", "KB/ms"},
    {"sema.ms", "ms"},
    {"ir.lower_ms", "ms"},
    {"ccfg.ms", "ms"},
    {"ccfg.nodes", "count"},
    {"ccfg.pruned_ratio", "ratio"},
    {"pps.ms", "ms"},
    {"pps.p99_us", "us"},
    {"pps.states_generated", "count"},
    {"pps.states_merged", "count"},
    {"pps.por_bunches", "count"},
    {"pps.state_limit_hits", "count"},
    {"witness.ms", "ms"},
    {"witness.replay_steps", "count"},
    {"witness.confirmed_ratio", "ratio"},
    {"runtime.oracle_ms", "ms"},
    {"runtime.schedules_run", "count"},
    {"runtime.exhaustive_ratio", "ratio"},
    {"analysis.snapshot_us_p50", "us"},
    {"service.decode_us_p50", "us"},
    {"service.encode_us_p50", "us"},
    {"service.key_us_p50", "us"},
    {"service.lookup_us_p50", "us"},
    {"service.hit_ratio", "ratio"},
    {"service.evictions", "count"},
    {"service.disk_append_us_p99", "us"},
    {"service.disk_recover_ms", "ms"},
    {"service.disk_appends", "count"},
    {"service.handle_us_p50", "us"},
    {"service.handle_us_p99", "us"},
    {"service.analyzed", "count"},
    {"service.overloaded", "count"},
    {"net.overhead_us_p50", "us"},
    {"net.overhead_us_p99", "us"},
    {"net.pipeline_depth_hwm", "count"},
    {"bench.generator_late_us_p99", "us"},
    {"bench.trace_overhead_pct", "%"},
};

/// Adds every per-layer metric to `report`, taking values from `values`
/// (absent = 0). A key that names no per-layer metric fails the run, so a
/// typo cannot silently drop a measurement.
void emitPerLayer(RunReport& report,
                  const std::map<std::string, double>& values);

/// percentile() for a reported figure: a refused percentile (too few
/// samples beyond it) fails the run and yields 0.
[[nodiscard]] double checkedPercentile(RunReport& report,
                                       const std::string& name,
                                       std::vector<double> samples, double q);

/// VmHWM of process `pid` (0 = this process) in MiB; nullopt if unreadable.
[[nodiscard]] std::optional<double> peakRssMb(int pid = 0);

/// `values` separated by spaces, for a run note.
[[nodiscard]] std::string joined(const std::vector<double>& values);

/// Fisher-Yates permutation of 0..n-1 drawn from `seed`.
[[nodiscard]] std::vector<std::size_t> seededOrder(std::size_t n,
                                                   std::uint64_t seed);

/// Mixes a workload label into the run seed so independent streams of one
/// run never share draws.
[[nodiscard]] std::uint64_t streamSeed(std::uint64_t seed, const char* label);

RunReport runBatch(const Args& args);
RunReport runServe(const Args& args);

}  // namespace uafbench
