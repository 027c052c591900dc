// Batch workloads: the Table I corpus through corpus::runProgram
// (`table1`) and task-heavy generated programs through Pipeline::runSource
// (`begin_heavy`), timed per program over serial sweeps; plus their traced
// layer-by-layer run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "speed.h"
#include "src/analysis/pipeline.h"
#include "src/corpus/runner.h"
#include "src/runtime/explore.h"

namespace uafbench {

namespace {

/// The paper's suite size; the curated programs count towards it.
constexpr std::size_t kTable1Total = 5127;
constexpr std::size_t kBeginHeavyPrograms = 2042;
/// Corpus generations timed for setup_s before the sweeps, and after each
/// sweep; the median of all of them is reported.
constexpr int kSetupRepeats = 40;
constexpr int kSetupRepeatsPerSweep = 5;
/// Measured work between two host-speed samples (speed.h).
constexpr double kGaugeEverySeconds = 4e-3;
/// Timed sweeps made even when one sweep outlasts --seconds.
constexpr int kMinSweeps = 3;
/// begin_heavy programs drawn for the soundness gate.
constexpr std::size_t kSoundnessSample = 48;

/// Table I rows recorded at the recorded corpus seed, with the benchmark's
/// classification (witness replay + enumerating oracle): cases, with
/// begin, with warnings, warnings, true positives.
constexpr std::size_t kRecordedRows[5] = {5127, 248, 50, 393, 86};
constexpr const char* kRowNames[5] = {"cases", "with begin", "with warnings",
                                      "warnings", "true positives"};

std::vector<Program> makeCorpus(bool table1) {
  std::vector<Program> corpus;
  cuaf::corpus::GeneratorOptions gen_options;
  std::size_t generated = kBeginHeavyPrograms;
  if (table1) {
    const auto& curated = cuaf::corpus::curatedPrograms();
    corpus.reserve(kTable1Total);
    for (const cuaf::corpus::CuratedProgram& p : curated) {
      corpus.push_back({p.name, p.source});
    }
    generated = kTable1Total - curated.size();
  } else {
    gen_options.begin_pm = 1000;
    corpus.reserve(generated);
  }
  cuaf::corpus::ProgramGenerator gen(kRecordedCorpusSeed, gen_options);
  for (std::size_t i = 0; i < generated; ++i) {
    cuaf::corpus::GeneratedProgram p = gen.next();
    corpus.push_back({std::move(p.name), std::move(p.source)});
  }
  return corpus;
}

/// Seconds one corpus generation takes at nominal host speed (freeing the
/// corpus is not timed).
double timeGeneration(bool table1) {
  std::vector<Program> corpus;
  return nominalSeconds([&] { corpus = makeCorpus(table1); });
}

/// Analysis options of the workload's path.
cuaf::corpus::RunnerOptions table1Options() {
  cuaf::corpus::RunnerOptions options;
  options.classify_with_witness = true;
  options.measure_fp_reduction = false;
  return options;
}

/// What one timed analysis produced, for the determinism check between
/// sweeps and the Table I rows.
struct Summary {
  bool ok = false;
  bool has_begin = false;
  std::size_t warnings = 0;
  std::size_t true_positives = 0;
  std::size_t pps_states = 0;

  friend bool operator==(const Summary&, const Summary&) = default;
};

Summary analyzeOnPath(bool table1, const Program& p,
                      const cuaf::corpus::RunnerOptions& runner) {
  Summary s;
  if (table1) {
    const cuaf::corpus::ProgramOutcome o =
        cuaf::corpus::runProgram(p.name, p.source, runner);
    s.ok = o.parse_ok;
    s.has_begin = o.has_begin;
    s.warnings = o.warnings;
    s.true_positives = o.true_positives;
    s.pps_states = o.pps_states;
    return s;
  }
  cuaf::Pipeline pipeline;
  s.ok = pipeline.runSource(p.name, p.source);
  s.has_begin = pipeline.analysis().hasBegin();
  s.warnings = pipeline.analysis().warningCount();
  for (const cuaf::ProcAnalysis& pa : pipeline.analysis().procs) {
    s.pps_states += pa.pps_states;
  }
  return s;
}

struct SoundnessTally {
  std::size_t checked = 0;
  std::size_t deadlock_only = 0;
  std::size_t unsupported = 0;
};

/// Soundness gate: every use-after-free site the enumerating oracle
/// observes must carry a warning. Programs whose every explored schedule
/// deadlocks are set aside: the paper's analysis drops deadlocked paths by
/// design (curated `deadlock_drop` documents it), so it claims nothing there.
void checkSoundness(const Program& p, RunReport& report,
                    SoundnessTally& tally) {
  report.attempt();
  cuaf::Pipeline pipeline;
  if (!pipeline.runSource(p.name, p.source)) {
    report.fail("soundness gate: " + p.name + " does not analyze");
    return;
  }
  std::vector<cuaf::SourceLoc> warned;
  bool skipped = false;
  for (const cuaf::ProcAnalysis& pa : pipeline.analysis().procs) {
    skipped |= pa.skipped_unsupported;
    for (const cuaf::UafWarning& w : pa.warnings) {
      warned.push_back(w.access_loc);
    }
  }
  const cuaf::corpus::RunnerOptions runner;
  cuaf::rt::ExploreOptions eo;
  eo.max_schedules = runner.oracle_max_schedules;
  eo.random_schedules = runner.oracle_random_schedules;
  const cuaf::rt::ExploreResult oracle =
      cuaf::rt::exploreAll(*pipeline.module(), *pipeline.program(), eo);
  if (oracle.unsupported || skipped) {
    ++tally.unsupported;
    return;
  }
  if (oracle.schedules_run > 0 &&
      oracle.deadlock_schedules == oracle.schedules_run) {
    ++tally.deadlock_only;
    return;
  }
  ++tally.checked;
  for (const cuaf::rt::UafEvent& e : oracle.uaf_sites) {
    if (std::find(warned.begin(), warned.end(), e.loc) == warned.end()) {
      report.fail("soundness gate: " + p.name + " line " +
                  std::to_string(e.loc.line) + ":" +
                  std::to_string(e.loc.column) +
                  " is use-after-free at runtime but not warned");
    }
  }
}

void runTimed(const Args& args, bool table1, const std::vector<Program>& corpus,
              std::vector<double> setup_s, RunReport& report) {
  const cuaf::corpus::RunnerOptions runner = table1Options();
  const std::vector<std::size_t> order =
      seededOrder(corpus.size(), streamSeed(args.seed, "order"));

  // Warm-up on a tenth of the corpus: allocator pools and page tables fill
  // before anything is timed.
  for (std::size_t i = 0; i < order.size() / 10; ++i) {
    (void)analyzeOnPath(table1, corpus[order[i]], runner);
  }

  std::vector<Summary> first(corpus.size());
  std::vector<double> throughput;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> raw_throughput;
  std::vector<double> slowdowns;
  std::size_t samples = 0;
  SpeedGauge gauge(kGaugeEverySeconds);
  const Clock::time_point start = Clock::now();
  double last_sweep_s = 0;
  for (int sweep = 0;; ++sweep) {
    const double elapsed = secondsBetween(start, Clock::now());
    if (sweep >= kMinSweeps && elapsed + last_sweep_s > args.seconds) break;
    std::vector<double> per_program_us;
    per_program_us.reserve(order.size());
    double work_s = 0;
    gauge.reset();
    gauge.sample();
    const Clock::time_point sweep_start = Clock::now();
    for (std::size_t index : order) {
      const Clock::time_point t0 = Clock::now();
      Summary s = analyzeOnPath(table1, corpus[index], runner);
      const double program_s = secondsBetween(t0, Clock::now());
      per_program_us.push_back(program_s * 1e6);
      work_s += program_s;
      gauge.afterWork(program_s);
      report.attempt();
      if (!s.ok) {
        report.fail("sweep " + std::to_string(sweep) + ": " +
                    corpus[index].name + " failed in the front end");
      }
      if (sweep == 0) {
        first[index] = s;
      } else if (!(s == first[index])) {
        report.fail("sweep " + std::to_string(sweep) + ": " +
                    corpus[index].name + " gave a different verdict");
      }
    }
    last_sweep_s = secondsBetween(sweep_start, Clock::now());
    for (int i = 0; i < kSetupRepeatsPerSweep; ++i) {
      setup_s.push_back(timeGeneration(table1));
    }
    // The sweep's times at nominal host speed (speed.h).
    const double slowdown = gauge.slowdown();
    slowdowns.push_back(slowdown);
    raw_throughput.push_back(static_cast<double>(corpus.size()) / work_s);
    throughput.push_back(static_cast<double>(corpus.size()) * slowdown /
                         work_s);
    for (double& us : per_program_us) us /= slowdown;
    samples += per_program_us.size();
    p50_us.push_back(
        checkedPercentile(report, "latency_p50_us", per_program_us, 0.50));
    p99_us.push_back(
        checkedPercentile(report, "latency_p99_us", per_program_us, 0.99));
  }
  std::fprintf(stderr, "uafbench: %zu sweeps of %zu programs\n",
               throughput.size(), corpus.size());

  // Each figure is taken per sweep; the median sweep is reported.
  report.add("setup_s", median(setup_s), "s");
  report.add("throughput_per_s", median(throughput), "1/s");
  report.add("latency_p50_us", median(p50_us), "us");
  report.add("latency_p99_us", median(p99_us), "us");
  report.add("peak_rss_mb", peakRssMb().value_or(0.0), "MiB");
  report.note("throughput_per_sweep", joined(throughput));
  report.note("raw_throughput_per_sweep", joined(raw_throughput));
  report.note("host_slowdown_per_sweep", joined(slowdowns));
  report.note("samples", std::to_string(samples));

  if (table1) {
    std::size_t rows[5] = {0, 0, 0, 0, 0};
    for (const Summary& s : first) {
      if (!s.ok) continue;
      ++rows[0];
      if (s.has_begin) ++rows[1];
      if (s.warnings > 0) ++rows[2];
      rows[3] += s.warnings;
      rows[4] += s.true_positives;
    }
    std::string measured;
    for (int r = 0; r < 5; ++r) {
      measured += (r ? "/" : "") + std::to_string(rows[r]);
    }
    report.note("table1_rows", measured);
    for (int r = 0; r < 5; ++r) {
      report.attempt();
      if (rows[r] != kRecordedRows[r]) {
        report.fail(std::string("Table I row '") + kRowNames[r] + "' is " +
                    std::to_string(rows[r]) + ", recorded " +
                    std::to_string(kRecordedRows[r]));
      }
    }
  }

  SoundnessTally tally;
  if (table1) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (first[i].has_begin) checkSoundness(corpus[i], report, tally);
    }
  } else {
    const std::vector<std::size_t> sample =
        seededOrder(corpus.size(), streamSeed(args.seed, "soundness"));
    for (std::size_t i = 0; i < kSoundnessSample && i < sample.size(); ++i) {
      checkSoundness(corpus[sample[i]], report, tally);
    }
  }
  report.note("soundness", std::to_string(tally.checked) + " checked, " +
                               std::to_string(tally.deadlock_only) +
                               " deadlock-only, " +
                               std::to_string(tally.unsupported) +
                               " unsupported");
}

/// One layer-by-layer sweep; returns its wall time in seconds.
double layerSweep(const std::vector<Program>& corpus,
                  const std::vector<std::size_t>& order,
                  const LayerConfig& config, Tracer& tracer,
                  LayerCounters& counters,
                  std::vector<LayerOutcome>* outcomes) {
  const Clock::time_point start = Clock::now();
  for (std::size_t index : order) {
    LayerOutcome o = runLayers(corpus[index].name, corpus[index].source,
                               config, tracer, index, counters);
    if (outcomes != nullptr) (*outcomes)[index] = std::move(o);
  }
  return secondsBetween(start, Clock::now());
}

void runTraced(const Args& args, bool table1,
               const std::vector<Program>& corpus,
               double gen_ms, RunReport& report) {
  LayerConfig config;
  if (table1) {
    config.analysis.witness.enabled = true;
    config.analysis.witness.replay = true;
    config.oracle = true;
  }
  const std::vector<std::size_t> order =
      seededOrder(corpus.size(), streamSeed(args.seed, "order"));

  {
    Tracer off(false);
    LayerCounters scratch;
    std::vector<std::size_t> warmup(order.begin(),
                                    order.begin() + order.size() / 10);
    (void)layerSweep(corpus, warmup, config, off, scratch, nullptr);
  }
  // Alternate untraced and traced sweeps of the same loop; the spans and
  // counters of the first traced sweep are the per-layer figures.
  Tracer spans(true);
  LayerCounters counters;
  std::vector<LayerOutcome> outcomes(corpus.size());
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  const Clock::time_point start = Clock::now();
  // A pair of sweeps that would overrun --seconds is not started.
  while (traced_s.empty() ||
         secondsBetween(start, Clock::now()) + untraced_s.back() +
                 traced_s.back() <=
             args.seconds) {
    Tracer off(false);
    LayerCounters scratch;
    untraced_s.push_back(
        layerSweep(corpus, order, config, off, scratch, nullptr));
    if (traced_s.empty()) {
      traced_s.push_back(
          layerSweep(corpus, order, config, spans, counters, &outcomes));
    } else {
      Tracer again(true);
      traced_s.push_back(
          layerSweep(corpus, order, config, again, scratch, nullptr));
    }
  }

  // Decomposition check: the benchmark's copy of the checker loop must
  // agree with the Pipeline/runProgram path on every program.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    report.attempt();
    const LayerOutcome ref =
        referenceOutcome(corpus[i].name, corpus[i].source, config);
    if (!outcomes[i].frontend_ok) {
      report.fail("traced run: " + corpus[i].name + " failed in the front end");
    } else if (!(outcomes[i] == ref)) {
      report.fail("decomposition check: " + corpus[i].name +
                  " differs from the Pipeline path (sites, PPS states, "
                  "witness verdicts or true positives)");
    }
  }

  std::map<std::string, double> v;
  v["corpus.gen_ms"] = gen_ms;
  addLayerFigures(report, spans.spans(), counters, corpus.size(), true, v);
  const double untraced = median(untraced_s);
  v["bench.trace_overhead_pct"] =
      100.0 * (median(traced_s) - untraced) / untraced;
  emitPerLayer(report, v);

  report.note("traced_sweeps", std::to_string(traced_s.size()));
  const std::string path = spanPath(args.workload);
  if (!spans.writeJsonLines(path)) report.fail("cannot write " + path);
}

}  // namespace

RunReport runBatch(const Args& args) {
  RunReport report;
  const bool table1 = args.workload == "table1";

  // Set-up is corpus generation; it is repeated and the median reported.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup_s.push_back(timeGeneration(table1));
  }
  const std::vector<Program> corpus = makeCorpus(table1);

  if (args.trace) {
    runTraced(args, table1, corpus, median(setup_s) * 1e3, report);
  } else {
    runTimed(args, table1, corpus, std::move(setup_s), report);
  }
  return report;
}

}  // namespace uafbench
