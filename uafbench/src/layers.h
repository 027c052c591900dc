// The traced run's copy of the checker loop. It calls each layer's public
// entry point in the order UseAfterFreeChecker::run and corpus::runProgram
// do (parseString, analyze, ir::lower, ccfg::buildGraph per top-level proc,
// pps::explore, witness::buildWitnesses, rt::exploreAll), with one span
// around each call. referenceOutcome() runs the same program through the
// Pipeline/runProgram path; the two must agree (the decomposition check).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "src/analysis/checker.h"
#include "trace.h"

namespace uafbench {

struct LayerConfig {
  cuaf::AnalysisOptions analysis;
  /// Classify warned programs with the enumerating oracle, as
  /// corpus::runProgram does (its default schedule budgets).
  bool oracle = false;
};

struct WarningSite {
  std::uint32_t line = 0;
  std::uint32_t column = 0;
  std::string variable;

  friend bool operator==(const WarningSite&, const WarningSite&) = default;
};

/// What the decomposition check compares, per program.
struct LayerOutcome {
  bool frontend_ok = false;
  std::vector<WarningSite> sites;
  std::vector<int> verdicts;  ///< witness::Verdict per warning
  std::size_t pps_states = 0;
  std::size_t true_positives = 0;
  std::size_t warnings_classified = 0;

  friend bool operator==(const LayerOutcome&, const LayerOutcome&) = default;
};

/// Work counted at the layer boundaries, summed over programs.
struct LayerCounters {
  std::size_t source_bytes = 0;
  std::size_t ccfg_nodes = 0;
  std::size_t ccfg_tasks = 0;
  std::size_t pruned_tasks = 0;
  std::size_t states_generated = 0;
  std::size_t states_merged = 0;
  std::size_t por_bunches = 0;
  std::size_t state_limit_hits = 0;
  std::size_t witnesses = 0;
  std::size_t witnesses_confirmed = 0;
  std::size_t replay_steps = 0;
  std::size_t oracle_runs = 0;
  std::size_t oracle_exhaustive = 0;
  std::size_t schedules_run = 0;
};

/// Runs one program layer by layer under a "program" span with child
/// spans "parser", "sema", "ir", "ccfg", "pps", "witness" and "runtime".
LayerOutcome runLayers(const std::string& name, const std::string& source,
                       const LayerConfig& config, Tracer& tracer,
                       std::uint64_t item, LayerCounters& counters);

/// The same program through Pipeline::runSource (sites, PPS states,
/// witness verdicts) and, with the oracle on, corpus::runProgram (true
/// positives).
LayerOutcome referenceOutcome(const std::string& name,
                              const std::string& source,
                              const LayerConfig& config);

/// Per-layer figures of one traced pass over `programs` programs: self
/// time per layer, per-program p99s of parser and PPS time (a program
/// without PPS spent 0 there) and the counters. `dynamic` adds the witness
/// and oracle layers.
void addLayerFigures(RunReport& report, const std::vector<Span>& spans,
                     const LayerCounters& counters, std::size_t programs,
                     bool dynamic, std::map<std::string, double>& values);

}  // namespace uafbench
