#include "layers.h"

#include <memory>

#include "src/analysis/pipeline.h"
#include "src/corpus/runner.h"
#include "src/ir/lower.h"
#include "src/parser/parser.h"
#include "src/runtime/explore.h"
#include "src/sema/sema.h"

namespace uafbench {

namespace {

/// Mirrors the checker's private test for a begin anywhere in a body.
bool irHasBegin(const cuaf::ir::Stmt& stmt) {
  if (stmt.kind == cuaf::ir::StmtKind::Begin) return true;
  for (const auto& s : stmt.body) {
    if (irHasBegin(*s)) return true;
  }
  for (const auto& s : stmt.else_body) {
    if (irHasBegin(*s)) return true;
  }
  return false;
}

WarningSite siteOf(const cuaf::UafWarning& w) {
  return {w.access_loc.line, w.access_loc.column, w.var_name};
}

}  // namespace

LayerOutcome runLayers(const std::string& name, const std::string& source,
                       const LayerConfig& config, Tracer& tracer,
                       std::uint64_t item, LayerCounters& counters) {
  SpanScope program_span(tracer, "program", item);
  LayerOutcome out;
  counters.source_bytes += source.size();

  cuaf::SourceManager sm;
  cuaf::StringInterner interner;
  cuaf::DiagnosticEngine diags;
  std::unique_ptr<cuaf::Program> program;
  {
    SpanScope s(tracer, "parser", item);
    program = cuaf::parseString(sm, interner, diags, name, source);
  }
  if (diags.hasErrors()) return out;
  std::unique_ptr<cuaf::SemaModule> sema;
  {
    SpanScope s(tracer, "sema", item);
    sema = cuaf::analyze(*program, interner, diags);
  }
  if (diags.hasErrors()) return out;
  std::unique_ptr<cuaf::ir::Module> module;
  {
    SpanScope s(tracer, "ir", item);
    module = cuaf::ir::lower(*program, *sema, diags);
  }
  if (diags.hasErrors()) return out;
  out.frontend_ok = true;

  // Option plumbing exactly as UseAfterFreeChecker::run does it.
  const cuaf::AnalysisOptions& options = config.analysis;
  cuaf::pps::Options pps_options = options.pps;
  if (options.witness.enabled) pps_options.record_trace = true;

  std::vector<cuaf::SourceLoc> warned;
  for (const auto& proc : module->procs) {
    if (proc->is_nested) continue;
    std::unique_ptr<cuaf::ccfg::Graph> graph;
    {
      SpanScope s(tracer, "ccfg", item);
      graph = cuaf::ccfg::buildGraph(*module, proc->id, diags, options.build);
    }
    const bool has_begin = graph->taskCount() > 1 || irHasBegin(*proc->body);
    counters.ccfg_nodes += graph->nodeCount();
    counters.ccfg_tasks += graph->taskCount();
    counters.pruned_tasks += graph->stats().pruned_tasks;
    if (graph->unsupported()) continue;
    if (!has_begin ||
        (graph->accessCount() == 0 &&
         !(options.pps.report_deadlocks && !graph->syncVars().empty()))) {
      continue;
    }
    cuaf::pps::Result result;
    {
      SpanScope s(tracer, "pps", item);
      result = cuaf::pps::explore(*graph, pps_options);
    }
    out.pps_states += result.states_generated;
    counters.states_generated += result.states_generated;
    counters.states_merged += result.states_merged;
    counters.por_bunches += result.por_bunches;
    if (result.state_limit_hit) ++counters.state_limit_hits;
    for (cuaf::AccessId a : result.unsafe) {
      const cuaf::ccfg::OvUse& access = graph->access(a);
      out.sites.push_back(
          {access.loc.line, access.loc.column, graph->varName(access.var)});
      warned.push_back(access.loc);
    }
    if (options.witness.enabled) {
      std::vector<cuaf::witness::Witness> witnesses;
      {
        SpanScope s(tracer, "witness", item);
        witnesses = cuaf::witness::buildWitnesses(*graph, result, program.get(),
                                                  options.witness);
      }
      for (const cuaf::witness::Witness& w : witnesses) {
        out.verdicts.push_back(static_cast<int>(w.verdict));
        ++counters.witnesses;
        if (w.verdict == cuaf::witness::Verdict::Confirmed) {
          ++counters.witnesses_confirmed;
        }
        counters.replay_steps += w.replay_steps;
      }
    }
  }

  if (config.oracle && !warned.empty()) {
    // corpus::runProgram's classification with its default budgets.
    const cuaf::corpus::RunnerOptions runner;
    cuaf::rt::ExploreOptions eo;
    eo.max_schedules = runner.oracle_max_schedules;
    eo.random_schedules = runner.oracle_random_schedules;
    cuaf::rt::ExploreResult oracle;
    {
      SpanScope s(tracer, "runtime", item);
      oracle = cuaf::rt::exploreAll(*module, *program, eo);
    }
    ++counters.oracle_runs;
    if (oracle.exhaustive) ++counters.oracle_exhaustive;
    counters.schedules_run += oracle.schedules_run;
    if (!oracle.unsupported) {
      out.warnings_classified = warned.size();
      for (cuaf::SourceLoc loc : warned) {
        if (oracle.sawUafAt(loc)) ++out.true_positives;
      }
    }
  }
  return out;
}

LayerOutcome referenceOutcome(const std::string& name,
                              const std::string& source,
                              const LayerConfig& config) {
  LayerOutcome out;
  cuaf::Pipeline pipeline(config.analysis);
  out.frontend_ok = pipeline.runSource(name, source);
  if (!out.frontend_ok) return out;
  for (const cuaf::ProcAnalysis& pa : pipeline.analysis().procs) {
    out.pps_states += pa.pps_states;
    for (const cuaf::UafWarning& w : pa.warnings) {
      out.sites.push_back(siteOf(w));
    }
    for (const cuaf::witness::Witness& w : pa.witnesses) {
      out.verdicts.push_back(static_cast<int>(w.verdict));
    }
  }
  if (config.oracle && !out.sites.empty()) {
    cuaf::corpus::RunnerOptions runner;
    runner.analysis = config.analysis;
    runner.classify_with_witness = config.analysis.witness.enabled;
    const cuaf::corpus::ProgramOutcome o =
        cuaf::corpus::runProgram(name, source, runner);
    out.true_positives = o.true_positives;
    out.warnings_classified = o.warnings_classified;
  }
  return out;
}

void addLayerFigures(RunReport& report, const std::vector<Span>& spans,
                     const LayerCounters& counters, std::size_t programs,
                     bool dynamic, std::map<std::string, double>& values) {
  const std::map<std::string, std::int64_t> self = selfTotalsNs(spans);
  std::map<std::string, std::vector<double>> per_program =
      itemDurationsUs(spans);
  auto ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  };
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  std::vector<double> pps_us = per_program["pps"];
  pps_us.resize(programs, 0.0);

  values["parser.ms"] = ms("parser");
  values["parser.p99_us"] =
      checkedPercentile(report, "parser.p99_us", per_program["parser"], 0.99);
  values["parser.kb_per_ms"] =
      ms("parser") > 0 ? count(counters.source_bytes) / 1024.0 / ms("parser")
                       : 0.0;
  values["sema.ms"] = ms("sema");
  values["ir.lower_ms"] = ms("ir");
  values["ccfg.ms"] = ms("ccfg");
  values["ccfg.nodes"] = count(counters.ccfg_nodes);
  values["ccfg.pruned_ratio"] =
      ratio(counters.pruned_tasks, counters.ccfg_tasks);
  values["pps.ms"] = ms("pps");
  values["pps.p99_us"] = checkedPercentile(report, "pps.p99_us", pps_us, 0.99);
  values["pps.states_generated"] = count(counters.states_generated);
  values["pps.states_merged"] = count(counters.states_merged);
  values["pps.por_bunches"] = count(counters.por_bunches);
  values["pps.state_limit_hits"] = count(counters.state_limit_hits);
  if (!dynamic) return;
  values["witness.ms"] = ms("witness");
  values["witness.replay_steps"] = count(counters.replay_steps);
  values["witness.confirmed_ratio"] =
      ratio(counters.witnesses_confirmed, counters.witnesses);
  values["runtime.oracle_ms"] = ms("runtime");
  values["runtime.schedules_run"] = count(counters.schedules_run);
  values["runtime.exhaustive_ratio"] =
      ratio(counters.oracle_exhaustive, counters.oracle_runs);
}

}  // namespace uafbench
