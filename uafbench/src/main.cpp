// uafbench: the repository benchmark program (see ../README.md).
//
//   uafbench --workload table1|begin_heavy|serve_mixed --seed N
//            --seconds S --trace 0|1 [--serve-binary PATH]
//
// Run from the checkout root: scratch files go to .bench_tmp/, spans of
// traced runs to .bench_out/.
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// record: correct/attempted/failed, the metrics by name and unit, the
// first failures, gate notes and the build provenance. Exits 0 when every
// correctness gate passed, 1 when one failed, 2 on bad usage and 3 when
// the build is not an optimized, sanitizer-free one (nothing is reported).
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "common.h"
#include "src/support/json.h"
#include "src/support/rng.h"

#ifndef UAFBENCH_BUILD_TYPE
#define UAFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef UAFBENCH_CXX_ID
#define UAFBENCH_CXX_ID "unknown"
#endif
#ifndef UAFBENCH_CXX_FLAGS
#define UAFBENCH_CXX_FLAGS ""
#endif

namespace uafbench {

void RunReport::fail(const std::string& message) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(message);
}

void RunReport::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void emitPerLayer(RunReport& report,
                  const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricSpec& m : kPerLayerMetrics) known |= name == m.name;
    if (!known) report.fail("unknown per-layer metric " + name);
  }
  for (const LayerMetricSpec& m : kPerLayerMetrics) {
    auto it = values.find(m.name);
    report.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

double checkedPercentile(RunReport& report, const std::string& name,
                       std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  std::optional<double> value = percentile(std::move(samples), q);
  if (!value) {
    report.fail("percentile " + name + " refused: " + std::to_string(n) +
                " samples leave fewer than 10 beyond it");
  }
  return value.value_or(0.0);
}

void RunReport::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

std::optional<double> peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nullopt;
}

std::string joined(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += (out.empty() ? "" : " ") + std::to_string(v);
  }
  return out;
}

std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  cuaf::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::uint64_t streamSeed(std::uint64_t seed, const char* label) {
  // FNV-1a over the label, folded into a splitmix64 step of the seed.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = label; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull + h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace uafbench

namespace {

using uafbench::Args;
using uafbench::RunReport;

const char* sanitizerInBuild() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  if (std::strstr(UAFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "flags";
  }
  return "none";
#endif
}

bool optimizedBuild() {
#if defined(__OPTIMIZE__)
  const std::string_view type = UAFBENCH_BUILD_TYPE;
  return type == "RelWithDebInfo" || type == "Release";
#else
  return false;
#endif
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + cuaf::jsonEscape(s) + "\"";
}

std::string renderRecord(const Args& args, const RunReport& report) {
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted());
  out += ",\"failed\":" + std::to_string(report.failed());
  out += ",\"metrics\":{";
  bool first = true;
  for (const uafbench::Metric& m : report.metrics()) {
    if (!first) out += ',';
    first = false;
    out += quoted(m.name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  out += "},\"failures\":[";
  first = true;
  for (const std::string& f : report.failures()) {
    if (!first) out += ',';
    first = false;
    out += quoted(f);
  }
  out += "],\"notes\":{";
  first = true;
  for (const auto& [key, value] : report.notes()) {
    if (!first) out += ',';
    first = false;
    out += quoted(key) + ":" + quoted(value);
  }
  out += "},\"provenance\":{";
  out += "\"workload\":" + quoted(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"corpus_seed\":" +
         std::to_string(uafbench::kRecordedCorpusSeed);
  out += ",\"seconds\":" + std::to_string(args.seconds);
  out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  out += ",\"build_type\":" + quoted(UAFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + quoted(UAFBENCH_CXX_ID);
  out += ",\"cxx_flags\":" + quoted(UAFBENCH_CXX_FLAGS);
  out += ",\"sanitizer\":" + quoted(sanitizerInBuild());
  out += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += "}}";
  return out;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "uafbench: %s\nusage: uafbench --workload "
               "table1|begin_heavy|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--serve-binary PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--serve-binary") {
      args.serve_binary = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (args.seconds < 1 || args.seconds > 600) {
    return usage("--seconds must be 1..600");
  }
  if (std::strcmp(sanitizerInBuild(), "none") != 0 || !optimizedBuild()) {
    std::fprintf(stderr,
                 "uafbench: refusing to report from a %s build with "
                 "sanitizer '%s'; build RelWithDebInfo without sanitizers\n",
                 UAFBENCH_BUILD_TYPE, sanitizerInBuild());
    return 3;
  }
  ::mkdir(uafbench::kWorkDir, 0755);
  ::mkdir(uafbench::kOutDir, 0755);

  RunReport report;
  try {
    if (args.workload == "table1" || args.workload == "begin_heavy") {
      report = uafbench::runBatch(args);
    } else if (args.workload == "serve_mixed") {
      if (args.serve_binary.empty()) return usage("--serve-binary required");
      report = uafbench::runServe(args);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "uafbench: FAIL %s\n", f.c_str());
  }
  std::printf("%s\n", renderRecord(args, report).c_str());
  std::fflush(stdout);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
