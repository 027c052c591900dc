// Tests of the benchmark's own helpers: percentile selection, span self
// time, the median of repeated figures and the host-speed gauge.
// Run: python3 uafbench/run.py --test
#include <cmath>
#include <cstdio>
#include <vector>

#include "speed.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentileRefusesThinTails() {
  using uafbench::percentile;
  // p99 of 1000 samples is the 990th; exactly ten samples lie beyond it.
  CHECK(percentile(ramp(1000), 0.99) == 990.0);
  CHECK(!percentile(ramp(999), 0.99).has_value());
  CHECK(!percentile(ramp(100), 0.99).has_value());
  // The median needs ten beyond it too.
  CHECK(percentile(ramp(20), 0.5) == 10.0);
  CHECK(!percentile(ramp(19), 0.5).has_value());
  CHECK(!percentile({}, 0.5).has_value());
  CHECK(!percentile(ramp(100), 1.0).has_value());
  CHECK(uafbench::median({3, 1, 2}) == 2.0);
  CHECK(uafbench::median({4, 1, 2, 3}) == 2.5);
}

uafbench::Span span(const char* name, int parent, long start, long end) {
  uafbench::Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void selfTimeSubtractsDirectChildrenOnce() {
  std::vector<uafbench::Span> spans = {
      span("program", -1, 0, 100),  // 0
      span("parser", 0, 10, 30),    // 1
      span("pps", 0, 20, 50),       // 2: overlaps 1; the union is 10..50
      span("inner", 2, 25, 35),     // 3: grandchild of 0
      span("late", 0, 90, 120),     // 4: clipped to the parent's end
  };
  const std::vector<std::int64_t> self = uafbench::selfTimesNs(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20);
  CHECK(self[2] == 30 - 10);
  CHECK(self[3] == 10);
  CHECK(self[4] == 30);
  const auto totals = uafbench::selfTotalsNs(spans);
  CHECK(totals.at("program") == 50);
  CHECK(totals.at("pps") == 20);
}

void tracerNestsByCallOrder() {
  uafbench::Tracer tracer(true);
  {
    uafbench::SpanScope outer(tracer, "request", 7);
    { uafbench::SpanScope a(tracer, "decode", 7); }
    { uafbench::SpanScope b(tracer, "encode", 7); }
  }
  { uafbench::SpanScope next(tracer, "request", 8); }
  const auto& spans = tracer.spans();
  CHECK(spans.size() == 4);
  CHECK(spans[0].parent == -1);
  CHECK(spans[1].parent == 0);
  CHECK(spans[2].parent == 0);
  CHECK(spans[3].parent == -1);
  CHECK(spans[3].item == 8);
  for (const auto& s : spans) CHECK(s.end_ns >= s.start_ns);

  uafbench::Tracer off(false);
  { uafbench::SpanScope s(off, "request", 1); }
  CHECK(off.spans().empty());
}

void medianOfRepeatedFigures() {
  CHECK(uafbench::median({}) == 0.0);
  CHECK(uafbench::median({3, 1, 2}) == 2.0);
  CHECK(uafbench::median({4, 1, 3, 2}) == 2.5);
}

void slowdownScalesByTheKernelsMeanTime() {
  using uafbench::kReferenceNominalSeconds;
  using uafbench::slowdownOf;
  CHECK(slowdownOf({}) == 1.0);
  const double nominal = kReferenceNominalSeconds;
  CHECK(std::fabs(slowdownOf({nominal, nominal}) - 1.0) < 1e-12);
  // The mean, not the median: a kernel sample slowed down by a stall
  // stands for the measured work stalled beside it.
  const double mean = (3 * nominal + 5 * nominal) / 2;
  CHECK(std::fabs(slowdownOf({3 * nominal, 5 * nominal}) -
                  std::pow(mean / nominal, uafbench::kHostSensitivity)) <
        1e-12);
  CHECK(slowdownOf({2 * nominal}) > 2.0);
  CHECK(slowdownOf({nominal / 2}) < 1.0);
}

void gaugeSamplesAfterEnoughWork() {
  uafbench::SpeedGauge gauge(1.0);
  CHECK(gauge.samples() == 0);
  CHECK(gauge.slowdown() == 1.0);
  gauge.afterWork(0.4);
  CHECK(gauge.samples() == 0);
  gauge.afterWork(0.7);
  CHECK(gauge.samples() == 1);
  gauge.afterWork(0.5);
  CHECK(gauge.samples() == 1);
  CHECK(gauge.slowdown() > 0.0);
  gauge.reset();
  CHECK(gauge.samples() == 0);
  CHECK(uafbench::nominalSeconds([] {}) >= 0.0);
}

}  // namespace

int main() {
  percentileRefusesThinTails();
  selfTimeSubtractsDirectChildrenOnce();
  tracerNestsByCallOrder();
  medianOfRepeatedFigures();
  slowdownScalesByTheKernelsMeanTime();
  gaugeSamplesAfterEnoughWork();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("uafbench helper tests passed\n");
  return 0;
}
