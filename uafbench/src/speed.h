// Host-speed gauge: a fixed reference kernel, independent of the checker,
// timed between the benchmark's measured operations.
//
// A shared virtual host runs the same code at speeds up to 2x apart for
// seconds or minutes at a time. The CPU clock stays put (a pure arithmetic
// loop varies by 3%); what moves is the memory side (caches and the
// allocator's pointer chasing, shared with other tenants), so a raw wall
// time measures the host as much as the program. The kernel does the same
// kinds of memory work as the checker, and its mean time over a stretch
// of the run, against its nominal time, gauges how much slower than
// nominal the host was there. The benchmark divides its times by the
// resulting slowdown and reports them at nominal host speed. A change to
// the checker moves its own times and not the kernel's, so it shows in
// full.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uafbench {

/// Nominal wall time of one referenceKernel() call, in seconds: about its
/// median on the 4-vCPU KVM guest the benchmark was developed on (GCC 12,
/// -O2). Reported times are at the host speed where the kernel takes this
/// long.
inline constexpr double kReferenceNominalSeconds = 600e-6;

/// How much more the measured work slows down than the kernel under the
/// same host load, as an exponent: work time ~ kernel time ^ this. The
/// checker's working set is larger than the kernel's, so it suffers more
/// from the same contention. Fitted by regressing log sweep time on log
/// mean kernel time over the sweeps of single runs (40-75 sweeps each):
/// 1.35-1.59 on table1, 1.38-1.50 on serve_mixed and 1.07 on begin_heavy
/// (9 sweeps). At 1.0 the run-to-run spread of the reported figures was
/// 2-3x wider than at 1.5.
inline constexpr double kHostSensitivity = 1.5;

/// The fixed reference work: string building and an ordered map (heap
/// allocation, pointer chasing, comparisons), a hash table, small vectors
/// and allocator churn, i.e. the kinds of work a compiler front end and an
/// explicit state search do. Returns a checksum, so that none of it is
/// optimized away.
std::uint64_t referenceKernel();

/// Runs referenceKernel() once untimed, then once timed; returns the timed
/// call's wall time in seconds.
double timeReferenceKernel();

/// The slowdown of the measured work that `kernel_seconds` indicate: the
/// mean kernel time over the nominal one, to the power kHostSensitivity.
/// 1 when empty.
[[nodiscard]] double slowdownOf(const std::vector<double>& kernel_seconds);

/// Interleaves kernel samples with measured work: after every
/// `every_seconds` of measured work it runs the kernel once, so the samples
/// see the same host as the work they scale.
class SpeedGauge {
 public:
  explicit SpeedGauge(double every_seconds) : every_(every_seconds) {}

  /// Records `seconds` of measured work; samples the kernel when due.
  void afterWork(double seconds);
  /// Samples the kernel now.
  void sample();
  /// Host slowdown over the samples since the last reset().
  [[nodiscard]] double slowdown() const { return slowdownOf(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  void reset();

 private:
  double every_;
  double since_sample_ = 0;
  std::vector<double> samples_;
};

/// Wall time of `work()` in seconds at nominal host speed, gauged by two
/// kernel samples just before it and two just after. For one-off
/// operations of a few milliseconds, such as a set-up step.
template <class Work>
double nominalSeconds(Work&& work) {
  SpeedGauge gauge(0);
  gauge.sample();
  gauge.sample();
  const auto t0 = std::chrono::steady_clock::now();
  work();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  gauge.sample();
  gauge.sample();
  return took.count() / gauge.slowdown();
}

}  // namespace uafbench
