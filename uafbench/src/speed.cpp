#include "speed.h"

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common.h"

namespace uafbench {

namespace {

/// Keeps the kernel's checksum observable.
volatile std::uint64_t g_sink = 0;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

std::uint64_t referenceKernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum = 0;

  std::map<std::string, std::uint32_t> names;
  for (std::uint32_t i = 0; i < 400; ++i) {
    std::string key = "v" + std::to_string(xorshift(x) % 997);
    key += '_';
    key += std::to_string(i % 13);
    names[key] += i;
  }
  for (const auto& [key, value] : names) sum += key.size() * value;

  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::uint32_t i = 0; i < 1500; ++i) ++table[xorshift(x) % 2048];
  for (std::uint64_t k = 0; k < 2048; ++k) {
    auto it = table.find(k);
    if (it != table.end()) sum += it->second * k;
  }

  std::vector<std::vector<std::uint32_t>> lists(64);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    lists[xorshift(x) % lists.size()].push_back(i);
  }
  for (const auto& list : lists) {
    for (std::uint32_t v : list) sum = sum * 31 + v;
  }

  // Allocator churn: blocks of 16..255 bytes freed in random order.
  std::vector<std::unique_ptr<char[]>> live(512);
  for (std::uint32_t i = 0; i < 4000; ++i) {
    std::unique_ptr<char[]>& slot = live[xorshift(x) % live.size()];
    slot = std::make_unique<char[]>(16 + xorshift(x) % 240);
    slot[0] = static_cast<char>(i);
    sum += static_cast<unsigned char>(slot[0]);
  }
  return sum;
}

double timeReferenceKernel() {
  // The untimed first call puts the kernel's own data and allocator state
  // in place, so the timed call measures the host rather than whatever
  // the measured work before it left in the caches.
  g_sink = g_sink + referenceKernel();
  const Clock::time_point t0 = Clock::now();
  g_sink = g_sink + referenceKernel();
  return secondsBetween(t0, Clock::now());
}

double slowdownOf(const std::vector<double>& kernel_seconds) {
  if (kernel_seconds.empty()) return 1.0;
  double total = 0;
  for (double s : kernel_seconds) total += s;
  const double mean = total / static_cast<double>(kernel_seconds.size());
  return std::pow(mean / kReferenceNominalSeconds, kHostSensitivity);
}

void SpeedGauge::afterWork(double seconds) {
  since_sample_ += seconds;
  if (since_sample_ >= every_) sample();
}

void SpeedGauge::sample() {
  samples_.push_back(timeReferenceKernel());
  since_sample_ = 0;
}

void SpeedGauge::reset() {
  samples_.clear();
  since_sample_ = 0;
}

}  // namespace uafbench
