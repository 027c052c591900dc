#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace uafbench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::open(const char* name, std::uint64_t item) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.item = item;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = nowNs();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
  // Spans close innermost first (SpanScope guarantees it); pop through
  // `index` so a mismatched close cannot leave stale parents behind.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

bool Tracer::writeJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"item\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.item), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (auto [start, end] : kids) {
      start = std::max(start, s.start_ns);
      end = std::min(end, s.end_ns);
      if (end <= start) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = s.durationNs() - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> selfTotalsNs(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> self = selfTimesNs(spans);
  std::map<std::string, std::int64_t> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += self[i];
  }
  return totals;
}

std::map<std::string, std::vector<double>> itemDurationsUs(
    const std::vector<Span>& spans) {
  std::map<std::string, std::map<std::uint64_t, std::int64_t>> sums;
  for (const Span& s : spans) sums[s.name][s.item] += s.durationNs();
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, per_item] : sums) {
    std::vector<double>& v = out[name];
    v.reserve(per_item.size());
    for (const auto& [item, ns] : per_item) {
      v.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  return out;
}

}  // namespace uafbench
