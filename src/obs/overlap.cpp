#include "obs/overlap.hpp"

#include <algorithm>

namespace dshuf::obs {

namespace {

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Sorted, coalesced union of the given intervals (in place).
void coalesce(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
  });
  std::size_t out = 0;
  for (const auto& iv : v) {
    if (out > 0 && iv.begin <= v[out - 1].end) {
      v[out - 1].end = std::max(v[out - 1].end, iv.end);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

/// Length of `iv`'s intersection with the coalesced union `merged`.
std::uint64_t intersect_us(const Interval& iv,
                           const std::vector<Interval>& merged) {
  // First union interval ending after iv.begin; candidates run from there.
  auto it = std::lower_bound(
      merged.begin(), merged.end(), iv.begin,
      [](const Interval& m, std::uint64_t t) { return m.end < t; });
  std::uint64_t hidden = 0;
  for (; it != merged.end() && it->begin < iv.end; ++it) {
    const std::uint64_t lo = std::max(iv.begin, it->begin);
    const std::uint64_t hi = std::min(iv.end, it->end);
    if (hi > lo) hidden += hi - lo;
  }
  return hidden;
}

}  // namespace

bool is_exchange_span(std::string_view name) {
  return name == "exchange.epoch" || name == "sim.epoch.shuffle";
}

bool is_compute_span(std::string_view name) {
  return name == "sim.epoch.compute" || name.starts_with("compute.");
}

OverlapReport compute_overlap(std::span<const NamedSpan> spans) {
  OverlapReport report;
  std::vector<Interval> compute;
  std::vector<Interval> exchange;
  for (const auto& s : spans) {
    if (is_compute_span(s.name)) {
      ++report.compute_spans;
      compute.push_back({s.ts_us, s.ts_us + s.dur_us});
    } else if (is_exchange_span(s.name)) {
      ++report.exchange_spans;
      exchange.push_back({s.ts_us, s.ts_us + s.dur_us});
    }
  }
  coalesce(compute);
  for (const auto& iv : compute) report.compute_us += iv.end - iv.begin;
  for (const auto& iv : exchange) {
    report.exchange_us += iv.end - iv.begin;
    report.hidden_us += intersect_us(iv, compute);
  }
  return report;
}

OverlapReport compute_overlap(const std::vector<SpanEvent>& spans) {
  std::vector<NamedSpan> named;
  named.reserve(spans.size());
  for (const auto& s : spans) named.push_back({s.name, s.ts_us, s.dur_us});
  return compute_overlap(std::span<const NamedSpan>(named));
}

}  // namespace dshuf::obs
