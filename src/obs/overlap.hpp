// Exchange/compute overlap metric over a recorded trace.
//
// The paper's position is that shuffling cost must be judged against how
// much of it HIDES under training compute. This module turns a span list
// into that number:
//
//   * exchange spans — "exchange.epoch" (split-phase exchange, open from
//     post to finish) and "sim.epoch.shuffle" (the sequential shuffle
//     step);
//   * compute spans — "sim.epoch.compute" and anything under the
//     "compute." prefix (e.g. the overlap driver's "compute.batch").
//
// hidden_us is the sum, over exchange spans, of each span's intersection
// with the UNION of all compute intervals (wall-clock; tracks are
// irrelevant — an exchange hidden under another rank's compute is still
// hidden from the critical path). efficiency() = hidden / exchange: 0 for
// a strictly sequential schedule, approaching 1 when the exchange's whole
// in-flight window sits under compute. The span taxonomies never nest an
// exchange span inside another exchange span in any dshuf driver, so the
// per-span sum does not double count.
//
// tools/dshuf_trace prints this as the overlap report (and gates on it
// with --min-overlap); tests/test_overlap.cpp pins the arithmetic on
// hand-built golden traces.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace dshuf::obs {

/// Minimal span shape the metric needs — lets the trace tool feed spans
/// parsed from JSON without materialising SpanEvents.
struct NamedSpan {
  std::string_view name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

struct OverlapReport {
  std::uint64_t exchange_us = 0;  ///< summed exchange span time
  std::uint64_t hidden_us = 0;    ///< exchange time under the compute union
  std::uint64_t compute_us = 0;   ///< compute union length
  std::size_t exchange_spans = 0;
  std::size_t compute_spans = 0;

  /// Fraction of exchange time hidden under compute. Reported as 1.0 when
  /// there was no exchange at all (nothing to hide).
  [[nodiscard]] double efficiency() const {
    return exchange_us == 0
               ? 1.0
               : static_cast<double>(hidden_us) /
                     static_cast<double>(exchange_us);
  }
};

[[nodiscard]] bool is_exchange_span(std::string_view name);
[[nodiscard]] bool is_compute_span(std::string_view name);

[[nodiscard]] OverlapReport compute_overlap(std::span<const NamedSpan> spans);

/// Convenience over Tracer::snapshot() output.
[[nodiscard]] OverlapReport compute_overlap(
    const std::vector<SpanEvent>& spans);

}  // namespace dshuf::obs
