// Parsing and analysis core of dshuf_trace, factored into a library so
// tests can drive the exact code the CLI runs (tests/test_overlap.cpp
// links it the way test_lint links dshuf_lint_rules).
//
// Loads the Chrome trace-event JSON written by --trace-out (complete "X"
// spans, "s"/"t"/"f" flow events, "M" metadata), the metrics snapshot
// written by --metrics-out, and the dshuf.timeseries.v1 document written
// by --timeseries-out, structurally validating all three; computes the
// derived views the tool prints: per-span and per-track self-time, the
// exchange/compute overlap report (obs/overlap.hpp), cross-rank flow
// validation (no recv before its send), per-epoch critical paths over the
// causal DAG, and the straggler attribution report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/overlap.hpp"

namespace dshuf::tracetool {

/// One trace event. `ph` is the Chrome phase: 'X' complete span (ts +
/// dur), 's'/'t'/'f' flow send/step/finish (ts + flow id), 'M' metadata
/// (thread/process name). Only 'X' events carry a meaningful dur; only
/// flow events carry a meaningful flow_id.
struct Ev {
  std::string name;
  char ph = 'X';
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::int64_t tid = 0;
  std::uint64_t flow_id = 0;
  std::map<std::string, std::string> args;
};

/// Parse + structurally validate a Chrome trace document. Any malformed
/// input (missing traceEvents, unknown phase, missing dur on a span,
/// missing id on a flow event, negative ts/dur) fails a DSHUF_CHECK —
/// the --check CI gate relies on that.
std::vector<Ev> load_trace(const std::string& path);

/// Structurally validate a metrics snapshot; returns counter name -> value.
std::map<std::string, std::uint64_t> load_metrics(const std::string& path);

/// track id -> human name, from the trace's "thread_name" metadata
/// events ("rank 0", "rank 1", ...). Empty when the trace carries
/// no metadata.
std::map<std::int64_t, std::string> thread_names(
    const std::vector<Ev>& events);

struct SelfAgg {
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t self_us = 0;
};

/// Per-span-name totals with self-time (duration minus directly nested
/// child spans on the same track). Non-span events are ignored.
std::map<std::string, SelfAgg> self_time_by_name(std::vector<Ev> events);

/// Per-track totals: span count and self-time summed over every span on
/// the track (the per-rank utilisation rows).
std::map<std::int64_t, SelfAgg> self_time_by_track(std::vector<Ev> events);

/// Exchange/compute overlap over the loaded events (obs/overlap.hpp).
obs::OverlapReport overlap_report(const std::vector<Ev>& events);

// ------------------------------------------------------------- causality --

/// Result of validating the trace's flow events as a causal order.
struct FlowCheck {
  std::uint64_t sends = 0;
  std::uint64_t steps = 0;
  std::uint64_t finishes = 0;
  /// Human-readable violations; empty means the trace is causally sound
  /// (every finish has a matching send at ts_send <= ts_finish, every
  /// step follows its send).
  std::vector<std::string> errors;
};

/// Check that no flow finish (receive) precedes its send under the
/// trace's clock, and that steps (retransmits) only appear between a
/// send and some finish of the same flow id.
FlowCheck check_flows(const std::vector<Ev>& events);

/// One entry on a critical path: a maximal run of self-time attributed
/// to one span name on one track.
struct PathStep {
  std::string name;
  std::int64_t tid = 0;
  std::uint64_t us = 0;
};

/// Longest causal path through one epoch's span DAG (see DESIGN.md §13:
/// track edges between consecutive self-time segments, flow edges from
/// each send point to its finish's segment).
struct CriticalPath {
  std::string label;        ///< "epoch N", or "trace" when unpartitioned
  std::uint64_t wall_us = 0;  ///< group makespan (max end - min start)
  std::uint64_t path_us = 0;  ///< longest path length
  std::vector<PathStep> steps;  ///< path contributions, largest first
};

/// Stitch the (merged, multi-track) trace into one causal DAG per epoch
/// and return each epoch's longest path. Spans without an "epoch" arg are
/// assigned by containment in the epoch's per-track time window; with no
/// epoch-annotated spans at all the whole trace forms one group.
std::vector<CriticalPath> critical_paths(const std::vector<Ev>& events);

/// Fence-wait attribution for one (epoch, rank).
struct StragglerRow {
  std::string epoch;
  std::int64_t rank = 0;
  std::uint64_t fence_us = 0;
  /// Track id of the peer whose data arrived last during the fence
  /// (-1 when the fence saw no arrivals — nothing to blame).
  std::int64_t blocking_rank = -1;
  /// Retransmit ('t') events on the flows that finished on this rank.
  std::uint64_t retransmits = 0;
  /// "organic" (plain skew) or "fault" (the blocking flow needed
  /// retransmits, i.e. an injected drop/stall forced the wait).
  std::string klass;
};

/// Attribute each rank's exchange.fence wait to the peer that kept it
/// waiting. `counters` (from --metrics) is optional context: when it
/// carries no comm.fault.* activity every row is classified organic even
/// if flows retransmitted (there was nothing injected to blame).
std::vector<StragglerRow> stragglers(
    const std::vector<Ev>& events,
    const std::map<std::string, std::uint64_t>& counters);

// ------------------------------------------------------------ timeseries --

/// One validated window of a dshuf.timeseries.v1 document.
struct TsWindow {
  std::string label;
  std::uint64_t t_start_us = 0;
  std::uint64_t t_end_us = 0;
  std::size_t counters = 0;
  std::size_t gauges = 0;
  std::size_t histograms = 0;
};

/// Parse + structurally validate a dshuf.timeseries.v1 document: schema
/// tag, per-window monotone [t_start_us, t_end_us] intervals, and
/// non-decreasing p50 <= p99 <= p999 on every histogram entry.
std::vector<TsWindow> load_timeseries(const std::string& path);

}  // namespace dshuf::tracetool
