// RAII span tracer with Chrome trace-event export.
//
// A span measures one named region of one thread:
//
//   {
//     DSHUF_SPAN("exchange.epoch", {{"epoch", std::to_string(epoch)}});
//     ... work ...
//   }  // span recorded on scope exit
//
// or, when the guard needs attributes computed inside the region:
//
//   obs::SpanGuard span("exchange.fence");
//   ... work ...
//   span.attr("strays", std::to_string(n));
//   const std::uint64_t dur_us = span.finish();
//
// Design points (DESIGN.md §9):
//
//   * Recording is OFF by default; SpanGuard still measures (two clock
//     reads) so callers can use finish() as a timer, but nothing is
//     stored until Tracer::set_enabled(true).
//   * Completed spans append to a per-thread buffer (no lock); buffers
//     flush into the tracer under LockRank::kObs when they grow large
//     and when the owning thread exits. snapshot() therefore sees every
//     span of joined threads and of the calling thread — export after
//     World::run has joined its rank threads. Flow points skip the
//     buffer entirely and land in the shared store as they are recorded.
//   * Timestamps come from obs_clock() (obs/clock.hpp): steady_clock in
//     production, a VirtualClock in determinism tests, which together
//     with the deterministic snapshot ordering makes trace exports
//     byte-identical across runs of a seeded scenario.
//   * Rank threads label themselves with set_thread_track(rank); tracks
//     become Chrome trace tids, so Perfetto shows one lane per rank.
//
// Cross-rank causality (DESIGN.md §13): besides spans, the tracer records
// flow points — the send/step/finish endpoints of one logical message
// identified by a shared 64-bit id. The exchange derives the id purely
// from (epoch, origin, destination/round), carries it in the coalesced
// frame header, and re-derives it from the tag namespace on the
// per-sample wire, so a merged multi-rank trace draws an arrow from every
// send to its matching receive (retransmits become "step" points on the
// same arrow). Threads may also label themselves with a human-readable
// name; names become Chrome thread_name metadata events.
//
// Export formats: Chrome trace-event JSON ("X" complete events, "s"/"t"/
// "f" flow events, "M" thread/process-name metadata — load the file at
// ui.perfetto.dev or chrome://tracing) and a compact per-epoch CSV
// aggregating spans that carry an "epoch" attribute.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace dshuf::obs {

/// One completed span. `track` maps to the Chrome trace tid.
struct SpanEvent {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  int track = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Which endpoint of a logical message a flow point marks: the original
/// send ("s"), a retransmission of the same bytes ("t"), or the receive
/// that consumed it ("f").
enum class FlowPhase { kSend, kStep, kFinish };

/// One flow point. Points sharing an `id` form one arrow in the Chrome
/// trace; the id must be a pure function of seeded protocol state
/// (epoch/origin/destination), never of timing, so golden traces stay
/// byte-identical.
struct FlowEvent {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t ts_us = 0;
  int track = 0;
  FlowPhase phase = FlowPhase::kSend;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer {
 public:
  /// The process-wide tracer (leaked at exit, like the registry).
  static Tracer& instance();

  /// Recording toggle; cheap atomic read on the span path.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Drop every recorded span and flow point (calling thread's buffers
  /// included). Thread-name labels persist: they describe threads, not
  /// recorded data.
  void clear();

  /// Label the calling thread's spans with `track` (Chrome trace tid).
  /// Rank threads pass their rank; unlabelled threads get stable
  /// arbitrary ids >= 1000 in first-use order.
  static void set_thread_track(int track);
  [[nodiscard]] static int thread_track();

  /// Name the calling thread's track; exported as a Chrome thread_name
  /// metadata event. Re-registering the same track overwrites.
  static void set_thread_name(const std::string& name);

  /// (track, name) labels registered so far, sorted by track.
  [[nodiscard]] std::vector<std::pair<int, std::string>> thread_names();

  /// Append one completed span to the calling thread's buffer.
  void record(SpanEvent ev);

  /// Record one flow point directly into the shared store (no-op when
  /// recording is disabled). Unlike spans, flows skip the per-thread
  /// buffer: they are rare, and a snapshot taken while the recording
  /// thread is still alive sees them.
  void record_flow(FlowEvent ev);

  /// Convenience: record a flow point on the calling thread's track at
  /// the current obs_clock() time.
  void flow_point(const char* name, std::uint64_t id, FlowPhase phase,
                  std::vector<std::pair<std::string, std::string>> attrs = {});

  /// Flush the calling thread's buffer and return every span recorded by
  /// this thread and by threads that have exited, in a deterministic
  /// order (sorted by track, start, duration, name, attributes).
  [[nodiscard]] std::vector<SpanEvent> snapshot();

  /// Flow-point counterpart of snapshot(), sorted by (track, ts, id,
  /// phase, name, attributes).
  [[nodiscard]] std::vector<FlowEvent> flow_snapshot();

  /// Chrome trace-event JSON document over snapshot(): thread/process
  /// name metadata first (only when any thread registered a name), then
  /// "X" spans, then "s"/"t"/"f" flow events.
  [[nodiscard]] std::string chrome_trace_json();
  bool write_chrome_trace(const std::string& path);

  /// Compact per-epoch report: `epoch,span,count,total_us` rows over the
  /// spans carrying an "epoch" attribute, sorted by (epoch, span).
  [[nodiscard]] std::string epoch_report_csv();
  bool write_epoch_report_csv(const std::string& path);

  // Internal: move a dying thread's buffer into the flushed store.
  void absorb(std::vector<SpanEvent>&& events);

 private:
  Tracer() = default;
};

/// RAII span. Always measures (start captured at construction); records
/// into the tracer only if recording was enabled when constructed.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  SpanGuard(const char* name,
            std::initializer_list<std::pair<const char*, std::string>> attrs);
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { finish(); }

  /// Attach a key/value attribute (no-op when not recording).
  SpanGuard& attr(const char* key, std::string value);

  /// Close the span now (idempotent): records it if enabled and returns
  /// the measured duration in microseconds.
  std::uint64_t finish();

 private:
  const char* name_;
  std::uint64_t start_us_;
  std::uint64_t dur_us_ = 0;
  bool recording_;
  bool open_ = true;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

}  // namespace dshuf::obs

#define DSHUF_OBS_CONCAT_INNER(a, b) a##b
#define DSHUF_OBS_CONCAT(a, b) DSHUF_OBS_CONCAT_INNER(a, b)
/// Scope-level span: DSHUF_SPAN("name") or
/// DSHUF_SPAN("name", {{"key", value}, ...}).
#define DSHUF_SPAN(...)            \
  ::dshuf::obs::SpanGuard DSHUF_OBS_CONCAT(dshuf_span_guard_, \
                                           __LINE__)(__VA_ARGS__)
