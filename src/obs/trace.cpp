#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/clock.hpp"
#include "util/ranked_mutex.hpp"

namespace dshuf::obs {

namespace {

/// Flush threshold for per-thread buffers; spans are epoch/phase-grained,
/// so this is rarely hit outside stress tests.
constexpr std::size_t kFlushAt = 4096;

std::atomic<bool> g_enabled{false};

struct TracerState {
  RankedMutex mu{LockRank::kObs, "obs.tracer"};
  std::vector<SpanEvent> flushed;
  std::vector<FlowEvent> flushed_flows;
  std::map<int, std::string> names;  // track -> thread_name label
  std::atomic<int> next_auto_track{1000};
};

TracerState& state() {
  // Leaked: thread-exit flushes may run during static destruction.
  static TracerState* s = new TracerState();
  return *s;
}

struct ThreadBuf {
  std::vector<SpanEvent> events;
  ~ThreadBuf() {
    if (!events.empty()) Tracer::instance().absorb(std::move(events));
  }
};

ThreadBuf& thread_buf() {
  thread_local ThreadBuf buf;
  return buf;
}

thread_local int t_track = -1;

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Total order over spans so exports are reproducible whatever the thread
/// flush interleaving was: ties broken by every field.
bool span_less(const SpanEvent& a, const SpanEvent& b) {
  return std::tie(a.track, a.ts_us, a.dur_us, a.name, a.attrs) <
         std::tie(b.track, b.ts_us, b.dur_us, b.name, b.attrs);
}

bool flow_less(const FlowEvent& a, const FlowEvent& b) {
  const int pa = static_cast<int>(a.phase);
  const int pb = static_cast<int>(b.phase);
  return std::tie(a.track, a.ts_us, a.id, pa, a.name, a.attrs) <
         std::tie(b.track, b.ts_us, b.id, pb, b.name, b.attrs);
}

const char* flow_ph(FlowPhase p) {
  switch (p) {
    case FlowPhase::kSend: return "s";
    case FlowPhase::kStep: return "t";
    case FlowPhase::kFinish: return "f";
  }
  return "s";
}

void append_attrs_json(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  out += ",\"args\":{";
  for (std::size_t j = 0; j < attrs.size(); ++j) {
    if (j > 0) out += ",";
    out += "\"";
    append_json_escaped(out, attrs[j].first);
    out += "\":\"";
    append_json_escaped(out, attrs[j].second);
    out += "\"";
  }
  out += "}";
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_acquire);
}

void Tracer::clear() {
  thread_buf().events.clear();
  std::lock_guard<RankedMutex> lk(state().mu);
  state().flushed.clear();
  state().flushed_flows.clear();
}

void Tracer::set_thread_track(int track) { t_track = track; }

void Tracer::set_thread_name(const std::string& name) {
  const int track = thread_track();
  std::lock_guard<RankedMutex> lk(state().mu);
  state().names[track] = name;
}

std::vector<std::pair<int, std::string>> Tracer::thread_names() {
  std::lock_guard<RankedMutex> lk(state().mu);
  return {state().names.begin(), state().names.end()};
}

int Tracer::thread_track() {
  if (t_track < 0) {
    t_track = state().next_auto_track.fetch_add(1, std::memory_order_relaxed);
  }
  return t_track;
}

void Tracer::record(SpanEvent ev) {
  auto& buf = thread_buf();
  buf.events.push_back(std::move(ev));
  if (buf.events.size() >= kFlushAt) {
    absorb(std::move(buf.events));
    buf.events.clear();
  }
}

void Tracer::record_flow(FlowEvent ev) {
  if (!enabled()) return;
  // Flows bypass the per-thread buffer: they are rare (one endpoint per
  // peer per epoch, not per sample), and a thread-local buffer would hide
  // a live thread's flows from the export until the thread exits,
  // breaking dshuf_trace --check's send-before-receive invariant.
  std::lock_guard<RankedMutex> lk(state().mu);
  state().flushed_flows.push_back(std::move(ev));
}

void Tracer::flow_point(
    const char* name, std::uint64_t id, FlowPhase phase,
    std::vector<std::pair<std::string, std::string>> attrs) {
  if (!enabled()) return;
  FlowEvent ev;
  ev.name = name;
  ev.id = id;
  ev.ts_us = obs_clock().now_us();
  ev.track = thread_track();
  ev.phase = phase;
  ev.attrs = std::move(attrs);
  record_flow(std::move(ev));
}

void Tracer::absorb(std::vector<SpanEvent>&& events) {
  std::lock_guard<RankedMutex> lk(state().mu);
  auto& flushed = state().flushed;
  flushed.insert(flushed.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

std::vector<SpanEvent> Tracer::snapshot() {
  auto& buf = thread_buf();
  if (!buf.events.empty()) {
    absorb(std::move(buf.events));
    buf.events.clear();
  }
  std::vector<SpanEvent> out;
  {
    std::lock_guard<RankedMutex> lk(state().mu);
    out = state().flushed;
  }
  std::sort(out.begin(), out.end(), span_less);
  return out;
}

std::vector<FlowEvent> Tracer::flow_snapshot() {
  std::vector<FlowEvent> out;
  {
    std::lock_guard<RankedMutex> lk(state().mu);
    out = state().flushed_flows;
  }
  std::sort(out.begin(), out.end(), flow_less);
  return out;
}

std::string Tracer::chrome_trace_json() {
  const auto events = snapshot();
  const auto flows = flow_snapshot();
  const auto names = thread_names();
  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  // Metadata first so viewers label lanes before any slice references
  // them. A trace with no registered names stays pure-"X"/flow.
  if (!names.empty()) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"dshuf\"}}";
    for (const auto& [track, name] : names) {
      sep();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
             std::to_string(track) + ",\"args\":{\"name\":\"";
      append_json_escaped(out, name);
      out += "\"}}";
    }
  }
  for (const auto& e : events) {
    sep();
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"cat\":\"dshuf\",\"ph\":\"X\",\"ts\":" +
           std::to_string(e.ts_us) + ",\"dur\":" + std::to_string(e.dur_us) +
           ",\"pid\":0,\"tid\":" + std::to_string(e.track);
    if (!e.attrs.empty()) append_attrs_json(out, e.attrs);
    out += "}";
  }
  for (const auto& f : flows) {
    sep();
    out += "{\"name\":\"";
    append_json_escaped(out, f.name);
    out += "\",\"cat\":\"dshuf.flow\",\"ph\":\"";
    out += flow_ph(f.phase);
    out += "\",\"ts\":" + std::to_string(f.ts_us) +
           ",\"pid\":0,\"tid\":" + std::to_string(f.track) +
           ",\"id\":\"" + std::to_string(f.id) + "\"";
    if (f.phase == FlowPhase::kFinish) out += ",\"bp\":\"e\"";
    if (!f.attrs.empty()) append_attrs_json(out, f.attrs);
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << chrome_trace_json();
  return out.good();
}

std::string Tracer::epoch_report_csv() {
  const auto events = snapshot();
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  // Keyed by (numeric epoch, span name); the epoch attribute is written
  // by instrumentation as a decimal integer.
  std::map<std::pair<std::uint64_t, std::string>, Agg> agg;
  for (const auto& e : events) {
    for (const auto& [k, v] : e.attrs) {
      if (k != "epoch") continue;
      std::uint64_t epoch = 0;
      bool numeric = !v.empty();
      for (const char c : v) {
        if (c < '0' || c > '9') {
          numeric = false;
          break;
        }
        epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (!numeric) break;
      auto& a = agg[{epoch, e.name}];
      ++a.count;
      a.total_us += e.dur_us;
      break;
    }
  }
  std::ostringstream out;
  out << "epoch,span,count,total_us\n";
  for (const auto& [key, a] : agg) {
    out << key.first << "," << key.second << "," << a.count << ","
        << a.total_us << "\n";
  }
  return out.str();
}

bool Tracer::write_epoch_report_csv(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << epoch_report_csv();
  return out.good();
}

SpanGuard::SpanGuard(const char* name)
    : name_(name),
      start_us_(obs_clock().now_us()),
      recording_(Tracer::instance().enabled()) {}

SpanGuard::SpanGuard(
    const char* name,
    std::initializer_list<std::pair<const char*, std::string>> attrs)
    : SpanGuard(name) {
  if (recording_) {
    for (const auto& [k, v] : attrs) attrs_.emplace_back(k, v);
  }
}

SpanGuard& SpanGuard::attr(const char* key, std::string value) {
  if (recording_ && open_) attrs_.emplace_back(key, std::move(value));
  return *this;
}

std::uint64_t SpanGuard::finish() {
  if (!open_) return dur_us_;
  open_ = false;
  const std::uint64_t end = obs_clock().now_us();
  dur_us_ = end >= start_us_ ? end - start_us_ : 0;
  if (recording_) {
    SpanEvent ev;
    ev.name = name_;
    ev.ts_us = start_us_;
    ev.dur_us = dur_us_;
    ev.track = Tracer::thread_track();
    ev.attrs = std::move(attrs_);
    Tracer::instance().record(std::move(ev));
  }
  return dur_us_;
}

}  // namespace dshuf::obs
