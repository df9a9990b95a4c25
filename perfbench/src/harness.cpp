#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

struct CallInfo {
  const char* name;   // span name and metric stem
  std::size_t layer;  // index into kLayers
  bool span;          // per-sample calls are tallied without a span
};

constexpr const char* kLayers[] = {"comm", "nn", "data", "shuffle", "io"};
constexpr std::size_t kComm = 0, kNn = 1, kData = 2, kShuffle = 3, kIo = 4;
constexpr std::size_t kLayerCount = std::size(kLayers);

constexpr std::array<CallInfo, kCalls> kCallInfo = {{
    {"comm.allreduce", kComm, true},
    {"nn.forward", kNn, true},
    {"nn.backward", kNn, true},
    {"nn.optimizer", kNn, true},
    {"data.wait", kData, true},
    {"data.loader_start", kData, true},
    {"shuffle.exchange", kShuffle, true},
    {"shuffle.local_shuffle", kShuffle, true},
    {"io.read", kIo, false},
    {"io.write", kIo, false},
    {"io.clean", kIo, true},
    {"io.reclaim", kIo, true},
}};

// io.read / io.write run inside the exchange's payload and deposit
// callbacks, so their time is the exchange's child time, not its own.
bool nested_in_exchange(Call c) {
  return c == Call::kIoRead || c == Call::kIoWrite;
}

std::size_t idx(Call c) { return static_cast<std::size_t>(c); }

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t timed_units(const Options& opt, double per_second,
                        std::size_t min_units) {
  const auto n = static_cast<std::size_t>(std::lround(opt.seconds * per_second));
  return std::max(min_units, n);
}

double total(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  DSHUF_CHECK(!v.empty(), "quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h * 0xBF58476D1CE4E5B9ULL;
}

Stopwatch::Stopwatch() : wall0_(now_ns()), cpu0_(cpu_ns()) {}

UnitCost Stopwatch::stop() const {
  return {now_ns() - wall0_, cpu_ns() - cpu0_};
}

Timed::Timed(Probe& probe, Call call)
    : probe_(probe.on ? &probe : nullptr), call_(call) {
  if (probe_ == nullptr) return;
  if (kCallInfo[idx(call)].span) span_.emplace(kCallInfo[idx(call)].name);
  t0_ = now_ns();
}

Timed::~Timed() {
  if (probe_ == nullptr) return;
  probe_->add(call_, now_ns() - t0_);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0;
  }
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& what) { failures_.push_back(what); }

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << '"' << escape(failures_[i]) << '"';
  }
  os << "], \"absent\": [";
  for (std::size_t i = 0; i < absent_.size(); ++i) {
    os << (i ? ", " : "") << '"' << absent_[i] << '"';
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    os << (i ? ", " : "") << '"' << name << "\": {\"value\": "
       << fmt_number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  return os.str();
}

void report_setup(Report& rep, const std::vector<SetupTimes>& setups) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(field(s));
    return median(std::move(v));
  };
  rep.metric("setup_s", med([](const SetupTimes& s) { return s.total_s(); }),
             "s");
  rep.metric("setup.dataset_ms",
             med([](const SetupTimes& s) { return s.dataset_ms; }), "ms");
  rep.metric("setup.store_fill_ms",
             med([](const SetupTimes& s) { return s.store_fill_ms; }), "ms");
  rep.metric("setup.world_ms",
             med([](const SetupTimes& s) { return s.world_ms; }), "ms");
  rep.metric("setup.warmup_ms",
             med([](const SetupTimes& s) { return s.warmup_ms; }), "ms");
}

void LayerTimes::add_epoch(std::span<const Probe* const> ranks,
                           std::uint64_t wall_ns) {
  if (self_ms_.empty()) self_ms_.assign(kLayerCount, 0.0);
  const auto n = static_cast<double>(ranks.size());
  std::uint64_t exchange_max = 0;
  for (const Probe* p : ranks) {
    std::uint64_t covered = 0;
    for (std::size_t c = 0; c < kCalls; ++c) {
      const auto call = static_cast<Call>(c);
      ns_[c] += p->ns(call);
      calls_[c] += p->calls(call);
      const double ms = to_ms(p->ns(call)) / n;
      self_ms_[kCallInfo[c].layer] += ms;
      if (nested_in_exchange(call)) {
        self_ms_[kShuffle] -= ms;
      } else {
        covered += p->ns(call);
      }
    }
    exchange_max = std::max(exchange_max, p->ns(Call::kExchange));
    unattributed_ms_ += (to_ms(wall_ns) - to_ms(covered)) / n;
  }
  exchange_slowest_ms_ += to_ms(exchange_max);
  wall_ms_ += to_ms(wall_ns);
  ++epochs_;
}

void LayerTimes::report(Report& rep) const {
  if (epochs_ == 0) return;
  // Only calls the workload made are reported: a probe that silently
  // stopped timing leaves its metric missing, which run.py rejects.
  const auto e = static_cast<double>(epochs_);
  std::array<bool, kLayerCount> used{};
  for (std::size_t c = 0; c < kCalls; ++c) {
    if (calls_[c] == 0) continue;
    used[kCallInfo[c].layer] = true;
    const double ms = to_ms(ns_[c]) / static_cast<double>(calls_[c]);
    const auto call = static_cast<Call>(c);
    const std::string name = kCallInfo[c].name;
    if (call == Call::kExchange) {
      rep.metric(name + "_ms", exchange_slowest_ms_ / e, "ms");
    } else if (nested_in_exchange(call)) {
      rep.metric(name + "_us", ms * 1e3, "us");
    } else {
      rep.metric(name + "_ms", ms, "ms");
    }
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (used[l]) {
      rep.metric(std::string(kLayers[l]) + ".self_ms", self_ms_[l] / e, "ms");
    }
  }
  rep.metric("epoch.unattributed_ms", unattributed_ms_ / e, "ms");
  rep.metric("epoch.unattributed_share", unattributed_ms_ / wall_ms_,
             "fraction");
}

void report_trace_overhead(Report& rep, const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms) {
  const double u_mean =
      total(untraced_ms) / static_cast<double>(untraced_ms.size());
  const double t_mean =
      total(traced_ms) / static_cast<double>(traced_ms.size());
  rep.metric("obs.trace_overhead", t_mean / u_mean - 1.0, "fraction");
}

void print_schedule(const Options& opt, const std::vector<SetupTimes>& setups,
                    const UnitTimes& t) {
  std::printf("%s seed %llu: %zu timed units, ms mean %.2f p10 %.2f p50 %.2f "
              "p90 %.2f max %.2f; cpu ms mean %.2f\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              t.all.size(), total(t.all) / static_cast<double>(t.all.size()),
              quantile(t.all, 0.1), quantile(t.all, 0.5), quantile(t.all, 0.9),
              quantile(t.all, 1.0),
              t.untraced_cpu_ms / static_cast<double>(t.untraced.size()));
  for (const auto& s : setups) {
    std::printf("  set-up %.1f ms: dataset %.1f store fill %.1f world %.1f "
                "warm-up %.1f\n",
                s.total_s() * 1e3, s.dataset_ms, s.store_fill_ms, s.world_ms,
                s.warmup_ms);
  }
}

void report_end_to_end(Report& rep, const std::vector<double>& epoch_ms,
                       double samples, const UnitTimes& t) {
  rep.metric("samples_per_cpu_s", samples / (t.untraced_cpu_ms * 1e-3),
             "1/cpu_s");
  rep.metric("samples_per_s", samples / (total(t.untraced) * 1e-3), "1/s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.metric("epoch.ms_p10", quantile(epoch_ms, 0.1), "ms");
  rep.metric("epoch.ms_p50", median(epoch_ms), "ms");
  rep.metric("epoch.ms_p90", quantile(epoch_ms, 0.9), "ms");
  rep.metric("epoch.count", static_cast<double>(epoch_ms.size()), "count");
}

void report_pool(Report& rep) {
  const auto bytes =
      dshuf::obs::Registry::instance().gauge("comm.pool.bytes").value();
  rep.metric("comm.pool_mb", static_cast<double>(bytes) / (1 << 20), "MiB");
}

void write_trace(const Options& opt, Report& rep) {
  const std::string path = (opt.work_dir / "trace.json").string();
  if (!dshuf::obs::Tracer::instance().write_chrome_trace(path)) {
    rep.fail("could not write " + path);
  }
}

}  // namespace perfbench
