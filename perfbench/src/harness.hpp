// Shared plumbing for the benchmark workloads: run options, the result
// record printed as the last line of output, wall-clock helpers, and the
// per-layer probes of the traced mode.
//
// Every workload follows one shape:
//
//   set-up (repeated several times; the last one is kept)
//     -> a fixed number of timed units (epochs, or whole experiments)
//     -> correctness checks -> metrics.
//
// The unit count is derived from --seconds by a per-workload rate that is
// a constant, never a measurement, so every exact metric (peak occupancy,
// message counts, the final loss) is a pure function of (seed, seconds).
//
// Untraced runs time whole units only, in wall and process CPU time.
// Traced runs alternate untraced and traced units: traced units switch the
// obs tracer on and time each of the benchmark's own calls into a layer
// through a Probe, which records one span per call named after its metric
// and tallies its wall time; the untraced units of the same process give
// obs.trace_overhead.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the determinism self-test.
  bool small = false;
  /// Working directory for stores and the trace file.
  std::filesystem::path work_dir;
};

/// Steady-clock nanoseconds.
std::uint64_t now_ns();
/// User plus system CPU time of this process, all threads, ns.
std::uint64_t cpu_ns();
inline double to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Wall and process CPU time of one timed unit.
struct UnitCost {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
};

/// Times one unit from its construction to stop().
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] UnitCost stop() const;

 private:
  std::uint64_t wall0_;
  std::uint64_t cpu0_;
};

/// Timed units for a run: `per_second` units per second of --seconds, and
/// at least `min_units`.
std::size_t timed_units(const Options& opt, double per_second,
                        std::size_t min_units);

double total(const std::vector<double>& v);
double median(std::vector<double> v);
/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Peak resident set of this process so far, MiB.
double peak_rss_mb();
/// Order-sensitive 64-bit mix for shard digests.
std::uint64_t mix(std::uint64_t h, std::uint64_t v);

/// Benchmark-side calls into a layer, one probe slot each.
enum class Call : std::size_t {
  kAllreduce,
  kForward,
  kBackward,
  kOptimizer,
  kDataWait,
  kLoaderStart,
  kExchange,
  kLocalShuffle,
  kIoRead,
  kIoWrite,
  kIoClean,
  kIoReclaim,
  kCount,
};
inline constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);

/// Per-thread tally of benchmark-side calls. `on` is set only for traced
/// units; off, Timed does nothing.
class Probe {
 public:
  bool on = false;
  void add(Call c, std::uint64_t ns) {
    ns_[idx(c)] += ns;
    ++calls_[idx(c)];
  }
  [[nodiscard]] std::uint64_t ns(Call c) const { return ns_[idx(c)]; }
  [[nodiscard]] std::uint64_t calls(Call c) const { return calls_[idx(c)]; }
  void clear() {
    ns_.fill(0);
    calls_.fill(0);
  }

 private:
  static std::size_t idx(Call c) { return static_cast<std::size_t>(c); }
  std::array<std::uint64_t, kCalls> ns_{};
  std::array<std::uint64_t, kCalls> calls_{};
};

/// Times one call into a layer: a span named after the call (io.read and
/// io.write are per-sample and only tallied) plus the probe tally.
class Timed {
 public:
  Timed(Probe& probe, Call call);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Probe* probe_;
  Call call_;
  std::uint64_t t0_ = 0;
  std::optional<dshuf::obs::SpanGuard> span_;
};

/// The result record: exactly one JSON object on the last output line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check; the run then reports correct=false.
  void fail(const std::string& what);
  /// Epoch accounting for attempted / failed.
  void epoch(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Names per-layer metrics this workload cannot measure because it makes
  /// no benchmark-side call there: a layer ("netsim") or a single metric
  /// ("comm.allreduce_ms"). run.py reports them as 0 in BENCHMARK.json's
  /// unit and rejects a per-layer metric that is neither measured nor named.
  void absent(std::initializer_list<const char*> names) {
    absent_.insert(absent_.end(), names.begin(), names.end());
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> absent_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Set-up phases; setup_s and setup.* are medians over the set-ups.
struct SetupTimes {
  double dataset_ms = 0;
  double store_fill_ms = 0;
  double world_ms = 0;
  double warmup_ms = 0;
  [[nodiscard]] double total_s() const {
    return (dataset_ms + store_fill_ms + world_ms + warmup_ms) * 1e-3;
  }
};
void report_setup(Report& rep, const std::vector<SetupTimes>& setups);

/// Aggregates the traced units' probes into the per-layer metrics: per-call
/// means, the slowest rank's exchange, each layer's self time per epoch and
/// the per-epoch remainder no benchmark-side call covers.
class LayerTimes {
 public:
  /// One traced epoch: every rank's probe and the epoch's wall time.
  void add_epoch(std::span<const Probe* const> ranks, std::uint64_t wall_ns);
  void report(Report& rep) const;

 private:
  std::array<std::uint64_t, kCalls> ns_{};
  std::array<std::uint64_t, kCalls> calls_{};
  double exchange_slowest_ms_ = 0;
  std::vector<double> self_ms_;  // [layer], summed over epochs, rank mean
  double unattributed_ms_ = 0;
  double wall_ms_ = 0;
  std::size_t epochs_ = 0;
};

/// obs.trace_overhead: traced over untraced time per unit, minus one.
void report_trace_overhead(Report& rep, const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms);

/// comm.pool_mb: bytes the comm buffer pools retain.
void report_pool(Report& rep);

/// Writes the Chrome trace of everything recorded to work_dir/trace.json.
void write_trace(const Options& opt, Report& rep);

/// Wall time of each timed unit, ms, split by tracing, and the CPU time of
/// the untraced ones.
struct UnitTimes {
  std::vector<double> all;
  std::vector<double> untraced;
  std::vector<double> traced;
  double untraced_cpu_ms = 0;
};

/// Human-readable lines: each set-up's parts and the spread of unit times.
void print_schedule(const Options& opt, const std::vector<SetupTimes>& setups,
                    const UnitTimes& t);

/// The rates of the timed window, peak_rss_mb and the epoch-time
/// diagnostics. `samples` is the number of samples whose epoch completed in
/// the untraced units of `t`. samples_per_cpu_s divides it by the process
/// CPU time of those units, samples_per_s by their wall time; the
/// benchmark's checks between units are in neither.
void report_end_to_end(Report& rep, const std::vector<double>& epoch_ms,
                       double samples, const UnitTimes& t);

/// How many set-ups and timed units a run makes.
struct Plan {
  /// Set-ups per run; setup_s is their median.
  std::size_t setups = 3;
  std::size_t units = 0;
  /// Traced runs keep at most 2 * max_traced units and trace every second
  /// one.
  std::size_t max_traced = 0;
};

/// The common schedule. `setup(i)` builds set-up i, replacing the previous
/// one, and returns its phase times; `unit(u, traced)` runs timed unit u
/// and returns its UnitCost, which leaves out its correctness checks.
template <class Setup, class Unit>
UnitTimes run_schedule(const Options& opt, Report& rep, const Plan& plan,
                       Setup&& setup, Unit&& unit) {
  std::vector<SetupTimes> setups;
  for (std::size_t i = 0; i < plan.setups; ++i) setups.push_back(setup(i));
  report_setup(rep, setups);
  const std::size_t units =
      opt.trace ? std::min(plan.units, 2 * plan.max_traced) : plan.units;
  UnitTimes t;
  auto& tracer = dshuf::obs::Tracer::instance();
  for (std::size_t u = 0; u < units; ++u) {
    const bool traced = opt.trace && u % 2 == 1;
    tracer.set_enabled(traced);
    const UnitCost cost = unit(u, traced);
    tracer.set_enabled(false);
    const double ms = to_ms(cost.wall_ns);
    t.all.push_back(ms);
    (traced ? t.traced : t.untraced).push_back(ms);
    if (!traced) t.untraced_cpu_ms += to_ms(cost.cpu_ns);
  }
  if (opt.trace) {
    report_trace_overhead(rep, t.untraced, t.traced);
    write_trace(opt, rep);
  }
  print_schedule(opt, setups, t);
  return t;
}

}  // namespace perfbench
