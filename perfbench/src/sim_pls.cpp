// sim_pls: sim::run_workload_experiment on imagenet1k-resnet50 with PLS
// Q=0.3, 16 workers and b=8 (fig05a's stand-in for 2048 GPUs), the
// registry's 30 epochs, evaluating after the first and the last. This is the
// single-threaded trainer behind every accuracy figure; it runs the
// sequential shuffler, which nothing else here does. One timed unit is one
// whole experiment. Epoch wall times come from the obs timeseries sampler,
// which the trainer ticks once per epoch (one registry snapshot each); the
// per-epoch split comes from the trainer's own sim.epoch.* spans in traced
// units.
#include <map>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "data/workloads.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "shuffle/shard_store.hpp"
#include "sim/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dshuf;

constexpr std::size_t kWorkers = 16;
constexpr std::size_t kBatch = 8;
constexpr double kQ = 0.3;
constexpr std::size_t kSetups = 15;
constexpr double kExperimentsPerSecond = 0.5;
constexpr std::size_t kMaxTracedExperiments = 2;

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.epochs.size() != b.epochs.size()) return false;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    if (a.epochs[e].train_loss != b.epochs[e].train_loss ||
        a.epochs[e].val_top1 != b.epochs[e].val_top1) {
      return false;
    }
  }
  return a.peak_storage_ratio == b.peak_storage_ratio;
}

}  // namespace

void run_sim_pls(const Options& opt, Report& rep) {
  data::Workload wl = data::find_workload("imagenet1k-resnet50");
  wl.data.seed = Rng(opt.seed).fork(0xC1).next();
  sim::SimConfig cfg;
  cfg.workers = kWorkers;
  cfg.local_batch = kBatch;
  cfg.strategy = shuffle::Strategy::kPartial;
  cfg.q = kQ;
  cfg.epochs = opt.small ? 3 : wl.regime.epochs;
  // The trainer evaluates when epoch % eval_every == 0 and after the last
  // epoch, so this evaluates twice: after epoch 0 and after the last.
  cfg.eval_every = cfg.epochs;
  cfg.seed = Rng(opt.seed).fork(0xC2).next();
  const Plan plan{
      .setups = kSetups,
      .units = opt.small ? 1 : timed_units(opt, kExperimentsPerSecond, 3),
      .max_traced = kMaxTracedExperiments};

  std::size_t train_size = 0;
  auto setup = [&](std::size_t) {
    SetupTimes st;
    std::uint64_t t = now_ns();
    train_size = data::make_class_clusters_split(wl.data).train.size();
    st.dataset_ms = to_ms(now_ns() - t);
    t = now_ns();
    sim::SimConfig warm = cfg;
    warm.epochs = 1;
    warm.eval_every = 1;
    (void)sim::run_workload_experiment(wl, warm);
    st.warmup_ms = to_ms(now_ns() - t);
    return st;
  };

  std::vector<sim::SimResult> results;
  std::vector<double> epoch_ms;
  std::uint64_t flops = 0;
  auto& reg = obs::Registry::instance();
  auto& sampler = obs::TimeseriesSampler::instance();
  auto unit = [&](std::size_t, bool traced) {
    const std::uint64_t flops0 = reg.counter("tensor.gemm.flops").value();
    sampler.reset();
    sampler.set_enabled(true);
    const Stopwatch sw;
    results.push_back(sim::run_workload_experiment(wl, cfg));
    const UnitCost cost = sw.stop();
    sampler.set_enabled(false);
    // Window 0 also holds the trainer's own set-up (dataset, model).
    const auto windows = sampler.windows();
    for (std::size_t w = 1; w < windows.size() && !traced; ++w) {
      epoch_ms.push_back(
          static_cast<double>(windows[w].t_end_us - windows[w].t_start_us) *
          1e-3);
    }
    if (traced) flops += reg.counter("tensor.gemm.flops").value() - flops0;
    const bool ok = results.back().epochs.size() == cfg.epochs &&
                    same_result(results.back(), results.front());
    for (std::size_t e = 0; e < cfg.epochs; ++e) rep.epoch(ok);
    return cost;
  };

  rep.absent({"comm", "nn", "data", "shuffle", "io", "netsim", "step"});
  const UnitTimes times = run_schedule(opt, rep, plan, setup, unit);
  // Samples through forward+backward per experiment; the window is the
  // whole experiments, the trainer's own set-up and evaluations included.
  const std::size_t iters = train_size / kWorkers / kBatch;
  const double samples_per_experiment =
      static_cast<double>(iters * kWorkers * kBatch * cfg.epochs);
  report_end_to_end(
      rep, epoch_ms,
      samples_per_experiment * static_cast<double>(times.untraced.size()),
      times);

  const sim::SimResult& r = results.front();
  for (const auto& other : results) {
    if (!same_result(other, r)) {
      rep.fail("repeated experiments with one seed disagree");
      break;
    }
  }
  const std::size_t shard = train_size / kWorkers;
  const double bound = static_cast<double>(shuffle::pls_capacity(shard, kQ)) /
                       static_cast<double>(shard);
  if (r.peak_storage_ratio > bound) {
    rep.fail("peak storage ratio above the (1+Q) bound");
  }
  rep.metric("peak_storage_ratio", r.peak_storage_ratio, "ratio");
  rep.metric("val_top1", r.final_top1, "fraction");
  rep.metric("train_loss", r.epochs.back().train_loss, "nats");

  if (!opt.trace) return;
  // Per-epoch split from the trainer's spans of the traced experiments.
  std::map<std::string, double> total_ms;
  std::map<std::string, double> count;
  for (const auto& ev : obs::Tracer::instance().snapshot()) {
    total_ms[ev.name] += static_cast<double>(ev.dur_us) * 1e-3;
    count[ev.name] += 1;
  }
  const double n_epochs = count["sim.epoch"];
  if (n_epochs == 0) {
    rep.fail("traced run recorded no sim.epoch spans");
    return;
  }
  const double shuffle_ms = total_ms["sim.epoch.shuffle"];
  const double compute_ms = total_ms["sim.epoch.compute"];
  const double eval_ms = total_ms["sim.epoch.eval"];
  const double span_ms = total_ms["sim.epoch"];
  rep.metric("sim.shuffle_ms", shuffle_ms / n_epochs, "ms");
  rep.metric("sim.compute_ms", compute_ms / n_epochs, "ms");
  rep.metric("sim.eval_ms", eval_ms / std::max(1.0, count["sim.epoch.eval"]),
             "ms");
  rep.metric("sim.self_ms", span_ms / n_epochs, "ms");
  const double rest = span_ms - shuffle_ms - compute_ms - eval_ms;
  rep.metric("epoch.unattributed_ms", rest / n_epochs, "ms");
  rep.metric("epoch.unattributed_share", rest / span_ms, "fraction");
  // The flops counter also counts the evaluations' GEMMs, so their time
  // joins the training compute time.
  rep.metric("tensor.gemm_gflops",
             static_cast<double>(flops) / ((compute_ms + eval_ms) * 1e6),
             "GF/s");
}

}  // namespace perfbench
