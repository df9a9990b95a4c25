// dshuf_bench: records the compute-kernel performance baseline.
//
// Times the retained reference kernels against the blocked production
// kernels (GEMM at several sizes, Conv1d forward/backward, and a full
// simulated training iteration for the MLP and CNN proxies) in one
// process, by flipping the KernelBackend switch, plus the observability
// tax: one overlapped exchange+compute epoch (sim/overlap.hpp) with the
// tracer + timeseries sampler on vs off. --out writes the results as
// BENCH_micro-style JSON (schema dshuf.bench_micro.v4, which also records
// the host's hw_threads); --check re-reads a written file with util/json,
// validates its structure and gates the tracing overhead at <= 5%. This
// is the CI perf-smoke gate.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "obs/timeseries.hpp"
#include "sim/overlap.hpp"
#include "tensor/tensor.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dshuf;

/// Milliseconds per call: repeats `fn` until `min_seconds` has elapsed,
/// best of `reps` rounds (robust to scheduler noise on a shared core).
template <typename Fn>
double time_ms(Fn&& fn, double min_seconds, int reps) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    std::size_t iters = 0;
    Stopwatch sw;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = sw.seconds();
    } while (elapsed < min_seconds);
    const double ms = elapsed * 1e3 / static_cast<double>(iters);
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

struct Timing {
  double ref_ms = 0.0;
  double blocked_ms = 0.0;

  [[nodiscard]] double speedup() const {
    return blocked_ms > 0.0 ? ref_ms / blocked_ms : 0.0;
  }
};

/// Runs `fn` once per backend under time_ms.
template <typename Fn>
Timing time_both(Fn&& fn, double min_seconds, int reps) {
  Timing t;
  {
    const ScopedKernelBackend scoped(KernelBackend::kReference);
    t.ref_ms = time_ms(fn, min_seconds, reps);
  }
  {
    const ScopedKernelBackend scoped(KernelBackend::kBlocked);
    t.blocked_ms = time_ms(fn, min_seconds, reps);
  }
  return t;
}

std::string fmt(double v) {
  std::ostringstream oss;
  oss.precision(6);
  oss << v;
  return oss.str();
}

struct GemmRow {
  std::size_t n = 0;
  Timing t;
  [[nodiscard]] double gflops(double ms) const {
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(n) * static_cast<double>(n);
    return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
  }
};

struct PassRow {
  std::string name;
  Timing t;
};

Timing time_train_iteration(nn::Model model, const data::InMemoryDataset& ds,
                            double min_seconds, int reps) {
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> batch(32);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<data::SampleId>(i * 7 % ds.size());
  }
  const Tensor x = ds.gather(batch);
  const auto y = ds.gather_labels(batch);
  return time_both(
      [&] {
        model.zero_grad();
        const Tensor& logits = model.forward(x, true);
        ce.forward(logits, y);
        model.backward(ce.grad());
      },
      min_seconds, reps);
}

int run_check(const std::string& path) {
  std::ifstream in(path);
  DSHUF_CHECK(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  DSHUF_CHECK_EQ(doc.at("schema").as_string(), "dshuf.bench_micro.v4",
                 "unexpected schema in " << path);
  const std::int64_t hw_threads = doc.at("hw_threads").as_int();
  DSHUF_CHECK_GE(hw_threads, 1, "bad hw_threads");
  DSHUF_CHECK(!doc.at("gemm").as_array().empty(), "no gemm entries");
  for (const auto& row : doc.at("gemm").as_array()) {
    DSHUF_CHECK_GT(row.at("ref_ms").as_number(), 0.0, "bad ref_ms");
    DSHUF_CHECK_GT(row.at("blocked_ms").as_number(), 0.0, "bad blocked_ms");
    DSHUF_CHECK_GT(row.at("speedup").as_number(), 0.0, "bad speedup");
  }
  DSHUF_CHECK_EQ(doc.at("conv1d").as_array().size(), 2U,
                 "expected conv1d forward+backward");
  DSHUF_CHECK_EQ(doc.at("train_iteration").as_array().size(), 2U,
                 "expected mlp+cnn train iterations");
  DSHUF_CHECK(!doc.at("obs_overhead").as_array().empty(),
              "no obs_overhead entries");
  for (const auto& row : doc.at("obs_overhead").as_array()) {
    DSHUF_CHECK_GT(row.at("off_ms").as_number(), 0.0, "bad off_ms");
    DSHUF_CHECK_GT(row.at("on_ms").as_number(), 0.0, "bad on_ms");
    // The always-on-able observability stack (tracer + windowed sampler)
    // must stay under a 5% tax on the overlapped epoch.
    DSHUF_CHECK_LE(row.at("overhead_frac").as_number(), 0.05,
                   "tracing+sampling overhead above 5% in "
                       << path << " (workload "
                       << row.at("workload").as_string() << ")");
  }
  std::cout << "dshuf_bench: " << path << " OK ("
            << doc.at("gemm").as_array().size() << " gemm sizes, "
            << hw_threads << " hw thread(s))\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("dshuf_bench",
                 "Record the blocked-vs-reference kernel perf baseline");
  args.flag("out", "", "write JSON results to this path");
  args.flag("check", "", "validate a previously written JSON file and exit");
  args.flag("quick", "false", "reduced measurement time (CI smoke)");
  if (!args.parse(argc, argv)) return 0;

  if (!args.get("check").empty()) return run_check(args.get("check"));

  const bool quick = args.get_bool("quick");
  const double min_seconds = quick ? 0.02 : 0.2;
  const int reps = quick ? 2 : 5;

  Rng rng(3);
  std::vector<GemmRow> gemm_rows;
  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}}) {
    GemmRow row;
    row.n = n;
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    Tensor out({n, n});
    row.t = time_both([&] { gemm(a, b, out); }, min_seconds, reps);
    gemm_rows.push_back(row);
    std::cout << "gemm " << n << "x" << n << "x" << n << ": ref "
              << fmt(row.t.ref_ms) << " ms (" << fmt(row.gflops(row.t.ref_ms))
              << " GF/s), blocked " << fmt(row.t.blocked_ms) << " ms ("
              << fmt(row.gflops(row.t.blocked_ms)) << " GF/s), speedup "
              << fmt(row.t.speedup()) << "x\n";
  }

  std::vector<PassRow> conv_rows;
  {
    Rng crng(7);
    nn::Conv1d conv(8, 16, 32, 3, crng);
    const Tensor x = Tensor::randn({32, 8 * 32}, crng);
    const Tensor g = Tensor::randn({32, 16 * 32}, crng);
    Tensor y;
    Tensor gi;
    conv_rows.push_back(
        {"forward",
         time_both([&] { conv.forward_into(x, y, true); }, min_seconds,
                   reps)});
    conv_rows.push_back({"backward", time_both(
                                         [&] {
                                           conv.forward_into(x, y, true);
                                           conv.backward_into(g, gi);
                                         },
                                         min_seconds, reps)});
    for (const auto& row : conv_rows) {
      std::cout << "conv1d " << row.name << ": ref " << fmt(row.t.ref_ms)
                << " ms, blocked " << fmt(row.t.blocked_ms) << " ms, speedup "
                << fmt(row.t.speedup()) << "x\n";
    }
  }

  std::vector<PassRow> train_rows;
  {
    data::ClassClusterSpec dspec{.num_classes = 16,
                                 .samples_per_class = 64,
                                 .feature_dim = 32,
                                 .seed = 5};
    const auto ds = data::make_class_clusters(dspec);
    nn::MlpSpec mspec{.input_dim = 32, .hidden = {96, 64}, .num_classes = 16};
    Rng mrng(5);
    train_rows.push_back(
        {"mlp", time_train_iteration(nn::make_mlp(mspec, mrng), ds,
                                     min_seconds, reps)});
    data::ClassClusterSpec cdspec{.num_classes = 10,
                                  .samples_per_class = 64,
                                  .feature_dim = 32,
                                  .seed = 5};
    const auto cds = data::make_class_clusters(cdspec);
    nn::CnnSpec cspec;
    Rng crng(5);
    train_rows.push_back(
        {"cnn", time_train_iteration(nn::make_cnn(cspec, crng), cds,
                                     min_seconds, reps)});
    for (const auto& row : train_rows) {
      std::cout << "train_iteration " << row.name << ": ref "
                << fmt(row.t.ref_ms) << " ms, blocked "
                << fmt(row.t.blocked_ms) << " ms, speedup "
                << fmt(row.t.speedup()) << "x\n";
    }
  }

  // Observability tax: the identical overlapped epoch with the tracer and
  // the timeseries sampler recording vs fully off. clear()/sample_window()
  // stay inside the timed region — they are part of the per-epoch
  // lifecycle a traced bench actually pays. The compute phase is heavy
  // (real epochs are long; the per-event cost is fixed), and the arms
  // alternate per rep so machine-load drift hits both sides instead of
  // biasing one.
  double obs_off_ms = 0.0;
  double obs_on_ms = 0.0;
  {
    sim::OverlapConfig ocfg;
    ocfg.n = 256;
    ocfg.ranks = 4;
    ocfg.q = 0.3;
    ocfg.epochs = 2;
    ocfg.compute_gemm_n = 256;
    ocfg.compute_reps = 4;
    std::uint64_t seed = 21;
    auto& tracer = obs::Tracer::instance();
    auto& sampler = obs::TimeseriesSampler::instance();
    const auto run_arm = [&](bool on) {
      tracer.set_enabled(on);
      sampler.set_enabled(on);
      if (on) sampler.reset();
      const double ms = time_ms(
          [&] {
            ocfg.seed = seed++;
            sim::run_overlapped_epochs(ocfg);
            if (on) tracer.clear();
          },
          min_seconds, 1);
      tracer.set_enabled(false);
      sampler.set_enabled(false);
      return ms;
    };
    for (int r = 0; r < reps; ++r) {
      const double off = run_arm(false);
      const double on = run_arm(true);
      if (obs_off_ms <= 0.0 || off < obs_off_ms) obs_off_ms = off;
      if (obs_on_ms <= 0.0 || on < obs_on_ms) obs_on_ms = on;
    }
    sampler.reset();
    tracer.clear();
  }
  const double obs_overhead_frac =
      obs_off_ms > 0.0 ? (obs_on_ms - obs_off_ms) / obs_off_ms : 0.0;
  std::cout << "obs_overhead (overlapped epoch, 4 ranks): off "
            << fmt(obs_off_ms) << " ms, on " << fmt(obs_on_ms) << " ms, +"
            << fmt(obs_overhead_frac * 100.0) << "%\n";

  const auto hw_threads =
      std::max(1U, std::thread::hardware_concurrency());

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream j;
    j << "{\n  \"schema\": \"dshuf.bench_micro.v4\",\n  \"hw_threads\": "
      << hw_threads << ",\n  \"gemm\": [\n";
    for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
      const auto& r = gemm_rows[i];
      j << "    {\"m\": " << r.n << ", \"n\": " << r.n << ", \"k\": " << r.n
        << ", \"ref_ms\": " << fmt(r.t.ref_ms)
        << ", \"blocked_ms\": " << fmt(r.t.blocked_ms)
        << ", \"ref_gflops\": " << fmt(r.gflops(r.t.ref_ms))
        << ", \"blocked_gflops\": " << fmt(r.gflops(r.t.blocked_ms))
        << ", \"speedup\": " << fmt(r.t.speedup()) << "}"
        << (i + 1 < gemm_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"conv1d\": [\n";
    for (std::size_t i = 0; i < conv_rows.size(); ++i) {
      const auto& r = conv_rows[i];
      j << "    {\"pass\": \"" << r.name
        << "\", \"ref_ms\": " << fmt(r.t.ref_ms)
        << ", \"blocked_ms\": " << fmt(r.t.blocked_ms)
        << ", \"speedup\": " << fmt(r.t.speedup()) << "}"
        << (i + 1 < conv_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"train_iteration\": [\n";
    for (std::size_t i = 0; i < train_rows.size(); ++i) {
      const auto& r = train_rows[i];
      j << "    {\"model\": \"" << r.name
        << "\", \"ref_ms\": " << fmt(r.t.ref_ms)
        << ", \"blocked_ms\": " << fmt(r.t.blocked_ms)
        << ", \"speedup\": " << fmt(r.t.speedup()) << "}"
        << (i + 1 < train_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"obs_overhead\": [\n"
      << "    {\"workload\": \"overlap_epoch\", \"ranks\": 4, \"off_ms\": "
      << fmt(obs_off_ms) << ", \"on_ms\": " << fmt(obs_on_ms)
      << ", \"overhead_frac\": " << fmt(obs_overhead_frac) << "}\n"
      << "  ]\n}\n";
    // Round-trip through the parser before writing: the tool never emits
    // a file its own --check would reject.
    json::parse(j.str());
    std::ofstream out(out_path);
    DSHUF_CHECK(out.good(), "cannot write " << out_path);
    out << j.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
