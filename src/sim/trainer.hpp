// Synchronous-SGD distributed training simulator.
//
// Executes M virtual workers against one shared model. Each iteration
// stacks the M workers' local minibatches, in worker order, into one
// forward/backward pass in which each worker's b rows are one segment
// (nn/layer.hpp): BatchNorm statistics, running-stat updates, gradient
// sums and loss means are taken per segment in worker order, so
// statistics are per-worker, exactly like unsynchronised BN in DDP, and
// the bits equal one pass per worker in turn (tests/test_trainer_oracle
// keeps that per-worker loop as the oracle). The summed gradient is
// divided by M (the gradient-averaging allreduce), and one optimiser step
// is applied. Because synchronous SGD is barrier-deterministic, this
// computes exactly what an M-rank data-parallel run of the same seeds
// would compute — which is what lets a single core stand in for the
// paper's 2,048-GPU experiments (accuracy-wise; wall-clock is
// dshuf::perf's job).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/workloads.hpp"
#include "nn/builder.hpp"
#include "nn/optimizer.hpp"
#include "shuffle/shuffler.hpp"

namespace dshuf::sim {

struct SimConfig {
  std::size_t workers = 8;
  std::size_t local_batch = 32;
  shuffle::Strategy strategy = shuffle::Strategy::kGlobal;
  double q = 0.1;
  /// Epoch count for run_workload_experiment; 0 = use the workload
  /// regime's epochs (train_model always follows the regime).
  std::size_t epochs = 0;
  data::PartitionScheme partition = data::PartitionScheme::kClassSorted;
  /// When > 0, use Dirichlet non-IID partitioning with this concentration
  /// instead of `partition` (small alpha = strong skew, large = near-iid).
  double dirichlet_alpha = 0.0;
  /// When > 0 and strategy is kPartial, exchange under a Topology of this
  /// many groups: the grouped plan of Section V-F when > 1, the flat plan
  /// when 1 (one group spans every worker).
  int hierarchical_groups = 0;
  /// Fraction of hierarchical rounds kept intra-group.
  double hierarchical_intra_fraction = 0.5;
  /// Exchange-pick policy (kPartial only). The importance policies feed an
  /// EMA of per-sample training loss to the shuffler each epoch — the
  /// Section IV-B importance-sampling extension.
  shuffle::PickPolicy pick_policy = shuffle::PickPolicy::kUniform;
  std::uint64_t seed = 123;
  /// Ablation: synchronise BatchNorm statistics across workers by making
  /// the whole M*b stack one segment (mathematically identical gradient;
  /// batch stats become global).
  bool sync_batchnorm = false;
  /// Evaluate every k epochs (always evaluates the last epoch).
  std::size_t eval_every = 1;
  /// Cap on validation samples per evaluation (0 = all). Subsampling uses
  /// a fixed random subset so curves are comparable across strategies.
  std::size_t max_eval_samples = 4096;
  /// Optional warm-start weights (Fig. 5(d) pre-trained regime).
  std::optional<std::vector<float>> warm_start;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double train_loss = 0;
  double val_top1 = -1;  // -1 = not evaluated this epoch
  float lr = 0;
  std::size_t samples_exchanged = 0;  // total across workers
};

struct SimResult {
  std::string label;        // e.g. "partial-0.3"
  std::size_t workers = 0;
  std::vector<EpochRecord> epochs;
  double best_top1 = 0;
  double final_top1 = 0;
  /// Peak shard occupancy / shard size across workers (storage bound).
  double peak_storage_ratio = 1.0;
};

/// Runs one (strategy, scale) training experiment for a registry workload.
/// The model/dataset are built from the workload spec; the same seeds are
/// used for weight init and data generation regardless of strategy, so
/// curves are directly comparable (the paper's controlled comparison).
SimResult run_workload_experiment(const data::Workload& workload,
                                  const SimConfig& config);

/// Lower-level entry point used by tests and the transfer experiment:
/// train `model` on the given data under `config` / `regime`.
SimResult train_model(nn::Model& model, const data::InMemoryDataset& train,
                      const data::InMemoryDataset& val,
                      const data::TrainRegime& regime,
                      const SimConfig& config, const std::string& label_hint);

/// Evaluate top-1 accuracy of `model` on (a fixed subsample of) `val`.
double evaluate(nn::Model& model, const data::InMemoryDataset& val,
                std::size_t max_samples, std::uint64_t seed);

}  // namespace dshuf::sim
