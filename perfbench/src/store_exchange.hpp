// The store-backed PLS epoch shared by dp_pls and exchange_gs: each rank
// keeps its shard's ids in a shuffle::ShardStore and the payload bytes in
// an io::MmapSampleStore capped at (shard + quota) samples, and one epoch
// is the exchange (payloads read from and deposited into the mmap store),
// removal of the transmitted samples, advance_epoch and the local shuffle.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"
#include "io/mmap_store.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shard_store.hpp"

namespace perfbench {

using dshuf::data::SampleId;

struct StoreRank {
  /// Creates the rank's mmap store under `dir` and saves every sample of
  /// `shard` serialized from `ds`.
  StoreRank(std::vector<SampleId> shard, std::size_t quota,
            const std::filesystem::path& dir,
            const dshuf::data::InMemoryDataset& ds);
  StoreRank(const StoreRank&) = delete;
  StoreRank& operator=(const StoreRank&) = delete;

  dshuf::shuffle::ShardStore ids;
  std::unique_ptr<dshuf::io::MmapSampleStore> payloads;
  dshuf::shuffle::ExchangeScratch scratch;
  dshuf::shuffle::ExchangeOutcome outcome;
  /// Ids packed into this epoch's frames, for removal after the exchange.
  std::vector<SampleId> sent;
  /// [id] scratch for the removal pass.
  std::vector<std::uint8_t> held;
  /// Most payloads the mmap store held at once.
  std::size_t payload_peak = 0;
  Probe probe;
  /// The exchange's payload and deposit callbacks over `payloads`.
  dshuf::shuffle::PayloadFn payload_fn;
  dshuf::shuffle::DepositFn deposit_fn;
};

/// One epoch on rank c.rank(). Calls into io and shuffle are timed
/// through the rank's probe.
void store_epoch(dshuf::comm::Communicator& c, StoreRank& r,
                 std::uint64_t seed, std::size_t epoch, double q,
                 std::size_t shard);

/// Per-epoch exact counts over all ranks, from ExchangeOutcome.
struct ExchangeCounts {
  double msgs = 0;
  double wire_bytes = 0;
  double header_bytes = 0;
  double fallbacks = 0;
  std::size_t epochs = 0;
  /// Adds one epoch; returns false when the epoch fell back.
  bool add(std::span<const dshuf::shuffle::ExchangeOutcome> ranks);
  void report(Report& rep) const;
};

/// Bookkeeping of a store-backed world's timed epochs: exact counts and
/// the per-epoch checks (every id on exactly one rank, every shard at its
/// initial size, occupancy within shard + quota) on every epoch; probe
/// tallies, pool misses, created segments and resident bytes on traced
/// ones.
class StoreEpochs {
 public:
  using Ranks = std::span<const std::unique_ptr<StoreRank>>;
  /// Arms the rank probes before an epoch.
  void begin(Ranks ranks, bool traced);
  /// Accounts the epoch just run, which took `wall_ns`.
  void end(Report& rep, Ranks ranks, std::size_t dataset_size,
           std::size_t shard, std::size_t quota, bool traced,
           std::uint64_t wall_ns);
  /// peak_storage_ratio, the exchange counts and shard digest, the
  /// end-of-run payload checks (each mmap store holds exactly its rank's
  /// ids; every payload decodes to its dataset row and label) and, after
  /// traced epochs, the layer metrics.
  void report(Report& rep, Ranks ranks, const dshuf::data::InMemoryDataset& ds,
              std::size_t shard) const;

 private:
  ExchangeCounts counts_;
  LayerTimes layers_;
  std::uint64_t miss0_ = 0;
  std::uint64_t seg0_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t segments_ = 0;
  std::size_t resident_ = 0;
  std::size_t traced_ = 0;
};

}  // namespace perfbench
