#include "store_exchange.hpp"

#include <algorithm>

#include "io/file_store.hpp"
#include "obs/metrics.hpp"
#include "shuffle/shuffler.hpp"

namespace perfbench {

namespace sh = dshuf::shuffle;

StoreRank::StoreRank(std::vector<SampleId> shard, std::size_t quota,
                     const std::filesystem::path& dir,
                     const dshuf::data::InMemoryDataset& ds)
    : held(ds.size(), 0) {
  const std::size_t n = shard.size();
  payloads = std::make_unique<dshuf::io::MmapSampleStore>(
      dshuf::io::MmapStoreConfig{
          .dir = dir, .capacity_bytes = (n + quota) * ds.bytes_per_sample()});
  std::vector<std::byte> buf;
  for (const SampleId id : shard) {
    buf.clear();
    dshuf::io::serialize_sample_into(ds, id, buf);
    payloads->save(id, buf);
  }
  payload_peak = payloads->size();
  ids = sh::ShardStore(std::move(shard), n + quota);
  sent.reserve(quota);
  payload_fn = [this](SampleId id, std::vector<std::byte>& out) {
    const Timed t(probe, Call::kIoRead);
    payloads->load_into(id, out);
    sent.push_back(id);
  };
  deposit_fn = [this](SampleId id, std::span<const std::byte> body) {
    const Timed t(probe, Call::kIoWrite);
    payloads->save(id, body);
    payload_peak = std::max(payload_peak, payloads->size());
  };
}

void store_epoch(dshuf::comm::Communicator& c, StoreRank& r,
                 std::uint64_t seed, std::size_t epoch, double q,
                 std::size_t shard) {
  {
    const Timed t(r.probe, Call::kExchange);
    r.outcome = sh::run_pls_exchange_epoch(c, r.ids, seed, epoch, q, shard,
                                           r.payload_fn, r.deposit_fn,
                                           /*robust=*/nullptr, &r.scratch);
  }
  {
    // A sample sent to this rank's own slot stays; every other sent id
    // has left the shard and its payload goes too.
    const Timed t(r.probe, Call::kIoClean);
    for (const SampleId id : r.ids.ids()) r.held[id] = 1;
    for (const SampleId id : r.sent) {
      if (r.held[id] == 0) r.payloads->remove(id);
    }
    for (const SampleId id : r.ids.ids()) r.held[id] = 0;
    r.sent.clear();
  }
  {
    const Timed t(r.probe, Call::kIoReclaim);
    r.payloads->advance_epoch();
  }
  {
    const Timed t(r.probe, Call::kLocalShuffle);
    sh::post_exchange_local_shuffle(seed, epoch, c.rank(),
                                    r.ids.mutable_ids());
  }
}

bool ExchangeCounts::add(std::span<const sh::ExchangeOutcome> ranks) {
  double fb = 0;
  for (const auto& o : ranks) {
    msgs += static_cast<double>(o.msgs_sent);
    wire_bytes += static_cast<double>(o.bytes_sent);
    header_bytes += static_cast<double>(o.bytes_header);
    fb += static_cast<double>(o.send_fallbacks + o.recv_fallbacks);
  }
  fallbacks += fb;
  ++epochs;
  return fb == 0;
}

void ExchangeCounts::report(Report& rep) const {
  const double e = static_cast<double>(std::max<std::size_t>(1, epochs));
  rep.metric("shuffle.msgs", msgs / e, "count");
  rep.metric("shuffle.wire_bytes", wire_bytes / e, "bytes");
  rep.metric("shuffle.header_bytes", header_bytes / e, "bytes");
  rep.metric("shuffle.fallbacks", fallbacks / e, "count");
}

namespace {

bool check_epoch(Report& rep, StoreEpochs::Ranks ranks,
                 std::size_t dataset_size, std::size_t shard,
                 std::size_t quota) {
  std::vector<std::uint8_t> seen(dataset_size, 0);
  bool ok = true;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const StoreRank& s = *ranks[r];
    if (s.ids.size() != shard) {
      rep.fail("rank " + std::to_string(r) + " holds " +
               std::to_string(s.ids.size()) + " samples, not " +
               std::to_string(shard));
      ok = false;
    }
    if (s.ids.peak_occupancy() > shard + quota ||
        s.payload_peak > shard + quota) {
      rep.fail("rank " + std::to_string(r) + " exceeded shard + quota");
      ok = false;
    }
    for (const SampleId id : s.ids.ids()) {
      if (id >= dataset_size || seen[id]++ != 0) {
        rep.fail("sample " + std::to_string(id) + " held twice or unknown");
        return false;
      }
    }
  }
  // Full shards with no id held twice cover the dataset exactly when the
  // shards add up to it.
  if (ranks.size() * shard != dataset_size) {
    rep.fail("the shards do not cover the dataset");
    ok = false;
  }
  return ok;
}

void check_payloads(Report& rep, StoreEpochs::Ranks ranks,
                    const dshuf::data::InMemoryDataset& ds) {
  std::vector<std::byte> expect;
  std::vector<std::byte> got;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const StoreRank& s = *ranks[r];
    std::vector<SampleId> ids = s.ids.ids();
    std::sort(ids.begin(), ids.end());
    if (s.payloads->list() != ids) {
      rep.fail("rank " + std::to_string(r) +
               " mmap store does not hold exactly its shard");
      continue;
    }
    for (const SampleId id : ids) {
      expect.clear();
      got.clear();
      dshuf::io::serialize_sample_into(ds, id, expect);
      s.payloads->load_into(id, got);
      if (got != expect) {
        rep.fail("rank " + std::to_string(r) + " payload of sample " +
                 std::to_string(id) + " does not decode to its row");
        break;
      }
    }
  }
}

std::uint64_t counter(const char* name) {
  return dshuf::obs::Registry::instance().counter(name).value();
}

}  // namespace

void StoreEpochs::begin(Ranks ranks, bool traced) {
  for (const auto& r : ranks) {
    r->probe.clear();
    r->probe.on = traced;
  }
  miss0_ = counter("comm.pool.misses");
  seg0_ = counter("store.segments_created");
}

void StoreEpochs::end(Report& rep, Ranks ranks, std::size_t dataset_size,
                      std::size_t shard, std::size_t quota, bool traced,
                      std::uint64_t wall_ns) {
  std::vector<sh::ExchangeOutcome> outs;
  for (const auto& r : ranks) outs.push_back(r->outcome);
  const bool exchanged = counts_.add(outs);
  rep.epoch(check_epoch(rep, ranks, dataset_size, shard, quota) && exchanged);
  if (!traced) return;
  std::vector<const Probe*> probes;
  std::size_t resident = 0;
  for (const auto& r : ranks) {
    probes.push_back(&r->probe);
    resident += r->payloads->resident_bytes();
  }
  layers_.add_epoch(probes, wall_ns);
  pool_misses_ += counter("comm.pool.misses") - miss0_;
  segments_ += counter("store.segments_created") - seg0_;
  resident_ = std::max(resident_, resident);
  ++traced_;
}

void StoreEpochs::report(Report& rep, Ranks ranks,
                         const dshuf::data::InMemoryDataset& ds,
                         std::size_t shard) const {
  // The mmap store's peak: a sample a rank draws for itself is
  // overwritten in place, so the bytes held stay below the ShardStore's
  // id count, which is always shard + quota mid-exchange.
  std::size_t peak = 0;
  std::uint64_t digest = 0;
  for (const auto& r : ranks) {
    peak = std::max(peak, r->payload_peak);
    digest = mix(digest, r->ids.size());
    for (const SampleId id : r->ids.ids()) digest = mix(digest, id);
  }
  rep.metric("peak_storage_ratio",
             static_cast<double>(peak) / static_cast<double>(shard), "ratio");
  counts_.report(rep);
  rep.metric("shuffle.shard_digest", static_cast<double>(digest >> 12),
             "hash");
  check_payloads(rep, ranks, ds);
  report_pool(rep);
  if (traced_ == 0) return;
  layers_.report(rep);
  const auto te = static_cast<double>(traced_);
  rep.metric("comm.pool_misses", static_cast<double>(pool_misses_) / te,
             "count");
  rep.metric("io.segments_created", static_cast<double>(segments_) / te,
             "count");
  rep.metric("io.resident_mb", static_cast<double>(resident_) / (1 << 20),
             "MiB");
}

}  // namespace perfbench
