// Allocation-free steady-state reads for the mmap-backed sample store —
// the acceptance gate for the zero-copy path: after warmup (segments
// mapped, index built, metrics-site statics initialised, scratch sized),
// a read must hand the payload span to the caller without a single heap
// allocation, under BOTH slot-index backends.
//
// Same counting-operator-new pattern as test_exchange_alloc.cpp /
// test_workspace.cpp: this TU replaces global new/delete, warmup runs
// first, then the measured loop's delta must be exactly zero. gtest
// assertions allocate, so the measured region only records counters and
// the checks run afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <vector>

#include "io/mmap_store.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacements stay out of line: once one side is inlined into
// gtest's registration code, g++ 12 pairs malloc() with operator delete,
// or operator new with free(), and warns (-Wmismatched-new-delete),
// though the pair as a whole is consistent.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dshuf::io {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSamples = 4'096;
constexpr std::size_t kPayload = 128;
constexpr std::size_t kMeasuredReads = 50'000;

/// Returns the exact number of heap allocations performed by
/// kMeasuredReads steady-state reads (read() spans + load_into reuse).
std::uint64_t measure_steady_reads(SlotIndexKind kind, const fs::path& dir) {
  MmapStoreConfig cfg;
  cfg.dir = dir;
  cfg.index_kind = kind;
  MmapSampleStore store(cfg);

  std::vector<std::byte> payload(kPayload);
  for (data::SampleId id = 0; id < kSamples; ++id) {
    std::memset(payload.data(), static_cast<int>(id & 0xFF), kPayload);
    store.save(id, payload);
  }
  store.advance_epoch();

  // Warmup: touch every id once through both read entry points so
  // metric-site statics, the learned core (delta merge) and the reused
  // sink vector reach their steady state.
  std::uint64_t checksum = 0;
  std::vector<std::byte> sink;
  sink.reserve(kPayload);
  for (data::SampleId id = 0; id < kSamples; ++id) {
    store.read(id, [&checksum](std::span<const std::byte> p) {
      checksum += static_cast<std::uint8_t>(p[0]);
    });
    sink.clear();
    store.load_into(id, sink);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMeasuredReads; ++i) {
    const auto id = static_cast<data::SampleId>((i * 2'654'435'761U) %
                                                kSamples);
    store.read(id, [&checksum](std::span<const std::byte> p) {
      checksum += static_cast<std::uint8_t>(p[p.size() - 1]);
    });
    sink.clear();  // capacity retained: append stays allocation-free
    store.load_into(id, sink);
    checksum += sink.size();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  // Defeat any over-eager optimisation of the read loop.
  EXPECT_GT(checksum, 0U);
  return after - before;
}

class StoreAllocTest : public ::testing::TestWithParam<SlotIndexKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, StoreAllocTest,
                         ::testing::Values(SlotIndexKind::kOpenAddressing,
                                           SlotIndexKind::kLearned),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST_P(StoreAllocTest, SteadyStateReadsAreAllocationFree) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dshuf_store_alloc_" + std::to_string(::getpid()) + "_" +
       to_string(GetParam()));
  fs::remove_all(dir);
  const std::uint64_t allocs = measure_steady_reads(GetParam(), dir);
  EXPECT_EQ(allocs, 0U)
      << allocs << " allocations in " << kMeasuredReads
      << " steady-state reads under the " << to_string(GetParam())
      << " index";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dshuf::io
