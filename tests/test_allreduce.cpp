// Communicator::allreduce_sum, the reduce-scatter over published buffers.
//
// Every element of every rank's result must carry the bits of one scalar
// chain, +0.0 + c0 + c1 + ... + c(M-1) in rank order, on the threaded World
// and on netsim::VirtualWorld alike, in place, out of place and through the
// vector-returning overload, for inputs salted with signed zeros,
// denormals, infinities and NaNs (NaN compares equal to NaN: which NaN an
// addition propagates is the compiler's choice). The lengths straddle the
// chunking: empty, one element, fewer elements than ranks, one more, and
// the dp_pls gradient.
//
// This TU replaces the global operator new with a counting wrapper (as
// test_exchange_alloc.cpp does) so a steady-state span call can be shown
// to allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "netsim/virtual_comm.hpp"
#include "util/error.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dshuf::comm {
namespace {

constexpr std::size_t kGradient = 13'856;  // the dp_pls model's parameters

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Rank q's addend for element i: ordinary values of mixed sign and
/// magnitude, salted with signed zeros and denormals everywhere, with
/// elements whose every addend is -0.0 (their sum is +0.0 only if the
/// chain starts at +0.0), and with a sparse set of elements where ranks 0
/// and 1 add +inf, -inf or NaN (so inf - inf occurs too).
double addend(std::size_t q, std::size_t i) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  if (i % 53 == 11) return -0.0;
  if (i % 61 == 7 && q == 0) {
    const double special[3] = {kInf, -kInf,
                               std::numeric_limits<double>::quiet_NaN()};
    return special[(i / 61) % 3];
  }
  if (i % 61 == 7 && q == 1 && (i / 61) % 2 == 1) return kInf;
  const std::uint64_t h = mix((static_cast<std::uint64_t>(q) << 32) ^ i);
  switch (h % 8) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return kDenorm * static_cast<double>((h >> 12) % 1000 + 1);
    case 3:
      return -kDenorm * static_cast<double>((h >> 12) % 1000 + 1);
    default: {
      const double mag = std::ldexp(static_cast<double>((h >> 11) % 100'000),
                                    static_cast<int>((h >> 3) % 40) - 20);
      return (h & (1ULL << 63)) != 0 ? -mag : mag;
    }
  }
}

/// The scalar rank-order chain every element must reproduce.
std::vector<double> reference(std::size_t ranks, std::size_t n) {
  std::vector<double> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t q = 0; q < ranks; ++q) acc += addend(q, i);
    want[i] = acc;
  }
  return want;
}

bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<std::size_t> lengths(std::size_t ranks) {
  return {0, 1, ranks - 1, ranks + 1, kGradient};
}

/// Runs one allreduce per length on `world`; returns each rank's results,
/// indexed [length][rank].
template <typename WorldT>
std::vector<std::vector<std::vector<double>>> run_allreduces(
    WorldT& world, const std::vector<std::size_t>& ns, bool in_place) {
  const auto m = static_cast<std::size_t>(world.size());
  std::vector<std::vector<std::vector<double>>> got(
      ns.size(), std::vector<std::vector<double>>(m));
  world.run([&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    for (std::size_t k = 0; k < ns.size(); ++k) {
      std::vector<double> in(ns[k]);
      for (std::size_t i = 0; i < ns[k]; ++i) in[i] = addend(r, i);
      std::vector<double>& out = got[k][r];
      if (in_place) {
        out = std::move(in);
        c.allreduce_sum(out, out);
      } else {
        out.assign(ns[k], -1.0);
        c.allreduce_sum(in, out);
      }
    }
  });
  return got;
}

enum class Call { kOutOfPlace, kInPlace, kReturned };

const char* to_string(Call call) {
  switch (call) {
    case Call::kOutOfPlace:
      return "out of place";
    case Call::kInPlace:
      return "in place";
    case Call::kReturned:
      return "returned";
  }
  return "?";
}

/// Every rank checks its own result against the reference as soon as its
/// call returns, so a 1024-rank world never holds all results at once.
template <typename WorldT>
void expect_reference_bits(WorldT& world, const std::string& backend) {
  const auto m = static_cast<std::size_t>(world.size());
  for (const std::size_t n : lengths(m)) {
    const std::vector<double> want = reference(m, n);
    for (const Call call :
         {Call::kOutOfPlace, Call::kInPlace, Call::kReturned}) {
      constexpr std::size_t kNone = ~std::size_t{0};
      std::vector<std::size_t> first_bad(m, kNone);
      std::vector<double> bad_value(m);
      world.run([&](Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        std::vector<double> in(n);
        for (std::size_t i = 0; i < n; ++i) in[i] = addend(r, i);
        std::vector<double> out;
        if (call == Call::kInPlace) {
          c.allreduce_sum(in, in);
          out = std::move(in);
        } else if (call == Call::kOutOfPlace) {
          out.assign(n, -1.0);
          c.allreduce_sum(in, out);
        } else {
          out = c.allreduce_sum(in);
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!same_bits(out[i], want[i])) {
            first_bad[r] = i;
            bad_value[r] = out[i];
            break;
          }
        }
      });
      for (std::size_t r = 0; r < m; ++r) {
        ASSERT_EQ(first_bad[r], kNone)
            << backend << " M=" << m << " n=" << n << " " << to_string(call)
            << " rank " << r << ": element " << first_bad[r] << " is "
            << bad_value[r] << ", want " << want[first_bad[r]];
      }
    }
  }
}

TEST(Allreduce, ThreadedWorldMatchesScalarRankOrderChain) {
  for (const int m : {1, 2, 3, 4, 7}) {
    World world(m);
    expect_reference_bits(world, "World");
  }
}

TEST(Allreduce, VirtualWorldMatchesScalarRankOrderChain) {
  for (const int m : {2, 64, 1024}) {
    netsim::VirtualWorld world(m);
    expect_reference_bits(world, "VirtualWorld");
  }
}

TEST(Allreduce, BackendsAgreeBitForBit) {
  for (const int m : {2, 3, 4, 7}) {
    const std::vector<std::size_t> ns = lengths(static_cast<std::size_t>(m));
    World threaded(m);
    netsim::VirtualWorld virt(m);
    const auto a = run_allreduces(threaded, ns, /*in_place=*/false);
    const auto b = run_allreduces(virt, ns, /*in_place=*/true);
    for (std::size_t k = 0; k < ns.size(); ++k) {
      for (std::size_t r = 0; r < static_cast<std::size_t>(m); ++r) {
        ASSERT_EQ(a[k][r].size(), b[k][r].size());
        for (std::size_t i = 0; i < a[k][r].size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k][r][i]),
                    std::bit_cast<std::uint64_t>(b[k][r][i]))
              << "M=" << m << " n=" << ns[k] << " rank " << r
              << " element " << i;
        }
      }
    }
  }
}

// A length mismatch across ranks is seen by every rank after the
// publishing barrier, before any rank writes: all throw, and every result
// buffer still holds what its owner put there.
template <typename WorldT>
void expect_mismatch_throws_everywhere(WorldT& world) {
  const auto m = static_cast<std::size_t>(world.size());
  std::vector<int> threw(m, 0);
  std::vector<std::vector<double>> outs(m);
  world.run([&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const std::size_t n = r == 1 ? 9 : 8;
    const std::vector<double> in(n, 1.0);
    outs[r].assign(n, -7.0);
    try {
      c.allreduce_sum(in, outs[r]);
    } catch (const CheckError&) {
      threw[r] = 1;
    }
  });
  for (std::size_t r = 0; r < m; ++r) {
    EXPECT_EQ(threw[r], 1) << "rank " << r;
    for (const double v : outs[r]) EXPECT_EQ(v, -7.0) << "rank " << r;
  }
}

TEST(Allreduce, MismatchedLengthsThrowOnEveryRankBeforeAnyWrite) {
  World threaded(3);
  expect_mismatch_throws_everywhere(threaded);
  netsim::VirtualWorld virt(3);
  expect_mismatch_throws_everywhere(virt);
}

TEST(Allreduce, RejectsShortOrPartlyOverlappingResult) {
  World world(1);
  EXPECT_THROW(world.run([](Communicator& c) {
                 std::vector<double> buf(8, 1.0);
                 c.allreduce_sum(std::span<const double>(buf.data(), 4),
                                 std::span<double>(buf.data() + 2, 4));
               }),
               CheckError);
  EXPECT_THROW(world.run([](Communicator& c) {
                 std::vector<double> in(4, 1.0);
                 std::vector<double> out(3);
                 c.allreduce_sum(in, out);
               }),
               CheckError);
}

// The span call copies and allocates nothing: after warmup calls size the
// metrics statics, a steady run of calls on a 2-rank World performs zero
// heap allocations on either rank thread. The window is bracketed by
// barriers, as in test_exchange_alloc, so the process-wide count covers
// both ranks.
TEST(Allreduce, SpanCallAllocatesNothingInSteadyState) {
  constexpr int kRanks = 2;
  constexpr int kWarmup = 4;
  constexpr int kMeasured = 64;
  std::vector<std::vector<double>> ins(kRanks);
  std::vector<std::vector<double>> outs(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    ins[r].resize(kGradient);
    for (std::size_t i = 0; i < kGradient; ++i) ins[r][i] = addend(r, i);
    outs[r].resize(kGradient);
  }
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  World world(kRanks);
  world.run([&](Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    for (int i = 0; i < kWarmup; ++i) c.allreduce_sum(ins[r], outs[r]);
    c.barrier();
    if (r == 0) before = g_allocs.load(std::memory_order_relaxed);
    c.barrier();
    for (int i = 0; i < kMeasured; ++i) c.allreduce_sum(ins[r], outs[r]);
    c.barrier();
    if (r == 0) after = g_allocs.load(std::memory_order_relaxed);
  });
  EXPECT_EQ(after - before, 0U)
      << kMeasured << " steady-state allreduce calls performed "
      << (after - before) << " heap allocations";
  const std::vector<double> want = reference(kRanks, kGradient);
  for (const auto& out : outs) {
    for (std::size_t i = 0; i < kGradient; ++i) {
      ASSERT_TRUE(same_bits(out[i], want[i])) << "element " << i;
    }
  }
}

}  // namespace
}  // namespace dshuf::comm
