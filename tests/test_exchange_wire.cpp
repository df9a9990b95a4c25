// Wire-format contract of the coalesced exchange frame: golden bytes
// (little-endian layout is part of the format, not an implementation
// detail), round-trips through FrameWriter/parse_frame including the
// degenerate corners, rejection of truncated or inconsistent frames — by
// example and by enumerating mutations of the golden frames — and, end to
// end, bit-identity of the exchange with the sequential driver.
#include "shuffle/exchange_wire.hpp"

#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::byte> bytes_from(std::initializer_list<unsigned> raw) {
  std::vector<std::byte> out;
  for (unsigned v : raw) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ------------------------------------------------------------------ codec --

TEST(ExchangeWireFormat, GoldenFrameBytes) {
  // Two samples: id 7 with payload {0xAA, 0xBB}, id 0xFFFFFFFF (the
  // maximum SampleId) with an empty payload, framed with the v2 trace
  // context (origin 3, flow id frame_flow_id(5, 3, 1)). Every byte below
  // is pinned: changing the layout must break this test.
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/5, /*origin=*/3,
                frame_flow_id(/*epoch=*/5, /*origin=*/3, /*dest=*/1),
                /*count=*/2);
  w.begin_sample(7);
  buf.push_back(std::byte{0xAA});
  buf.push_back(std::byte{0xBB});
  w.begin_sample(0xFFFFFFFFU);
  w.finish();

  // frame_flow_id(5, 3, 1) = (5 << 26) | (3 << 13) | 1 = 0x14006001.
  const auto golden = bytes_from({
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch = 5 (u64 LE)
      0x03, 0x00, 0x00, 0x00,                          // origin = 3
      0x01, 0x60, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00,  // flow id (u64 LE)
      0x02, 0x00, 0x00, 0x00,                          // count = 2
      0x00, 0x00, 0x00, 0x00,                          // offsets[0] = 0
      0x06, 0x00, 0x00, 0x00,                          // offsets[1] = 6
      0x0A, 0x00, 0x00, 0x00,                          // offsets[2] = 10
      0x07, 0x00, 0x00, 0x00, 0xAA, 0xBB,              // sample 0
      0xFF, 0xFF, 0xFF, 0xFF,                          // sample 1 (no body)
  });
  EXPECT_EQ(buf, golden);
  EXPECT_EQ(buf.size(), frame_header_bytes(2) + 10);

  const FrameView v = parse_frame(buf);
  EXPECT_EQ(v.epoch(), 5U);
  EXPECT_EQ(v.origin(), 3U);
  EXPECT_EQ(v.flow_id(), frame_flow_id(5, 3, 1));
  EXPECT_EQ(v.count(), 2U);
  EXPECT_EQ(v.id(0), 7U);
  EXPECT_EQ(v.id(1), 0xFFFFFFFFU);
  ASSERT_EQ(v.payload(0).size(), 2U);
  EXPECT_EQ(v.payload(0)[0], std::byte{0xAA});
  EXPECT_EQ(v.payload(0)[1], std::byte{0xBB});
  EXPECT_TRUE(v.payload(1).empty());
}

TEST(ExchangeWireFormat, FlowIdsAreDistinctAndDeterministic) {
  // Frame ids are a pure function of (epoch, origin, dest): both
  // endpoints must derive the same value, and the three fields must not
  // alias one another.
  EXPECT_EQ(frame_flow_id(5, 3, 1), frame_flow_id(5, 3, 1));
  EXPECT_NE(frame_flow_id(5, 3, 1), frame_flow_id(5, 1, 3));
  EXPECT_NE(frame_flow_id(5, 3, 1), frame_flow_id(6, 3, 1));
  EXPECT_EQ(frame_flow_id(1u << 25, 8191, 8191),
            (std::uint64_t{1} << 51) | (std::uint64_t{8191} << 13) | 8191);
}

TEST(ExchangeWireFormat, ZeroCountFrameRoundTrips) {
  // A zero-quota epoch never sends frames, but the format still defines
  // the empty frame: header only, offsets = {0}.
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/0, /*origin=*/0, /*flow_id=*/0, /*count=*/0);
  w.finish();
  EXPECT_EQ(buf.size(), frame_header_bytes(0));
  const FrameView v = parse_frame(buf);
  EXPECT_EQ(v.epoch(), 0U);
  EXPECT_EQ(v.count(), 0U);
}

TEST(ExchangeWireFormat, AllEmptyPayloadsRoundTrip) {
  std::vector<std::byte> buf;
  const std::uint32_t count = 17;
  FrameWriter w(buf, /*epoch=*/42, /*origin=*/2, frame_flow_id(42, 2, 0), count);
  for (std::uint32_t j = 0; j < count; ++j) w.begin_sample(j * 3 + 1);
  w.finish();
  EXPECT_EQ(buf.size(),
            frame_header_bytes(count) + count * sizeof(SampleId));
  const FrameView v = parse_frame(buf);
  ASSERT_EQ(v.count(), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    EXPECT_EQ(v.id(j), j * 3 + 1);
    EXPECT_TRUE(v.payload(j).empty());
  }
}

TEST(ExchangeWireFormat, VariableLengthPayloadsRoundTrip) {
  std::vector<std::byte> buf;
  const std::uint32_t count = 9;
  FrameWriter w(buf, /*epoch=*/1234567, /*origin=*/1, frame_flow_id(1234567, 1, 2), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    w.begin_sample(1000 + j);
    // Sample j carries j bytes of payload — mixed sizes in one frame.
    for (std::uint32_t b = 0; b < j; ++b) {
      buf.push_back(static_cast<std::byte>(j ^ b));
    }
  }
  w.finish();
  const FrameView v = parse_frame(buf);
  ASSERT_EQ(v.count(), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    EXPECT_EQ(v.id(j), 1000 + j);
    ASSERT_EQ(v.payload(j).size(), j);
    for (std::uint32_t b = 0; b < j; ++b) {
      EXPECT_EQ(v.payload(j)[b], static_cast<std::byte>(j ^ b));
    }
  }
}

TEST(ExchangeWireFormat, TruncatedFramesAreRejected) {
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/5, /*origin=*/0, frame_flow_id(5, 0, 1),
                /*count=*/2);
  w.begin_sample(7);
  buf.push_back(std::byte{0xAA});
  w.begin_sample(8);
  w.finish();

  // Any strict prefix must be rejected: short body, short offset table,
  // short fixed header, empty frame.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(
        (void)parse_frame(std::span<const std::byte>(buf.data(), len)),
        CheckError)
        << "prefix of " << len << " bytes parsed";
  }
  // The full frame parses.
  EXPECT_NO_THROW((void)parse_frame(buf));
}

TEST(ExchangeWireFormat, CorruptOffsetTablesAreRejected) {
  const auto make = [] {
    std::vector<std::byte> buf;
    FrameWriter w(buf, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0,
                  /*count=*/2);
    w.begin_sample(1);
    buf.push_back(std::byte{0x11});
    w.begin_sample(2);
    w.finish();
    return buf;
  };

  {
    // offsets[0] != 0.
    auto buf = make();
    buf[kFrameOffsetsOff] = std::byte{1};
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
  {
    // Non-monotonic interior offset (sample shorter than its SampleId).
    auto buf = make();
    buf[kFrameOffsetsOff + 4] = std::byte{2};
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
  {
    // offsets[count] disagrees with the actual body size.
    auto buf = make();
    buf.push_back(std::byte{0x99});
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
}

// The frames the round-trip tests above pin: two samples with mixed
// payloads (the golden bytes), the empty frame, all-empty payloads, and
// variable-length payloads.
std::vector<std::vector<std::byte>> golden_frames() {
  std::vector<std::vector<std::byte>> frames;
  {
    auto& buf = frames.emplace_back();
    FrameWriter w(buf, 5, 3, frame_flow_id(5, 3, 1), 2);
    w.begin_sample(7);
    buf.push_back(std::byte{0xAA});
    buf.push_back(std::byte{0xBB});
    w.begin_sample(0xFFFFFFFFU);
    w.finish();
  }
  {
    auto& buf = frames.emplace_back();
    FrameWriter w(buf, 0, 0, 0, 0);
    w.finish();
  }
  {
    auto& buf = frames.emplace_back();
    FrameWriter w(buf, 42, 2, frame_flow_id(42, 2, 0), 17);
    for (std::uint32_t j = 0; j < 17; ++j) w.begin_sample(j * 3 + 1);
    w.finish();
  }
  {
    auto& buf = frames.emplace_back();
    FrameWriter w(buf, 1234567, 1, frame_flow_id(1234567, 1, 2), 9);
    for (std::uint32_t j = 0; j < 9; ++j) {
      w.begin_sample(1000 + j);
      for (std::uint32_t b = 0; b < j; ++b) {
        buf.push_back(static_cast<std::byte>(j ^ b));
      }
    }
    w.finish();
  }
  return frames;
}

// The property every byte string must satisfy: parse_frame rejects it with
// CheckError, or every sample's id and payload it hands out lie inside the
// buffer. The bytes are copied into an exactly-sized heap buffer, so a
// read past the end also trips AddressSanitizer.
void expect_rejected_or_in_bounds(std::span<const std::byte> bytes,
                                  const std::string& what) {
  const std::vector<std::byte> frame(bytes.begin(), bytes.end());
  FrameView v;
  try {
    v = parse_frame(frame);
  } catch (const CheckError&) {
    return;
  }
  const auto lo = reinterpret_cast<std::uintptr_t>(frame.data());
  const auto hi = lo + frame.size();
  for (std::uint32_t j = 0; j < v.count(); ++j) {
    const auto body = v.payload(j);
    const auto at = reinterpret_cast<std::uintptr_t>(body.data());
    ASSERT_GE(at, lo + sizeof(SampleId)) << what << ": sample " << j;
    ASSERT_LE(at + body.size(), hi) << what << ": sample " << j;
    (void)v.id(j);
  }
}

void put_u32_at(std::vector<std::byte>& buf, std::size_t at,
                std::uint32_t v) {
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

TEST(ExchangeWireFormat, MutatedGoldenFramesAreRejectedOrStayInBounds) {
  const auto frames = golden_frames();
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto& golden = frames[f];
    const std::string tag = "frame " + std::to_string(f);
    std::uint32_t count = 0;
    std::memcpy(&count, golden.data() + kFrameCountOff, sizeof(count));
    const std::size_t header = frame_header_bytes(count);
    const std::size_t body = golden.size() - header;

    // Every single-bit flip of the header and offset table.
    for (std::size_t at = 0; at < header; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        auto buf = golden;
        buf[at] ^= static_cast<std::byte>(1U << bit);
        expect_rejected_or_in_bounds(buf, tag + " bit " +
                                              std::to_string(at * 8 + bit));
      }
    }
    // Every truncation length.
    for (std::size_t len = 0; len < golden.size(); ++len) {
      expect_rejected_or_in_bounds(
          std::span<const std::byte>(golden.data(), len),
          tag + " truncated to " + std::to_string(len));
    }
    // Overlapping and out-of-range offsets, one table entry at a time.
    const std::uint32_t extremes[] = {
        0U, 1U, 3U, 4U, static_cast<std::uint32_t>(body - 1),
        static_cast<std::uint32_t>(body),
        static_cast<std::uint32_t>(body + 1), 0x7FFFFFFFU, 0xFFFFFFFCU,
        0xFFFFFFFFU};
    for (std::uint32_t j = 0; j <= count; ++j) {
      const std::size_t at = kFrameOffsetsOff + sizeof(std::uint32_t) * j;
      std::uint32_t cur = 0;
      std::memcpy(&cur, golden.data() + at, sizeof(cur));
      std::vector<std::uint32_t> values(std::begin(extremes),
                                        std::end(extremes));
      values.push_back(cur - 1);
      values.push_back(cur + 1);
      if (j > 0) {
        // Overlap the previous sample / step back before it.
        std::uint32_t prev = 0;
        std::memcpy(&prev, golden.data() + at - sizeof(prev), sizeof(prev));
        values.push_back(prev);
        values.push_back(prev + 1);
        values.push_back(prev - 1);
      }
      for (std::uint32_t value : values) {
        auto buf = golden;
        put_u32_at(buf, at, value);
        expect_rejected_or_in_bounds(buf, tag + " offsets[" +
                                              std::to_string(j) + "] = " +
                                              std::to_string(value));
      }
    }
    // Counts near 2^32, and off by one either way.
    for (std::uint32_t c : {count - 1, count + 1, 0x3FFFFFFFU, 0x40000000U,
                            0x7FFFFFFFU, 0x80000000U, 0xFFFFFFFEU,
                            0xFFFFFFFFU}) {
      auto buf = golden;
      put_u32_at(buf, kFrameCountOff, c);
      expect_rejected_or_in_bounds(buf, tag + " count " + std::to_string(c));
    }
    // Seeded random damage: a few byte overwrites anywhere, sometimes
    // followed by a truncation.
    Rng rng = Rng(0xF4A3E).fork(f);
    for (int trial = 0; trial < 500; ++trial) {
      auto buf = golden;
      const auto writes = 1 + rng.uniform_u64(4);
      for (std::uint64_t k = 0; k < writes; ++k) {
        buf[rng.uniform_u64(buf.size())] =
            static_cast<std::byte>(rng.uniform_u64(256));
      }
      if (rng.uniform_u64(4) == 0) buf.resize(rng.uniform_u64(buf.size()));
      expect_rejected_or_in_bounds(buf, tag + " trial " +
                                            std::to_string(trial));
    }
  }
}

TEST(ExchangeWireFormat, WriterEnforcesTheDeclaredCount) {
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0, /*count=*/1);
  w.begin_sample(3);
  EXPECT_THROW(w.begin_sample(4), CheckError);  // one too many

  std::vector<std::byte> buf2;
  FrameWriter w2(buf2, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0,
                 /*count=*/2);
  w2.begin_sample(3);
  EXPECT_THROW(w2.finish(), CheckError);  // one too few
}

// ------------------------------------------------- end-to-end identity --

std::vector<std::vector<SampleId>> make_shards(std::size_t n, int workers) {
  std::vector<std::vector<SampleId>> shards(
      static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(workers)].push_back(
        static_cast<SampleId>(i));
  }
  return shards;
}

// Run `epochs` fast-path exchange epochs (with payloads and the shared
// post-shuffle) and return the final shards.
std::vector<std::vector<SampleId>> run_fast_epochs(std::size_t n, int m,
                                                   double q,
                                                   std::uint64_t seed,
                                                   std::size_t epochs) {
  auto shards = make_shards(n, m);
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(
          c, store, seed, epoch, q, min_shard,
          /*payload=*/
          [](SampleId id, std::vector<std::byte>& out) {
            out.insert(out.end(), (id % 5) + 1,
                       static_cast<std::byte>(id & 0xFF));
          },
          /*deposit=*/
          [](SampleId id, std::span<const std::byte> body) {
            ASSERT_EQ(body.size(), (id % 5) + 1);
            for (auto b : body) {
              ASSERT_EQ(b, static_cast<std::byte>(id & 0xFF));
            }
          });
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }
  std::vector<std::vector<SampleId>> out;
  for (const auto& s : stores) out.push_back(s.ids());
  return out;
}

TEST(ExchangeWireEquivalence, FastPathsBitIdenticalAcrossSeedsAndQuotas) {
  // Framing is a pure re-encoding: for every (seed, Q, M) the post-epoch
  // shard SEQUENCES (not just sets) must match the sequential driver
  // exactly, with variable-length payloads delivered intact.
  const struct {
    std::size_t n;
    int m;
    double q;
    std::uint64_t seed;
  } cases[] = {
      {48, 6, 0.25, 3},
      {48, 6, 1.0, 4},
      {40, 5, 0.5, 99},
      {16, 4, 0.1, 7},
      {6, 6, 1.0, 11},  // shard = 1: every sample in flight
  };
  for (const auto& c : cases) {
    PartialLocalShuffler pls(make_shards(c.n, c.m), c.q, c.seed);
    for (std::size_t epoch = 0; epoch < 3; ++epoch) pls.begin_epoch(epoch);
    std::vector<std::vector<SampleId>> reference;
    for (const auto& store : pls.stores()) reference.push_back(store.ids());
    EXPECT_EQ(run_fast_epochs(c.n, c.m, c.q, c.seed, 3), reference)
        << "exchange diverged from the sequential driver at n=" << c.n
        << " m=" << c.m << " q=" << c.q << " seed=" << c.seed;
  }
}

}  // namespace
}  // namespace dshuf::shuffle
