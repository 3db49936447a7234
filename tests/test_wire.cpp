// Wire codec, fault-spec parsing, and fault-model determinism.
//
// The codec tests pin the byte layout (the header comment in
// comm/wire.hpp is a contract, not documentation) and the rejection
// paths a receiver relies on: truncation, bad magic, wrong version,
// length mismatch, and checksum failure must all throw with a message
// naming the violation. The fault-model tests pin the fixed-draw
// discipline that keeps faulty runs byte-deterministic.
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "comm/wire.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"

namespace {

using namespace nadmm;
using comm::wire::Frame;
using comm::wire::FrameKind;

Frame data_frame(std::vector<double> payload) {
  Frame f;
  f.kind = FrameKind::kData;
  f.from = 2;
  f.to = 0;
  f.tag = 7;
  f.link_seq = 41;
  f.payload = std::move(payload);
  return f;
}

TEST(WireCodec, RoundTripsHeaderAndPayload) {
  const Frame f = data_frame({1.0, -2.5, 3.25});
  const auto bytes = comm::wire::encode(f);
  ASSERT_EQ(bytes.size(), comm::wire::frame_bytes(3));

  const Frame g = comm::wire::decode(bytes);
  EXPECT_EQ(g.kind, FrameKind::kData);
  EXPECT_EQ(g.from, 2);
  EXPECT_EQ(g.to, 0);
  EXPECT_EQ(g.tag, 7);
  EXPECT_EQ(g.link_seq, 41u);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(WireCodec, ZeroLengthPayloadRoundTrips) {
  Frame f = data_frame({});
  f.kind = FrameKind::kAck;
  f.link_seq = 0;
  const auto bytes = comm::wire::encode(f);
  ASSERT_EQ(bytes.size(), comm::wire::kHeaderBytes);
  const Frame g = comm::wire::decode(bytes);
  EXPECT_EQ(g.kind, FrameKind::kAck);
  EXPECT_TRUE(g.payload.empty());
  EXPECT_EQ(g.link_seq, 0u);
}

TEST(WireCodec, MaxTagAndSeqSurvive) {
  Frame f = data_frame({0.0});
  f.tag = std::numeric_limits<int>::max();
  f.link_seq = std::numeric_limits<std::uint64_t>::max();
  const Frame g = comm::wire::decode(comm::wire::encode(f));
  EXPECT_EQ(g.tag, std::numeric_limits<int>::max());
  EXPECT_EQ(g.link_seq, std::numeric_limits<std::uint64_t>::max());
}

TEST(WireCodec, NonFiniteAndDenormalDoublesAreBitExact) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Frame f = data_frame({denormal, -denormal, inf, -inf, nan, -0.0});
  const Frame g = comm::wire::decode(comm::wire::encode(f));
  ASSERT_EQ(g.payload.size(), f.payload.size());
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &f.payload[i], sizeof(a));
    std::memcpy(&b, &g.payload[i], sizeof(b));
    EXPECT_EQ(a, b) << "payload[" << i << "] not bit-exact";
  }
}

TEST(WireCodec, HeaderLayoutIsLittleEndianAtFixedOffsets) {
  const Frame f = data_frame({1.0});
  const auto bytes = comm::wire::encode(f);
  // magic "NADM" little-endian at offset 0.
  EXPECT_EQ(bytes[0], 'N');
  EXPECT_EQ(bytes[1], 'A');
  EXPECT_EQ(bytes[2], 'D');
  EXPECT_EQ(bytes[3], 'M');
  // version 1 at offset 4, kind kData at offset 6.
  EXPECT_EQ(bytes[4], 1);
  EXPECT_EQ(bytes[5], 0);
  EXPECT_EQ(bytes[6], 0);
  EXPECT_EQ(bytes[7], 0);
  // from=2 at offset 8, to=0 at 12, tag=7 at 16, reserved zero at 20.
  EXPECT_EQ(bytes[8], 2);
  EXPECT_EQ(bytes[12], 0);
  EXPECT_EQ(bytes[16], 7);
  EXPECT_EQ(bytes[20], 0);
  // link_seq=41 at offset 24, payload_len=1 at 32.
  EXPECT_EQ(bytes[24], 41);
  EXPECT_EQ(bytes[32], 1);
}

TEST(WireCodec, TruncatedHeaderRejectedPrecisely) {
  const auto bytes = comm::wire::encode(data_frame({1.0}));
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 20);
  try {
    static_cast<void>(comm::wire::decode(cut));
    FAIL() << "truncated header accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, TruncatedPayloadRejectedPrecisely) {
  auto bytes = comm::wire::encode(data_frame({1.0, 2.0}));
  bytes.resize(bytes.size() - 8);  // drop the last double
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "truncated payload accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("length mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, BadMagicRejected) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[0] ^= 0xFF;
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "bad magic accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, UnsupportedVersionRejected) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[4] = 9;  // version field, offset 4
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "wrong version accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, FlippedPayloadBitFailsChecksum) {
  auto bytes = comm::wire::encode(data_frame({1.0, 2.0}));
  bytes[comm::wire::kHeaderBytes + 3] ^= 0x10;
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "corrupted payload accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, FlippedHeaderBitFailsChecksum) {
  auto bytes = comm::wire::encode(data_frame({1.0}));
  bytes[17] ^= 0x01;  // inside the tag field
  EXPECT_THROW(static_cast<void>(comm::wire::decode(bytes)), RuntimeError);
}

TEST(WireCodec, WrappingPayloadLengthIsANamedError) {
  // A header declaring 2^61 doubles: frame_bytes(2^61) wraps to the bare
  // 48-byte header, so only an overflow check tells this frame apart
  // from an empty one. The checksum is valid, so nothing else rejects it.
  auto bytes = comm::wire::encode(data_frame({}));
  ASSERT_EQ(bytes.size(), comm::wire::kHeaderBytes);
  const std::uint64_t len = std::uint64_t{1} << 61;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[32 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  const std::uint64_t sum = binio::fnv1a_words(
      std::span<const std::uint8_t>(bytes).subspan(0, 40));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[40 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  try {
    static_cast<void>(comm::wire::decode(bytes));
    FAIL() << "frame with a wrapping length accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("length"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// FaultSpec parsing.
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesSubsetsInAnyOrder) {
  const auto s = comm::FaultSpec::parse("dup:0.02,drop:0.05");
  EXPECT_DOUBLE_EQ(s.drop, 0.05);
  EXPECT_DOUBLE_EQ(s.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(s.reorder, 0.0);
  EXPECT_DOUBLE_EQ(s.corrupt, 0.0);
  EXPECT_TRUE(s.any());
}

TEST(FaultSpec, NoneAndEmptyAreCleanLinks) {
  EXPECT_FALSE(comm::FaultSpec::parse("none").any());
  EXPECT_FALSE(comm::FaultSpec::parse("").any());
}

TEST(FaultSpec, PlusJoinsClausesForSweepAxisEntries) {
  const auto s = comm::FaultSpec::parse("drop:0.1+reorder:0.03");
  EXPECT_DOUBLE_EQ(s.drop, 0.1);
  EXPECT_DOUBLE_EQ(s.reorder, 0.03);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const auto s =
      comm::FaultSpec::parse("drop:0.05,dup:0.01,reorder:0.02,corrupt:0.005");
  const auto t = comm::FaultSpec::parse(s.to_string());
  EXPECT_DOUBLE_EQ(t.drop, s.drop);
  EXPECT_DOUBLE_EQ(t.duplicate, s.duplicate);
  EXPECT_DOUBLE_EQ(t.reorder, s.reorder);
  EXPECT_DOUBLE_EQ(t.corrupt, s.corrupt);
}

TEST(FaultSpec, RejectsUnknownKindBadNumberAndOutOfRange) {
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("lose:0.1")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop:zero")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop:1.5")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(comm::FaultSpec::parse("drop")),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// FaultModel determinism.
// ---------------------------------------------------------------------------

TEST(FaultModel, SameSeedAndLinkReplaysIdenticalDecisions) {
  const auto spec = comm::FaultSpec::parse("drop:0.2,dup:0.1,reorder:0.1");
  comm::FaultModel a(spec, 42, 1, 0);
  comm::FaultModel b(spec, 42, 1, 0);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.next(1e-3);
    const auto db = b.next(1e-3);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_DOUBLE_EQ(da.delay, db.delay);
    EXPECT_DOUBLE_EQ(da.dup_delay, db.dup_delay);
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit);
  }
}

TEST(FaultModel, LinksDrawIndependentStreams) {
  const auto spec = comm::FaultSpec::parse("drop:0.5");
  comm::FaultModel ab(spec, 42, 0, 1);
  comm::FaultModel ba(spec, 42, 1, 0);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (ab.next(1e-3).drop != ba.next(1e-3).drop) ++differing;
  }
  EXPECT_GT(differing, 0) << "reverse link mirrors the forward link";
}

TEST(FaultModel, DrawCountIsFixedRegardlessOfOutcomes) {
  // A model that never fires and one that always drops must consume the
  // same number of uniforms per decision: after N decisions each, a
  // third model seeded identically to the first must still agree with
  // it. (If firing consumed extra draws, the streams would diverge.)
  const auto never = comm::FaultSpec::parse("none");
  const auto always = comm::FaultSpec::parse("drop:1.0");
  comm::FaultModel quiet(never, 7, 0, 1);
  comm::FaultModel noisy(always, 7, 0, 1);
  for (int i = 0; i < 50; ++i) {
    static_cast<void>(quiet.next(1e-3));
    const auto d = noisy.next(1e-3);
    EXPECT_TRUE(d.drop);
  }
  // Both consumed 50 decisions; replay decision 51 on fresh models and
  // the underlying streams must line up with a 51-step fresh run.
  comm::FaultModel fresh(always, 7, 0, 1);
  comm::FaultDecision last;
  for (int i = 0; i < 51; ++i) last = fresh.next(1e-3);
  const auto next_noisy = noisy.next(1e-3);
  EXPECT_EQ(last.drop, next_noisy.drop);
  EXPECT_DOUBLE_EQ(last.delay, next_noisy.delay);
  EXPECT_EQ(last.corrupt_bit, next_noisy.corrupt_bit);
}

// ---------------------------------------------------------------------------
// binio bounds checking (the checkpoint reader's failure mode).
// ---------------------------------------------------------------------------

TEST(ByteReader, TruncationNamesTheMissingField) {
  binio::ByteWriter w;
  w.put_u64(3);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "test blob");
  EXPECT_EQ(r.get_u64(), 3u);
  try {
    static_cast<void>(r.get_f64());
    FAIL() << "read past the end accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("test blob"), std::string::npos)
        << e.what();
  }
}

TEST(ByteReader, GetRawIsBoundsChecked) {
  binio::ByteWriter w;
  w.put_u64(7);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "raw blob");
  EXPECT_EQ(r.get_raw(8).size(), 8u);
  EXPECT_THROW(static_cast<void>(r.get_raw(1)), RuntimeError);
}

TEST(ByteReader, F64ArrayLengthThatWrapsIsTruncationNotAnAllocation) {
  // 2^61 doubles is 2^64 bytes, which wraps to 0 in a byte count.
  binio::ByteWriter w;
  w.put_u64(std::uint64_t{1} << 61);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "wrapped blob");
  try {
    static_cast<void>(r.get_f64_vector());
    FAIL() << "f64 vector with a wrapping length accepted";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(ByteReader, ZeroLengthF64ArrayFromAnEmptyBuffer) {
  // Both the source span and the destination vector have null data();
  // the read must not hand them to memcpy (undefined even for 0 bytes,
  // and an abort under -fsanitize=undefined without recovery).
  binio::ByteReader r(std::span<const std::uint8_t>{}, "empty blob");
  std::vector<double> out;
  r.get_f64_array(out, 0);
  EXPECT_TRUE(out.empty());
  r.expect_end();
}

TEST(ByteReader, ExpectEndRejectsTrailingBytes) {
  binio::ByteWriter w;
  w.put_u32(1);
  const auto bytes = w.take();
  binio::ByteReader r(bytes, "trailing blob");
  EXPECT_THROW(r.expect_end(), RuntimeError);
}

}  // namespace
