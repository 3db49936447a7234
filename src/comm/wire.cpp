#include "comm/wire.hpp"

#include <cstdio>
#include <limits>
#include <string>

#include "support/binio.hpp"
#include "support/check.hpp"

namespace nadmm::comm::wire {

namespace {

constexpr std::size_t kChecksumOffset = 40;

std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) {
  // Header with the checksum field zeroed, then the payload. The
  // encoder writes the checksum last, so hashing [0, 40) + [48, end)
  // is equivalent and avoids a copy. Word-wise FNV-1a: both spans are
  // multiples of 8 (40-byte prefix, 8-byte doubles), and the 8-bytes-
  // per-multiply chain is what keeps large-frame checksum cost from
  // dominating encode/decode (see bench_wire).
  std::uint64_t h = binio::fnv1a_words(bytes.subspan(0, kChecksumOffset));
  return binio::fnv1a_words(bytes.subspan(kHeaderBytes), h);
}

[[noreturn]] void reject(const std::string& why) {
  throw RuntimeError("wire decode: " + why);
}

}  // namespace

std::vector<std::uint8_t> encode(const Frame& frame) {
  binio::ByteWriter w;
  w.reserve(static_cast<std::size_t>(frame_bytes(frame.payload.size())));
  w.put_u32(kMagic);
  w.put_u16(kWireVersion);
  w.put_u16(static_cast<std::uint16_t>(frame.kind));
  w.put_u32(static_cast<std::uint32_t>(frame.from));
  w.put_u32(static_cast<std::uint32_t>(frame.to));
  w.put_u32(static_cast<std::uint32_t>(frame.tag));
  w.put_u32(0);  // reserved
  w.put_u64(frame.link_seq);
  w.put_u64(frame.payload.size());
  w.put_u64(0);  // checksum placeholder
  w.put_f64_array(frame.payload);

  std::vector<std::uint8_t> bytes = w.take();
  const std::uint64_t sum = frame_checksum(bytes);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kChecksumOffset + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  return bytes;
}

Frame decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    reject("truncated header — " + std::to_string(bytes.size()) +
           " bytes, need " + std::to_string(kHeaderBytes));
  }
  binio::ByteReader r(bytes, "wire frame");
  const std::uint32_t magic = r.get_u32();
  if (magic != kMagic) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", magic);
    reject("bad magic 0x" + std::string(buf));
  }
  const std::uint16_t version = r.get_u16();
  if (version != kWireVersion) {
    reject("unsupported version " + std::to_string(version) + " (expected " +
           std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t kind_raw = r.get_u16();
  if (kind_raw > static_cast<std::uint16_t>(FrameKind::kNack)) {
    reject("unknown frame kind " + std::to_string(kind_raw));
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind_raw);
  frame.from = static_cast<int>(r.get_u32());
  frame.to = static_cast<int>(r.get_u32());
  frame.tag = static_cast<int>(r.get_u32());
  r.get_u32();  // reserved
  frame.link_seq = r.get_u64();
  const std::uint64_t payload_len = r.get_u64();
  const std::uint64_t expected_sum = r.get_u64();

  // frame_bytes wraps past 2^64 for absurd lengths; such a header can
  // never describe the frame it arrived in.
  if (payload_len >
      (std::numeric_limits<std::uint64_t>::max() - kHeaderBytes) / 8) {
    reject("length overflow — header declares " + std::to_string(payload_len) +
           " doubles");
  }
  if (bytes.size() != frame_bytes(payload_len)) {
    reject("length mismatch — header declares " + std::to_string(payload_len) +
           " doubles (" + std::to_string(frame_bytes(payload_len)) +
           " bytes), frame is " + std::to_string(bytes.size()) + " bytes");
  }
  const std::uint64_t actual_sum = frame_checksum(bytes);
  if (actual_sum != expected_sum) {
    reject("checksum mismatch — corrupted frame from rank " +
           std::to_string(frame.from) + " seq " +
           std::to_string(frame.link_seq));
  }
  r.get_f64_array(frame.payload, payload_len);
  r.expect_end();
  return frame;
}

}  // namespace nadmm::comm::wire
