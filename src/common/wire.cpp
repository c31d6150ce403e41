#include "common/wire.hpp"

#include <array>

#include "common/request_id.hpp"

namespace pvfs {

namespace {

/// Reflected CRC32C lookup table, built once at static initialization.
constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

}  // namespace

std::uint32_t Crc32c(std::span<const std::byte> data, std::uint32_t crc) {
  crc = ~crc;
  for (std::byte b : data) {
    crc = kCrc32cTable[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

std::vector<std::byte> SealFrame(std::vector<std::byte> frame) {
  return SealFrameWithId(std::move(frame), obs::CurrentRequestId());
}

std::vector<std::byte> SealFrameWithId(std::vector<std::byte> frame,
                                       std::uint64_t request_id) {
  for (size_t i = 0; i < kFrameIdBytes; ++i) {
    frame.push_back(
        std::byte{static_cast<std::uint8_t>(request_id >> (8 * i))});
  }
  std::uint32_t crc = Crc32c(frame);
  for (size_t i = 0; i < kFrameCrcBytes; ++i) {
    frame.push_back(std::byte{static_cast<std::uint8_t>(crc >> (8 * i))});
  }
  return frame;
}

Result<OpenedFrame> OpenFrameWithId(std::span<const std::byte> frame) {
  if (frame.size() < kFrameTrailerBytes) {
    return CorruptionError("frame shorter than its trailer");
  }
  std::span<const std::byte> sealed =
      frame.first(frame.size() - kFrameCrcBytes);
  std::uint32_t expect = 0;
  for (size_t i = 0; i < kFrameCrcBytes; ++i) {
    expect |= std::to_integer<std::uint32_t>(frame[sealed.size() + i])
              << (8 * i);
  }
  if (Crc32c(sealed) != expect) {
    return CorruptionError("frame CRC32C mismatch");
  }
  OpenedFrame out;
  out.payload = sealed.first(sealed.size() - kFrameIdBytes);
  for (size_t i = 0; i < kFrameIdBytes; ++i) {
    out.request_id |=
        static_cast<std::uint64_t>(
            std::to_integer<std::uint8_t>(sealed[out.payload.size() + i]))
        << (8 * i);
  }
  return out;
}

Result<std::span<const std::byte>> OpenFrame(
    std::span<const std::byte> frame) {
  PVFS_ASSIGN_OR_RETURN(OpenedFrame opened, OpenFrameWithId(frame));
  return opened.payload;
}

Result<std::uint8_t> WireReader::U8() { return ReadLe<std::uint8_t>(); }
Result<std::uint16_t> WireReader::U16() { return ReadLe<std::uint16_t>(); }
Result<std::uint32_t> WireReader::U32() { return ReadLe<std::uint32_t>(); }
Result<std::uint64_t> WireReader::U64() { return ReadLe<std::uint64_t>(); }

Result<std::int64_t> WireReader::I64() {
  PVFS_ASSIGN_OR_RETURN(std::uint64_t raw, ReadLe<std::uint64_t>());
  return static_cast<std::int64_t>(raw);
}

Result<std::vector<std::byte>> WireReader::Bytes() {
  PVFS_ASSIGN_OR_RETURN(std::uint32_t n, U32());
  // Validate the prefix against the bytes actually present BEFORE any
  // allocation happens: a hostile/corrupt length (e.g. 0xFFFFFFFF) must
  // yield a typed decode error, never a multi-GB allocation attempt.
  if (n > remaining()) {
    return ProtocolError("wire: length prefix exceeds remaining bytes");
  }
  return Raw(n);
}

Result<std::string> WireReader::String() {
  PVFS_ASSIGN_OR_RETURN(std::vector<std::byte> raw, Bytes());
  std::string s(raw.size(), '\0');
  // An empty vector's data() may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (!raw.empty()) std::memcpy(s.data(), raw.data(), raw.size());
  return s;
}

Result<std::vector<std::byte>> WireReader::Raw(size_t n) {
  if (remaining() < n) {
    return ProtocolError("wire: truncated payload");
  }
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace pvfs
