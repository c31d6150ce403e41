#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/wire.hpp"

namespace pvfs {
namespace {

// ---- Status / Result ------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such thing");
}

TEST(Status, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kBusy); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(Status, RetryableCodesAreTransientOnly) {
  EXPECT_TRUE(IsRetryable(ErrorCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(ErrorCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryable(ErrorCode::kProtocol));
  EXPECT_TRUE(IsRetryable(ErrorCode::kCorruption));
  EXPECT_TRUE(IsRetryable(ErrorCode::kBusy));
  EXPECT_FALSE(IsRetryable(ErrorCode::kOk));
  EXPECT_FALSE(IsRetryable(ErrorCode::kNotFound));
  EXPECT_FALSE(IsRetryable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(ErrorCode::kAlreadyExists));
  EXPECT_FALSE(IsRetryable(ErrorCode::kInternal));
  // Lock conflicts come back as kResourceExhausted; they must NOT enter
  // the generic exchange retry loop (the lock path has its own backoff).
  EXPECT_FALSE(IsRetryable(ErrorCode::kResourceExhausted));
}

TEST(Status, BusyFactoryAndName) {
  Status s = Busy("queue full");
  EXPECT_EQ(s.code(), ErrorCode::kBusy);
  EXPECT_EQ(s.ToString(), "BUSY: queue full");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}
Result<int> Quarter(int x) {
  PVFS_ASSIGN_OR_RETURN(int half, Halve(x));
  PVFS_ASSIGN_OR_RETURN(int quarter, Halve(half));
  return quarter;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // fails at the second halving
  EXPECT_FALSE(Quarter(3).ok());
}

// ---- Wire -------------------------------------------------------------------

TEST(Wire, ScalarRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);

  WireReader r(w.data());
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64().value(), -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, LittleEndianLayout) {
  WireWriter w;
  w.U32(0x01020304);
  auto data = w.data();
  EXPECT_EQ(std::to_integer<int>(data[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(data[3]), 0x01);
}

TEST(Wire, StringAndBytesRoundTrip) {
  WireWriter w;
  w.String("hello");
  w.String("");
  WireReader r(w.data());
  EXPECT_EQ(r.String().value(), "hello");
  EXPECT_EQ(r.String().value(), "");
}

TEST(Wire, EmptyStringRoundTripsAlone) {
  // An empty string decodes from a zero length prefix with no bytes
  // behind it: nothing to copy, and no copy from a null buffer.
  WireWriter w;
  w.String("");
  EXPECT_EQ(w.data().size(), sizeof(std::uint32_t));
  WireReader r(w.data());
  auto decoded = r.String();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TruncatedReadsFail) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.data());
  EXPECT_FALSE(r.U32().ok());  // only two bytes available

  WireWriter w2;
  w2.U32(100);  // claims 100 bytes follow
  WireReader r2(w2.data());
  auto bytes = r2.Bytes();
  EXPECT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), ErrorCode::kProtocol);
}

TEST(Wire, RawConsumesExactly) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  w.U8(3);
  WireReader r(w.data());
  auto raw = r.Raw(2);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 2u);
  EXPECT_EQ(r.remaining(), 1u);
}

// ---- Pattern bytes -----------------------------------------------------------

TEST(Bytes, PatternIsDeterministicAndSeedSensitive) {
  EXPECT_EQ(PatternByte(1, 100), PatternByte(1, 100));
  // Different positions/seeds should differ for at least some samples.
  int diff = 0;
  for (FileOffset i = 0; i < 64; ++i) {
    if (PatternByte(1, i) != PatternByte(2, i)) ++diff;
  }
  EXPECT_GT(diff, 32);
}

TEST(Bytes, FillAndVerify) {
  ByteBuffer buf(256);
  FillPattern(buf, 7, 1000);
  EXPECT_FALSE(FindPatternMismatch(buf, 7, 1000).has_value());
  buf[100] = ~buf[100];
  auto mismatch = FindPatternMismatch(buf, 7, 1000);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(*mismatch, 100u);
}

TEST(Bytes, GatherScatterInverse) {
  ByteBuffer src(128);
  FillPattern(src, 3, 0);
  ExtentList extents{{0, 16}, {32, 8}, {100, 28}};
  ByteBuffer packed = GatherExtents(src, extents);
  EXPECT_EQ(packed.size(), 52u);

  ByteBuffer dst(128, std::byte{0});
  ScatterExtents(packed, extents, dst);
  for (const Extent& e : extents) {
    for (FileOffset i = e.offset; i < e.end(); ++i) {
      EXPECT_EQ(dst[i], src[i]) << "at " << i;
    }
  }
  // Untouched bytes stay zero.
  EXPECT_EQ(dst[20], std::byte{0});
}

// ---- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  SplitMix64 a(99);
  SplitMix64 b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformStaysInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.Uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace pvfs
