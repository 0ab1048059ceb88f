// Copyright 2026 The DOD Authors.

#include "io/binary.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "data/generators.h"

namespace dod {
namespace {

class BinaryIoTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/dod_binary_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(BinaryIoTest, RoundTripIsBitExact) {
  const Dataset original =
      GenerateUniform(4000, Rect::Cube(3, -1e6, 1e6), 42);
  ASSERT_TRUE(WriteBinary(original, path_).ok());
  Result<Dataset> read = ReadBinary(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().dims(), 3);
  EXPECT_EQ(read.value().raw(), original.raw());
}

TEST_F(BinaryIoTest, EmptyDatasetRoundTrips) {
  Dataset empty(2);
  ASSERT_TRUE(WriteBinary(empty, path_).ok());
  Result<Dataset> read = ReadBinary(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
  EXPECT_EQ(read.value().dims(), 2);
}

TEST_F(BinaryIoTest, RejectsWrongMagic) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTADODFILE and some payload";
  out.close();
  Result<Dataset> read = ReadBinary(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, RejectsTruncatedPayload) {
  const Dataset original = GenerateUniform(100, Rect::Cube(2, 0.0, 1.0), 7);
  ASSERT_TRUE(WriteBinary(original, path_).ok());
  // Chop the last 16 bytes.
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 16));
  out.close();
  EXPECT_FALSE(ReadBinary(path_).ok());
}

TEST_F(BinaryIoTest, RejectsTrailingGarbage) {
  const Dataset original = GenerateUniform(50, Rect::Cube(2, 0.0, 1.0), 9);
  ASSERT_TRUE(WriteBinary(original, path_).ok());
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_FALSE(ReadBinary(path_).ok());
}

TEST_F(BinaryIoTest, RejectsNonFinitePayloadValues) {
  // NaN bit patterns round-trip perfectly through the raw-double payload,
  // so the reader has to reject them by value.
  Dataset poisoned(2);
  poisoned.Append(Point{1.0, 2.0});
  poisoned.Append(Point{std::numeric_limits<double>::quiet_NaN(), 0.0});
  ASSERT_TRUE(WriteBinary(poisoned, path_).ok());
  const Result<Dataset> read = ReadBinary(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

// Writes a DODBIN1 header claiming `count` points of `dims` dimensions,
// followed by `payload_doubles` zero coordinates.
void WriteHeader(const std::string& path, uint32_t dims, uint64_t count,
                 size_t payload_doubles) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const char magic[8] = {'D', 'O', 'D', 'B', 'I', 'N', '1', '\0'};
  out.write(magic, sizeof(magic));
  out.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const std::vector<double> payload(payload_doubles, 0.0);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(double)));
}

TEST_F(BinaryIoTest, HugeHeaderCountIsRejectedBeforeAllocating) {
  // 2^40 two-dimensional points would need 16 TiB; the file holds one
  // point. Sizing the payload from the header alone throws bad_alloc.
  WriteHeader(path_, 2, uint64_t{1} << 40, 2);
  const Result<Dataset> read = ReadBinary(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, WrappingHeaderCountIsRejected) {
  // 2^61 points x 8 dims wraps count * dims to 0 in 64-bit arithmetic, so
  // an empty payload would read back as an empty dataset.
  WriteHeader(path_, 8, uint64_t{1} << 61, 0);
  const Result<Dataset> read = ReadBinary(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, MissingFileIsIoError) {
  Result<Dataset> read = ReadBinary("/nonexistent/data.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dod
