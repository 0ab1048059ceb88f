// Copyright 2026 The DOD Authors.

#include "io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "data/generators.h"

namespace dod {
namespace {

class CsvTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/dod_csv_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTripIsExact) {
  const Dataset original =
      GenerateUniform(500, Rect::Cube(3, -10.0, 10.0), 42);
  ASSERT_TRUE(WriteCsv(original, path_).ok());
  Result<Dataset> read = ReadCsv(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), original.size());
  EXPECT_EQ(read.value().raw(), original.raw());
}

TEST_F(CsvTest, InfersDimsFromFirstRow) {
  WriteFile("1.0,2.0\n3.0,4.0\n");
  Result<Dataset> read = ReadCsv(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().dims(), 2);
  EXPECT_EQ(read.value().size(), 2u);
}

TEST_F(CsvTest, SkipRowsSkipsHeader) {
  WriteFile("x,y\n1.0,2.0\n");
  CsvOptions options;
  options.skip_rows = 1;
  Result<Dataset> read = ReadCsv(path_, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().size(), 1u);
}

TEST_F(CsvTest, ColumnSelectionExtractsCoordinates) {
  // OpenStreetMap-style rows: ID, timestamp, longitude, latitude.
  WriteFile("17,1450000000,-71.05,42.36\n18,1450000001,-71.06,42.37\n");
  CsvOptions options;
  options.columns = {2, 3};
  Result<Dataset> read = ReadCsv(path_, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_DOUBLE_EQ(read.value()[0][0], -71.05);
  EXPECT_DOUBLE_EQ(read.value()[1][1], 42.37);
}

TEST_F(CsvTest, ReportsBadNumberWithLine) {
  WriteFile("1.0,2.0\n1.0,oops\n");
  Result<Dataset> read = ReadCsv(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("line 2"), std::string::npos);
}

TEST_F(CsvTest, ReportsFieldCountMismatch) {
  WriteFile("1.0,2.0\n1.0\n");
  Result<Dataset> read = ReadCsv(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, MissingColumnIsAnError) {
  WriteFile("1.0,2.0\n");
  CsvOptions options;
  options.columns = {0, 5};
  EXPECT_FALSE(ReadCsv(path_, options).ok());
}

TEST_F(CsvTest, MoreColumnsThanMaxDimensionsIsAnError) {
  // Nine selected columns would build a 9-dimensional dataset, past
  // kMaxDimensions: a structured error, not an abort.
  WriteFile("0,1,2,3,4,5,6,7,8\n");
  CsvOptions options;
  options.columns = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const Result<Dataset> read = ReadCsv(path_, options);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  Result<Dataset> read = ReadCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, CustomDelimiter) {
  WriteFile("1.0\t2.0\n");
  CsvOptions options;
  options.delimiter = '\t';
  Result<Dataset> read = ReadCsv(path_, options);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().dims(), 2);
}

TEST_F(CsvTest, RejectsNonFiniteCoordinates) {
  // strtod parses "nan" and "inf" happily; the loader must not let them
  // through into the pipeline.
  for (const char* bad : {"1.0,2.0\nnan,3.0\n", "1.0,inf\n", "-inf,0\n"}) {
    WriteFile(bad);
    const Result<Dataset> read = ReadCsv(path_);
    ASSERT_FALSE(read.ok()) << bad;
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(CsvTest, SkipsEmptyLines) {
  WriteFile("1.0,2.0\n\n3.0,4.0\n");
  Result<Dataset> read = ReadCsv(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 2u);
}

}  // namespace
}  // namespace dod
