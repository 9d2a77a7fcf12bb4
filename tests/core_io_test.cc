#include "core/io.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "allocation_cap.h"

namespace tsaug::core {
namespace {

TEST(SeriesCsv, WritesHeaderAndRows) {
  TimeSeries s = TimeSeries::FromChannels({{1, 2}, {3, 4}});
  std::ostringstream out;
  WriteSeriesCsv(s, out);
  EXPECT_EQ(out.str(), "t,ch0,ch1\n0,1,3\n1,2,4\n");
}

TEST(SeriesCsv, EmitsNaNLiteral) {
  TimeSeries s = TimeSeries::FromChannels({{1, std::nan("")}});
  std::ostringstream out;
  WriteSeriesCsv(s, out);
  EXPECT_NE(out.str().find("NaN"), std::string::npos);
}

TEST(DatasetCsv, RoundTripsThroughStream) {
  Dataset data;
  data.Add(TimeSeries::FromChannels({{1.5, 2.5}, {3.5, 4.5}}), 0);
  data.Add(TimeSeries::FromChannels({{-1, 0}, {7, 8}}), 2);

  std::stringstream buffer;
  WriteDatasetCsv(data, buffer);
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCsv(buffer, &loaded));
  ASSERT_EQ(loaded.size(), 2);
  EXPECT_EQ(loaded.series(0), data.series(0));
  EXPECT_EQ(loaded.series(1), data.series(1));
  EXPECT_EQ(loaded.label(0), 0);
  EXPECT_EQ(loaded.label(1), 2);
}

TEST(DatasetCsv, RoundTripsNaN) {
  Dataset data;
  data.Add(TimeSeries::FromChannels({{1, std::nan(""), 3}}), 1);
  std::stringstream buffer;
  WriteDatasetCsv(data, buffer);
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCsv(buffer, &loaded));
  EXPECT_TRUE(std::isnan(loaded.series(0).at(0, 1)));
  EXPECT_DOUBLE_EQ(loaded.series(0).at(0, 2), 3.0);
}

TEST(DatasetCsv, RejectsGarbage) {
  std::stringstream buffer("not,a,valid\nheader at all");
  Dataset loaded;
  EXPECT_FALSE(ReadDatasetCsv(buffer, &loaded));
}

TEST(DatasetCsv, RejectsFieldsOutsideInt) {
  // 99999999999 does not fit an int label; it must not wrap to one.
  for (const char* row : {"0,99999999999,0,0,1.5", "0,0,0,2147483648,1.5",
                          "0,-1,0,0,1.5", "0,+1,0,0,1.5", "0,1,0,0,1.5x"}) {
    std::stringstream buffer(std::string("instance,label,channel,t,value\n") +
                             row + "\n");
    Dataset loaded;
    EXPECT_FALSE(ReadDatasetCsv(buffer, &loaded)) << row;
  }
}

TEST(DatasetCsv, RejectsTimeIndexBeyondRowCount) {
  // One row claiming t = 2^31 - 1 would size a 16 GiB channel. The reader
  // must reject it before allocating; allocation_cap.h turns any attempt
  // into a thrown bad_alloc, so the test fails instead of the host.
  std::istringstream hostile(
      "instance,label,channel,t,value\n0,0,0,2147483647,1\n");
  Dataset loaded;
  EXPECT_FALSE(ReadDatasetCsv(hostile, &loaded));
  EXPECT_EQ(loaded.size(), 0);

  // Every sample has its own row, so t must be below the data row count.
  std::istringstream gap("instance,label,channel,t,value\n"
                         "0,0,0,0,1\n0,0,0,2,3\n");
  EXPECT_FALSE(ReadDatasetCsv(gap, &loaded));
  std::istringstream shuffled("instance,label,channel,t,value\n"
                              "0,0,0,2,3\n0,0,0,0,1\n0,0,0,1,NaN\n");
  ASSERT_TRUE(ReadDatasetCsv(shuffled, &loaded));
  ASSERT_EQ(loaded.size(), 1);
  EXPECT_EQ(loaded.series(0).length(), 3);
  EXPECT_EQ(loaded.series(0).at(0, 2), 3.0);
  EXPECT_TRUE(std::isnan(loaded.series(0).at(0, 1)));
}

TEST(DatasetCsv, FileRoundTrip) {
  Dataset data;
  data.Add(TimeSeries::FromChannels({{9, 8, 7}}), 0);
  const std::string path = "/tmp/tsaug_io_test.csv";
  ASSERT_TRUE(WriteDatasetCsv(data, path));
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCsv(path, &loaded));
  EXPECT_EQ(loaded.series(0), data.series(0));
}

TEST(DatasetCsv, MissingFileFails) {
  Dataset loaded;
  EXPECT_FALSE(ReadDatasetCsv("/nonexistent/path.csv", &loaded));
}

}  // namespace
}  // namespace tsaug::core
