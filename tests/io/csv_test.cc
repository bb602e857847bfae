#include "io/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace hta {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto fields = ParseCsvLine("a,,c,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(ParseCsvLineTest, SingleField) {
  auto fields = ParseCsvLine("lonely");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"lonely"}));
}

TEST(ParseCsvLineTest, EmptyLineIsOneEmptyField) {
  auto fields = ParseCsvLine("");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 1u);
}

TEST(ParseCsvLineTest, QuotedFieldWithComma) {
  auto fields = ParseCsvLine("\"a,b\",c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvLineTest, DoubledQuotes) {
  auto fields = ParseCsvLine("\"say \"\"hi\"\"\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "say \"hi\"");
}

TEST(ParseCsvLineTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

TEST(ParseCsvLineTest, RejectsTrailingAfterQuote) {
  EXPECT_FALSE(ParseCsvLine("\"a\"b,c").ok());
}

TEST(ParseCsvLineTest, RejectsQuoteMidField) {
  EXPECT_FALSE(ParseCsvLine("ab\"c\",d").ok());
}

TEST(FormatCsvLineTest, RoundTripsThroughParse) {
  const std::vector<std::string> fields{"plain", "with,comma",
                                        "with \"quotes\"", ""};
  auto parsed = ParseCsvLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

class CsvFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: ctest runs the tests of this fixture as
  // concurrent processes.
  std::string path_ =
      ::testing::TempDir() + "/hta_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvFileTest, WriteAndReadBack) {
  CsvFile file;
  file.header = {"x", "y"};
  file.rows = {{"1", "a,b"}, {"2", "plain"}};
  ASSERT_TRUE(WriteCsvFile(path_, file).ok());
  auto loaded = ReadCsvFile(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, file.header);
  EXPECT_EQ(loaded->rows, file.rows);
}

TEST_F(CsvFileTest, MissingFileIsNotFound) {
  auto r = ReadCsvFile(path_ + ".nope");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(CsvFileTest, ArityMismatchRejected) {
  std::ofstream out(path_);
  out << "a,b\n1,2\n1,2,3\n";
  out.close();
  auto r = ReadCsvFile(path_);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvFileTest, SkipsBlankLinesAndCrlf) {
  std::ofstream out(path_);
  out << "a,b\r\n\r\n1,2\r\n\n3,4\n";
  out.close();
  auto r = ReadCsvFile(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST_F(CsvFileTest, HeaderOnlyFileIsValid) {
  std::ofstream out(path_);
  out << "a,b\n";
  out.close();
  auto r = ReadCsvFile(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(CsvFileTest, EmptyFileRejected) {
  std::ofstream out(path_);
  out.close();
  EXPECT_FALSE(ReadCsvFile(path_).ok());
}

}  // namespace
}  // namespace hta
