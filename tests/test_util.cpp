#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/pgm.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fraz {
namespace {

// ---------------------------------------------------------------- Table

TEST(Table, AlignsColumnsAndPrintsRule) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), InvalidArgument); }

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ------------------------------------------------------------------ Cli

TEST(Cli, ParsesTypedFlags) {
  Cli cli("test");
  cli.add_string("name", "default", "a name");
  cli.add_double("ratio", 10.0, "a ratio");
  cli.add_int("steps", 5, "step count");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--name", "field", "--ratio=25.5", "--steps", "7", "--verbose"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_string("name"), "field");
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 25.5);
  EXPECT_EQ(cli.get_int("steps"), 7);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  Cli cli("test");
  cli.add_double("ratio", 10.0, "a ratio");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 10.0);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("test");
  cli.add_int("steps", 1, "steps");
  const char* argv[] = {"prog", "--steps"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli("test");
  cli.add_int("steps", 1, "steps");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_double("steps"), InvalidArgument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

// ------------------------------------------------------------------ PGM

TEST(Pgm, WritesValidHeaderAndPayload) {
  const std::string path = testing::TempDir() + "/fraz_test.pgm";
  std::vector<double> img = {0.0, 0.5, 1.0, 0.25, 0.75, 1.0};
  write_pgm(path, img, 3, 2);
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::string magic;
  std::size_t w = 0, h = 0;
  int maxval = 0;
  is >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 3u);
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(maxval, 255);
  is.get();  // single whitespace after header
  std::vector<char> data(6);
  is.read(data.data(), 6);
  EXPECT_TRUE(is.good());
  EXPECT_EQ(static_cast<unsigned char>(data[0]), 0);          // min maps to 0
  EXPECT_EQ(static_cast<unsigned char>(data[2]), 255);        // max maps to 255
  std::remove(path.c_str());
}

TEST(Pgm, RejectsSizeMismatch) {
  EXPECT_THROW(write_pgm("/tmp/x.pgm", {1.0, 2.0}, 3, 2), InvalidArgument);
}

// ---------------------------------------------------------------- Timer

TEST(Timer, MeasuresNonNegativeMonotoneTime) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// -------------------------------------------------------------- guarded

TEST(Guarded, MapsThrownErrorsAndPassesReturnedStatusesThrough) {
  const Result<int> value = guarded([] { return 7; });
  EXPECT_EQ(value.value(), 7);
  const Status thrown = guarded([] { throw CorruptStream("bad bytes"); });
  EXPECT_EQ(thrown.code(), StatusCode::kCorruptStream);
  EXPECT_EQ(thrown.message(), "bad bytes");

  // A body that returns its own failure keeps code and message as they are,
  // kInternal included (a throw/convert round trip would prefix it).
  const Status returned = guarded([] { return Status::internal("lost lock"); });
  EXPECT_EQ(returned.code(), StatusCode::kInternal);
  EXPECT_EQ(returned.message(), "lost lock");
  const Result<int> failed =
      guarded([]() -> Result<int> { return Status::io_error("short read"); });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(failed.status().message(), "short read");
}

}  // namespace
}  // namespace fraz
