#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/lfu_index.hpp"
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

// ------------------------------------------------------------- LfuIndex

using Lfu = LfuIndex<int, int>;

/// Insert (key, value) at \p cost; returns the evictions and the keys the
/// insert dropped (replaced or evicted), lowest rank first.
std::pair<std::size_t, std::vector<int>> put(Lfu& index, int key, int value,
                                             std::size_t cost) {
  Lfu::Nodes dropped;
  const std::size_t evicted = index.insert(Lfu::stage(key, value, cost), dropped);
  std::vector<int> keys;
  for (const auto& entry : dropped.entries) keys.push_back(entry.key);
  return {evicted, keys};
}

TEST(LfuIndex, CostIsAccountedAgainstTheBudget) {
  Lfu index(10);
  put(index, 1, 10, 3);
  put(index, 2, 20, 4);
  put(index, 3, 30, 2);
  EXPECT_EQ(index.cost(), 9u);
  EXPECT_EQ(index.size(), 3u);

  // 9 + 5 > 10: the lowest ranks leave, oldest first, until 5 fits.
  const auto [evicted, keys] = put(index, 4, 40, 5);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(keys, (std::vector<int>{1, 2}));
  EXPECT_EQ(index.cost(), 7u);
  EXPECT_TRUE(index.contains(3));
  EXPECT_TRUE(index.contains(4));

  // A hit lifts key 3 above key 4, so key 4 is the next victim, and the
  // floor takes its rank.
  ASSERT_NE(index.touch(3), nullptr);
  EXPECT_EQ(*index.touch(3), 30);
  EXPECT_EQ(put(index, 5, 50, 6).second, std::vector<int>{4});
  EXPECT_EQ(index.floor(), 0u);
  EXPECT_EQ(index.cost(), 8u);
  EXPECT_EQ(put(index, 6, 60, 3).second, std::vector<int>{5});
  EXPECT_LE(index.cost(), 10u);
  EXPECT_EQ(index.touch(5), nullptr);
}

TEST(LfuIndex, FloorRisesToTheVictimsRank) {
  Lfu index(2);
  put(index, 1, 0, 1);
  put(index, 2, 0, 1);
  for (int i = 0; i < 3; ++i) index.touch(1);  // rank 3
  index.touch(2);                              // rank 1
  put(index, 3, 0, 1);                         // evicts 2 at rank 1
  EXPECT_EQ(index.floor(), 1u);
  EXPECT_FALSE(index.contains(2));
  index.touch(3);  // admitted at 1, now 2
  index.touch(3);  // 3
  put(index, 4, 0, 1);  // ranks tie at 3: key 1, touched earlier, leaves
  EXPECT_EQ(index.floor(), 3u);
  EXPECT_FALSE(index.contains(1));
  EXPECT_TRUE(index.contains(3));
}

TEST(LfuIndex, ReplayIsDeterministic) {
  auto replay = [](Lfu& index) {
    std::mt19937 rng(11);
    std::vector<std::size_t> evictions;
    for (int step = 0; step < 2000; ++step) {
      const int key = static_cast<int>(rng() % 64);
      if (rng() % 3 == 0 || index.touch(key) == nullptr)
        evictions.push_back(put(index, key, step, 1 + rng() % 7).first);
    }
    return evictions;
  };
  Lfu a(40), b(40);
  EXPECT_EQ(replay(a), replay(b));
  EXPECT_EQ(a.floor(), b.floor());
  EXPECT_EQ(a.cost(), b.cost());
  EXPECT_LE(a.cost(), 40u);
  for (int key = 0; key < 64; ++key) {
    ASSERT_EQ(a.contains(key), b.contains(key)) << key;
    if (a.contains(key)) {
      EXPECT_EQ(*a.touch(key), *b.touch(key)) << key;
    }
  }
}

TEST(LfuIndex, MatchesTheRuleOnARandomStream) {
  // The rule written out naively: every entry carries (rank, last touch),
  // and a victim is the minimum of that pair.
  struct Model {
    int value;
    std::size_t cost;
    std::uint64_t rank;
    std::uint64_t touched;
  };
  std::map<int, Model> model;
  std::uint64_t floor = 0, clock = 0;
  std::size_t resident = 0;
  const std::size_t budget = 30;

  Lfu index(budget);
  std::mt19937 rng(5);
  for (int step = 0; step < 5000; ++step) {
    const int key = static_cast<int>(rng() % 48);
    const auto it = model.find(key);
    const int* hit = index.touch(key);
    ASSERT_EQ(hit != nullptr, it != model.end()) << step;
    if (hit) {
      EXPECT_EQ(*hit, it->second.value) << step;
      ++it->second.rank;
      it->second.touched = ++clock;
      if (rng() % 4 != 0) continue;
    }
    const std::size_t cost = 1 + rng() % 9;
    std::vector<int> expected;
    if (auto old = model.find(key); old != model.end()) {
      resident -= old->second.cost;
      model.erase(old);
      expected.push_back(key);
    }
    while (!model.empty() && resident + cost > budget) {
      const auto victim = std::min_element(model.begin(), model.end(), [](auto& a, auto& b) {
        return std::pair(a.second.rank, a.second.touched) <
               std::pair(b.second.rank, b.second.touched);
      });
      floor = victim->second.rank;
      resident -= victim->second.cost;
      expected.push_back(victim->first);
      model.erase(victim);
    }
    model[key] = Model{step, cost, floor, ++clock};
    resident += cost;

    ASSERT_EQ(put(index, key, step, cost).second, expected) << step;
    ASSERT_EQ(index.floor(), floor) << step;
    ASSERT_EQ(index.cost(), resident) << step;
    ASSERT_EQ(index.size(), model.size()) << step;
  }
}

TEST(LfuIndex, OverwriteReplacesValueAndCost) {
  Lfu index(10);
  put(index, 1, 10, 4);
  put(index, 2, 20, 4);
  const auto [evicted, keys] = put(index, 1, 11, 6);
  EXPECT_EQ(evicted, 0u);  // the replaced entry is dropped, not evicted
  EXPECT_EQ(keys, std::vector<int>{1});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.cost(), 10u);
  EXPECT_EQ(*index.touch(1), 11);
}

TEST(LfuIndex, EraseIfDropsOnlyMatchingKeysAndKeepsTheFloor) {
  Lfu index(100);
  for (int key = 0; key < 10; ++key) put(index, key, key, 1 + key);
  index.touch(3);
  Lfu::Nodes dropped;
  index.erase_if([](int key) { return key % 2 == 0; }, dropped);
  EXPECT_EQ(dropped.entries.size(), 5u);
  EXPECT_EQ(dropped.groups.size(), 5u);  // one group node leaves with each entry
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.cost(), 2u + 4 + 6 + 8 + 10);  // keys 1, 3, 5, 7, 9
  EXPECT_EQ(index.floor(), 0u);
  for (int key = 0; key < 10; ++key) EXPECT_EQ(index.contains(key), key % 2 == 1) << key;

  index.clear(dropped);
  EXPECT_EQ(dropped.entries.size(), 10u);
  EXPECT_EQ(dropped.groups.size(), 10u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.cost(), 0u);
}

}  // namespace
}  // namespace fraz
