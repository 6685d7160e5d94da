// Unit tests for FlatMap (common/flat_map.hpp), the open-addressed table
// behind the request/reply path's per-op lookups.
//
// std::unordered_map is the oracle: random insert, overwrite, erase and find
// sequences must leave both with the same contents, including across growth
// and erase_if sweeps. Hand-placed keys cover the cases random runs reach
// only by luck: a probe chain that wraps past the end of the array, an
// erase inside it (backward shift across the wrap), and an erase_if sweep
// whose shift carries an entry across the array's end.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace timedc {
namespace {

using Map = FlatMap<std::uint32_t, std::string>;
using Model = std::unordered_map<std::uint32_t, std::string>;

/// Long enough to live on the heap, so a bad move or double destroy shows
/// under the sanitizers.
std::string value_for(std::uint32_t key, std::uint64_t version) {
  return "value-of-key-" + std::to_string(key) + "-version-" +
         std::to_string(version);
}

/// The table's home slot for `key` in a 2^log2-slot array: the top bits of
/// a Fibonacci multiply. The placement tests assert the resulting slot order
/// through iteration, so a change of hash fails them instead of silently
/// testing nothing.
std::size_t home_slot(std::uint32_t key, unsigned log2) {
  return static_cast<std::size_t>(
      (std::uint64_t{key} * 0x9e3779b97f4a7c15ull) >> (64 - log2));
}

/// The first `n` keys (from 1 up) whose home slot is `slot` in a 16-slot
/// array, the table's first size.
std::vector<std::uint32_t> keys_with_home(std::size_t slot, std::size_t n) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 1; keys.size() < n; ++k) {
    if (home_slot(k, 4) == slot) keys.push_back(k);
  }
  return keys;
}

/// Keys in iteration (slot) order.
std::vector<std::uint32_t> slot_order(const Map& map) {
  std::vector<std::uint32_t> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  return keys;
}

/// Every key of `model` is found with its value, nothing else is, and
/// iteration visits each live key exactly once.
void expect_same(const Map& map, const Model& model) {
  ASSERT_EQ(map.size(), model.size());
  ASSERT_EQ(map.empty(), model.empty());
  std::map<std::uint32_t, int> visits;
  for (const auto& [key, value] : map) {
    ++visits[key];
    const auto it = model.find(key);
    ASSERT_NE(it, model.end()) << "iterated a key the model lacks: " << key;
    EXPECT_EQ(value, it->second) << key;
  }
  ASSERT_EQ(visits.size(), model.size());
  for (const auto& [key, n] : visits) EXPECT_EQ(n, 1) << key;
  for (const auto& [key, value] : model) {
    const std::string* found = map.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value) << key;
    EXPECT_TRUE(map.contains(key)) << key;
  }
}

TEST(FlatMapTest, RandomSequencesAgreeWithUnorderedMap) {
  // Small key universes keep the table dense with erases inside long probe
  // chains; large ones grow it mid-sequence many times.
  for (const std::uint32_t universe : {8u, 40u, 300u, 5000u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 7919 + universe);
      Map map;
      Model model;
      std::uint64_t version = 0;
      for (int step = 0; step < 20000; ++step) {
        const auto key =
            static_cast<std::uint32_t>(rng.uniform_int(0, universe - 1));
        const std::int64_t op = rng.uniform_int(0, 99);
        if (op < 35) {  // insert if absent
          const std::string v = value_for(key, ++version);
          const auto [slot, inserted] = map.try_emplace(key, v);
          const auto [it, model_inserted] = model.try_emplace(key, v);
          ASSERT_EQ(inserted, model_inserted);
          ASSERT_EQ(*slot, it->second);
        } else if (op < 55) {  // overwrite or insert
          const std::string v = value_for(key, ++version);
          map[key] = v;
          model[key] = v;
        } else if (op < 80) {  // erase
          ASSERT_EQ(map.erase(key), model.erase(key) == 1);
        } else {  // find
          const std::string* found = map.find(key);
          const auto it = model.find(key);
          ASSERT_EQ(found != nullptr, it != model.end());
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second);
          }
        }
        ASSERT_EQ(map.size(), model.size());
        if (step % 997 == 0) expect_same(map, model);
      }
      expect_same(map, model);
      // Capacity is a power of two and the load stays at most 3/4.
      const std::size_t cap = map.capacity();
      EXPECT_EQ(cap & (cap - 1), 0u);
      EXPECT_LE(4 * map.size(), 3 * cap);
    }
  }
}

TEST(FlatMapTest, ProbeChainWrapsPastTheEndAndEraseShiftsAcrossIt) {
  const std::vector<std::uint32_t> last = keys_with_home(15, 3);
  const std::uint32_t a = last[0], b = last[1], c = last[2];
  const std::uint32_t z = keys_with_home(0, 1)[0];
  Map map;
  map[a] = "a";  // slot 15, its home
  map[b] = "b";  // home 15 is taken: wraps to slot 0
  map[c] = "c";  // slot 1
  map[z] = "z";  // home 0, behind the wrapped chain: slot 2
  ASSERT_EQ(map.capacity(), 16u);
  EXPECT_EQ(slot_order(map), (std::vector<std::uint32_t>{b, c, z, a}));

  // Erasing the chain's head shifts b back across the array's end into
  // slot 15, then c and z one slot down each.
  EXPECT_TRUE(map.erase(a));
  EXPECT_EQ(slot_order(map), (std::vector<std::uint32_t>{c, z, b}));
  EXPECT_EQ(map.find(a), nullptr);
  EXPECT_EQ(*map.find(b), "b");
  EXPECT_EQ(*map.find(c), "c");
  EXPECT_EQ(*map.find(z), "z");

  // An erase at the start of a chain that began before the array's end:
  // z moves back to its home, and a follows it from slot 2 to slot 1.
  map[a] = "a2";  // home 15 (b), 0 (c), 1 (z): lands in slot 2
  EXPECT_EQ(slot_order(map), (std::vector<std::uint32_t>{c, z, a, b}));
  EXPECT_TRUE(map.erase(c));
  EXPECT_EQ(slot_order(map), (std::vector<std::uint32_t>{z, a, b}));
  EXPECT_EQ(*map.find(a), "a2");
  EXPECT_EQ(*map.find(z), "z");
  EXPECT_FALSE(map.erase(c));
  EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMapTest, EraseIfVisitsEachEntryOnceWhenItsShiftCrossesTheEnd) {
  const std::vector<std::uint32_t> last = keys_with_home(15, 3);
  const std::uint32_t a = last[0], b = last[1], c = last[2];
  const std::uint32_t z = keys_with_home(0, 1)[0];
  Map map;
  map[a] = "a";
  map[b] = "b";
  map[c] = "c";
  map[z] = "z";
  ASSERT_EQ(slot_order(map), (std::vector<std::uint32_t>{b, c, z, a}));
  // Erasing a (slot 15) shifts b from slot 0 into slot 15; a sweep that
  // began at slot 0 would then meet b twice.
  std::map<std::uint32_t, int> visits;
  const std::size_t erased =
      map.erase_if([&](std::uint32_t key, std::string& v) {
        ++visits[key];
        v += "!";  // kept entries may be modified in place
        return key == a;
      });
  EXPECT_EQ(erased, 1u);
  const std::map<std::uint32_t, int> once{{a, 1}, {b, 1}, {c, 1}, {z, 1}};
  EXPECT_EQ(visits, once);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(b), "b!");
  EXPECT_EQ(*map.find(c), "c!");
  EXPECT_EQ(*map.find(z), "z!");
  EXPECT_EQ(map.find(a), nullptr);
}

TEST(FlatMapTest, EraseIfWhileIterationAgreesWithTheModel) {
  // What TcpTransport::on_close does: drop every entry pointing at one
  // connection and rewrite some others, in one sweep.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Map map;
    Model model;
    const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 3000));
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 4 * n));
      const std::string v = value_for(key, rng.uniform_int(0, 3));
      map[key] = v;
      model[key] = v;
    }
    const auto modulus = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
    const std::size_t before = map.size();
    std::map<std::uint32_t, int> visits;
    const std::size_t erased =
        map.erase_if([&](std::uint32_t key, std::string& v) {
          ++visits[key];
          if (key % modulus == 0) return true;
          if (key % 3 == 1) v = value_for(key, 99);
          return false;
        });
    std::size_t model_erased = 0;
    for (auto it = model.begin(); it != model.end();) {
      EXPECT_EQ(visits[it->first], 1) << it->first;
      if (it->first % modulus == 0) {
        it = model.erase(it);
        ++model_erased;
        continue;
      }
      if (it->first % 3 == 1) it->second = value_for(it->first, 99);
      ++it;
    }
    EXPECT_EQ(visits.size(), before);
    EXPECT_EQ(erased, model_erased);
    expect_same(map, model);
  }
}

TEST(FlatMapTest, GrowthKeepsEveryEntryAndPointerKeysWork) {
  std::vector<int> objects(1000);
  FlatMap<const int*, std::uint32_t> map;
  std::size_t growths = 0;
  std::size_t cap = map.capacity();
  for (std::uint32_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(map.try_emplace(&objects[i], i).second);
    if (map.capacity() != cap) {
      ++growths;
      cap = map.capacity();
      // Every entry survives the move into the larger array.
      for (std::uint32_t j = 0; j <= i; ++j) {
        const std::uint32_t* v = map.find(&objects[j]);
        ASSERT_NE(v, nullptr) << j;
        ASSERT_EQ(*v, j);
      }
    }
  }
  EXPECT_GE(growths, 7u);  // 16 -> ... -> 2048 slots
  EXPECT_FALSE(map.try_emplace(&objects[3], 77u).second);
  EXPECT_EQ(*map.find(&objects[3]), 3u);
  for (std::uint32_t i = 0; i < objects.size(); i += 2) {
    EXPECT_TRUE(map.erase(&objects[i]));
  }
  EXPECT_EQ(map.size(), objects.size() / 2);
  for (std::uint32_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(map.contains(&objects[i]), i % 2 == 1) << i;
  }
}

}  // namespace
}  // namespace timedc
