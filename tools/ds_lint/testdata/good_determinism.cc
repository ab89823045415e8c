// Fixture: determinism-clean code. Unordered members are looked up (never
// iterated) or drained through a sorted copy of their keys; randomness and
// time come from the deterministic substrate. Expects zero findings.
#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace deepserve {

// File-local helper: a sorted copy of a map's keys. Iterating its parameter
// is not iteration over an unordered member.
template <typename Map>
std::vector<typename Map::key_type> SortedKeysOf(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& [key, value] : m) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

class GoodCache {
 public:
  // Lookups into unordered members are fine — only iteration is ordered-
  // sensitive.
  bool Has(int id) const { return index_.find(id) != index_.end(); }
  bool IsLive(int id) const { return live_.count(id) > 0; }

  // Ordered containers iterate freely.
  long SumOrdered() const {
    long total = 0;
    for (const auto& [k, v] : ordered_) total += v;
    return total;
  }

  // Draining through a sorted copy of the keys is the blessed pattern; the
  // call wrapping the member is what keeps the loop out of hash order.
  std::vector<int> Drain() {
    std::vector<int> out;
    for (int key : SortedKeysOf(index_)) {
      out.push_back(key + index_.at(key));
    }
    return out;
  }

 private:
  std::unordered_map<int, int> index_;
  std::unordered_set<int> live_;
  std::map<int, long> ordered_;
};

// mt19937-style seeded generators are deterministic and allowed; sim time
// comes from the simulator, not the wall clock.
struct FakeSim {
  long Now() const { return now_; }
  long now_ = 0;
};

long UseSimTime(const FakeSim& sim) { return sim.Now(); }

}  // namespace deepserve
