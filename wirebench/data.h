#ifndef WIREBENCH_DATA_H_
#define WIREBENCH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// The access statement friend(id1) N=50: at most this many friends each.
constexpr uint32_t kFriendCap = 50;
/// The access statement visit(id) N=64.
constexpr uint32_t kVisitCap = 64;

/// Sizes of one benchmark run. The defaults are what a measured run uses;
/// `Smoke()` shrinks every dimension so all workloads finish in seconds.
struct Sizes {
  uint32_t persons = 100000;
  uint32_t cities = 4000;  ///< city 0 is NYC; the rest are c1..c3999
  // Requests per fresh server: runs are fixed in requests (README.md).
  uint32_t point_requests = 2000;
  uint32_t fanout_requests = 2400;
  uint32_t adhoc_requests = 1000;
  uint32_t min_rounds = 3;
  // The maintenance layer (maintain.h), measured in every traced run.
  uint32_t restaurants = 500;
  uint32_t subscribers = 8;
  uint32_t maintain_batches = 1000;

  static Sizes Smoke();
};

/// The Example 1.1 social graph the benchmark generates from its seed:
/// person(id, name="p<id>", city) and friend(id1, id2) with 30-70% of
/// kFriendCap distinct friends per person.
struct Graph {
  std::vector<uint32_t> city;                  ///< per person; 0 = NYC
  std::vector<std::vector<uint32_t>> friends;  ///< distinct, sorted
  size_t friend_tuples = 0;
};

Graph GenerateGraph(const Sizes& sizes, uint64_t seed);

/// "NYC" for city 0, "c<k>" otherwise.
std::string CityName(uint32_t city);

/// Writes person.csv, friend.csv and catalog.txt (schema, access statements
/// and `load` commands) into `dir`; returns the catalog path.
std::string WriteCatalog(const Graph& graph, const std::string& dir);

/// One protocol request and the answer count the oracle expects for it.
struct Request {
  std::string line;   ///< "eval p=<id> <query>"
  uint64_t expected;  ///< answers the server must report
};

/// The seeded request stream of a read workload ("point", "fanout" or
/// "adhoc"); expected counts come from plain maps over `graph`.
std::vector<Request> MakeStream(const std::string& workload,
                                const Graph& graph, const Sizes& sizes,
                                uint64_t seed, size_t n);

/// Persons of the stream in request order (the keys its first probe uses).
std::vector<uint32_t> StreamPersons(const std::vector<Request>& stream);

}  // namespace wirebench

#endif  // WIREBENCH_DATA_H_
