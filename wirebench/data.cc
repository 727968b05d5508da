#include "data.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/rng.h"

namespace wirebench {

namespace {

constexpr double kNycShare = 0.2;    // persons living in the hot city
constexpr double kPersonSkew = 0.5;  // Zipf exponent of the queried person
constexpr double kCitySkew = 0.8;    // Zipf exponent of adhoc cities

const char* kFriends = "F(p, id) := friend(p, id)";
const char* kTwoHop = "FF(p, b) := exists a. friend(p, a) and friend(a, b)";

std::string CityNames(const std::string& city) {
  return "Q(p, name) := exists id. friend(p, id) and person(id, name, \"" +
         city + "\")";
}

std::string CityFriends(const std::string& city) {
  return "C(p, id) := exists n. friend(p, id) and person(id, n, \"" + city +
         "\")";
}

std::string TwoHopNyc() {
  return "H(p, name) := exists a. exists b. friend(p, a) and friend(a, b) "
         "and person(b, name, \"NYC\")";
}

uint64_t CountInCity(const Graph& g, const std::vector<uint32_t>& people,
                     uint32_t city) {
  uint64_t n = 0;
  for (uint32_t f : people) n += g.city[f] == city ? 1 : 0;
  return n;
}

/// Distinct b with friend(p, a) and friend(a, b), via an epoch-stamped mark
/// array so each call costs O(two-hop edges).
class TwoHop {
 public:
  explicit TwoHop(const Graph& g) : g_(g), mark_(g.city.size(), 0) {}

  const std::vector<uint32_t>& Of(uint32_t p) {
    ++epoch_;
    out_.clear();
    for (uint32_t a : g_.friends[p]) {
      for (uint32_t b : g_.friends[a]) {
        if (mark_[b] == epoch_) continue;
        mark_[b] = epoch_;
        out_.push_back(b);
      }
    }
    return out_;
  }

 private:
  const Graph& g_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> out_;
};

FILE* OpenOrDie(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  return f;
}

}  // namespace

Sizes Sizes::Smoke() {
  Sizes s;
  s.persons = 2000;
  s.cities = 400;
  s.point_requests = 200;
  s.fanout_requests = 100;
  s.adhoc_requests = 200;
  s.min_rounds = 1;
  s.restaurants = 100;
  s.subscribers = 4;
  s.maintain_batches = 20;
  return s;
}

std::string CityName(uint32_t city) {
  return city == 0 ? std::string("NYC") : "c" + std::to_string(city);
}

Graph GenerateGraph(const Sizes& sizes, uint64_t seed) {
  scalein::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Graph g;
  g.city.resize(sizes.persons);
  g.friends.resize(sizes.persons);
  for (uint32_t i = 0; i < sizes.persons; ++i) {
    g.city[i] = rng.Bernoulli(kNycShare)
                    ? 0
                    : 1 + static_cast<uint32_t>(rng.Uniform(sizes.cities - 1));
  }
  for (uint32_t i = 0; i < sizes.persons; ++i) {
    std::vector<uint32_t>& fs = g.friends[i];
    // Degrees in [0.3, 0.7] x cap (15-35 for N=50): the work of a request
    // depends on the degree of the person it names, and a narrow range keeps
    // the mean work of a Zipf-drawn stream from swinging with the seed.
    const uint64_t degree =
        kFriendCap * 3 / 10 + rng.Uniform(kFriendCap * 4 / 10 + 1);
    for (uint64_t k = 0; k < degree; ++k) {
      uint32_t f = static_cast<uint32_t>(rng.Uniform(sizes.persons));
      if (f == i) f = (f + 1) % sizes.persons;
      fs.push_back(f);
    }
    std::sort(fs.begin(), fs.end());
    fs.erase(std::unique(fs.begin(), fs.end()), fs.end());
    g.friend_tuples += fs.size();
  }
  return g;
}

std::string WriteCatalog(const Graph& graph, const std::string& dir) {
  const std::string person_path = dir + "/person.csv";
  const std::string friend_path = dir + "/friend.csv";
  const std::string catalog_path = dir + "/catalog.txt";
  FILE* f = OpenOrDie(person_path);
  for (size_t i = 0; i < graph.city.size(); ++i) {
    std::fprintf(f, "%zu,\"p%zu\",\"%s\"\n", i, i,
                 CityName(graph.city[i]).c_str());
  }
  std::fclose(f);
  f = OpenOrDie(friend_path);
  for (size_t i = 0; i < graph.friends.size(); ++i) {
    for (uint32_t b : graph.friends[i]) std::fprintf(f, "%zu,%u\n", i, b);
  }
  std::fclose(f);
  f = OpenOrDie(catalog_path);
  std::fprintf(f,
               "schema relation person(id, name, city)\n"
               "schema relation friend(id1, id2)\n"
               "access access friend(id1) N=%u\n"
               "access key person(id)\n"
               "load person %s\n"
               "load friend %s\n",
               kFriendCap, person_path.c_str(), friend_path.c_str());
  std::fclose(f);
  return catalog_path;
}

std::vector<Request> MakeStream(const std::string& workload,
                                const Graph& graph, const Sizes& sizes,
                                uint64_t seed, size_t n) {
  scalein::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  // Hot persons are a seeded permutation of ids, so popularity is not
  // correlated with id order (or with generation order of the graph).
  std::vector<uint32_t> perm(sizes.persons);
  for (uint32_t i = 0; i < sizes.persons; ++i) perm[i] = i;
  for (uint32_t i = sizes.persons - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(i + 1)]);
  }
  TwoHop two_hop(graph);
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = perm[rng.Zipf(sizes.persons, kPersonSkew)];
    const bool second_shape = rng.Bernoulli(0.5);
    std::string query;
    uint64_t expected = 0;
    if (workload == "point") {
      query = second_shape ? CityNames("NYC") : kFriends;
      expected = second_shape ? CountInCity(graph, graph.friends[p], 0)
                              : graph.friends[p].size();
    } else if (workload == "fanout") {
      const std::vector<uint32_t>& reach = two_hop.Of(p);
      query = second_shape ? TwoHopNyc() : kTwoHop;
      expected = second_shape ? CountInCity(graph, reach, 0) : reach.size();
    } else if (workload == "adhoc") {
      const uint32_t city =
          static_cast<uint32_t>(rng.Zipf(sizes.cities, kCitySkew));
      query = second_shape ? CityNames(CityName(city))
                           : CityFriends(CityName(city));
      expected = CountInCity(graph, graph.friends[p], city);
    } else {
      throw std::runtime_error("no read stream for workload " + workload);
    }
    out.push_back({"eval p=" + std::to_string(p) + " " + query, expected});
  }
  return out;
}

std::vector<uint32_t> StreamPersons(const std::vector<Request>& stream) {
  std::vector<uint32_t> out;
  out.reserve(stream.size());
  for (const Request& r : stream) {
    out.push_back(static_cast<uint32_t>(
        std::strtoul(r.line.c_str() + std::string("eval p=").size(), nullptr,
                     10)));
  }
  return out;
}

}  // namespace wirebench
