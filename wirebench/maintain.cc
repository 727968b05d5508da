#include "maintain.h"

#include <memory>
#include <set>

#include "core/access_schema.h"
#include "eval/cq_evaluator.h"
#include "incremental/delta_rules.h"
#include "incremental/maintainer.h"
#include "query/parser.h"
#include "relational/database.h"
#include "util/rng.h"

namespace wirebench {

namespace {

using scalein::AnswerSet;
using scalein::Binding;
using scalein::Tuple;
using scalein::Update;
using scalein::Value;

constexpr uint32_t kVisitsPerPerson = 5;  // on average, at set-up
constexpr uint32_t kBatchInserts = 20;
constexpr uint32_t kBatchDeletes = 20;  // as many as inserts: |visit| holds

const char* kQ2 =
    "Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, \"NYC\"), "
    "restr(rid, rn, \"NYC\", \"A\")";

/// Everything one set-up builds: the database, the maintainer and the
/// maintained answers, plus the benchmark's own view of the visit relation
/// (to draw valid insertions and deletions).
struct World {
  scalein::Schema schema;
  scalein::AccessSchema access;
  std::unique_ptr<scalein::Database> db;
  scalein::Cq q2;
  std::unique_ptr<scalein::IncrementalMaintainer> maintainer;
  std::vector<Binding> params;     ///< one per subscribed p
  std::vector<AnswerSet> answers;  ///< maintained Q2(p, D)
  std::vector<uint32_t> subscribers;
  std::vector<uint32_t> nyc_friends;    ///< of subscribers, living in NYC
  std::vector<uint32_t> other_friends;  ///< of subscribers, elsewhere
  std::vector<std::vector<uint32_t>> visits;  ///< rids per person
};

std::string Fail(const std::string& what, const scalein::Status& s) {
  return what + ": " + s.ToString();
}

/// Database build + BuildIndexes + maintainer + InitialAnswers.
std::string SetUp(const Sizes& sizes, const Graph& graph, uint64_t seed,
                  World* w) {
  scalein::Rng rng(seed * 0x94d049bb133111ebULL + 3);
  w->schema.Relation("person", {"id", "name", "city"});
  w->schema.Relation("friend", {"id1", "id2"});
  w->schema.Relation("restr", {"rid", "name", "city", "rating"});
  w->schema.Relation("visit", {"id", "rid"});
  w->access.Add("friend", {"id1"}, kFriendCap);
  w->access.AddKey("person", {"id"});
  w->access.AddKey("restr", {"rid"});
  w->access.Add("visit", {"id"}, kVisitCap);
  w->db = std::make_unique<scalein::Database>(w->schema);
  scalein::Database& db = *w->db;

  db.relation("person").Reserve(graph.city.size());
  for (size_t i = 0; i < graph.city.size(); ++i) {
    db.Insert("person", Tuple{Value::Int(static_cast<int64_t>(i)),
                              Value::Str("p" + std::to_string(i)),
                              Value::Str(CityName(graph.city[i]))});
  }
  db.relation("friend").Reserve(graph.friend_tuples);
  for (size_t i = 0; i < graph.friends.size(); ++i) {
    for (uint32_t b : graph.friends[i]) {
      db.Insert("friend", Tuple{Value::Int(static_cast<int64_t>(i)),
                                Value::Int(b)});
    }
  }
  // Exact shares over a seeded order of restaurants: 30% in NYC and a third
  // of each city's restaurants rated A, so the NYC-and-A share that Q2's
  // residuals filter on does not swing with the seed.
  static const char* kRatings[] = {"A", "B", "C"};
  std::vector<uint32_t> order(sizes.restaurants);
  for (uint32_t r = 0; r < sizes.restaurants; ++r) order[r] = r;
  for (uint32_t r = sizes.restaurants - 1; r > 0; --r) {
    std::swap(order[r], order[rng.Uniform(r + 1)]);
  }
  for (uint32_t k = 0; k < sizes.restaurants; ++k) {
    const uint32_t r = order[k];
    const uint32_t city =
        k * 10 < sizes.restaurants * 3
            ? 0
            : 1 + static_cast<uint32_t>(rng.Uniform(sizes.cities - 1));
    db.Insert("restr", Tuple{Value::Int(r), Value::Str("r" + std::to_string(r)),
                             Value::Str(CityName(city)),
                             Value::Str(kRatings[k % 3])});
  }
  w->visits.assign(graph.city.size(), {});
  for (size_t i = 0; i < graph.city.size(); ++i) {
    const uint64_t k = rng.Uniform(2 * kVisitsPerPerson + 1);
    for (uint64_t v = 0; v < k; ++v) {
      const uint32_t rid = static_cast<uint32_t>(rng.Uniform(sizes.restaurants));
      if (db.Insert("visit", Tuple{Value::Int(static_cast<int64_t>(i)),
                                   Value::Int(rid)})) {
        w->visits[i].push_back(rid);
      }
    }
  }
  if (scalein::Status s = w->access.BuildIndexes(&db, w->schema); !s.ok()) {
    return Fail("BuildIndexes", s);
  }

  scalein::Result<scalein::Cq> q2 = scalein::ParseCq(kQ2, &w->schema);
  if (!q2.ok()) return Fail("parse Q2", q2.status());
  w->q2 = *q2;
  const scalein::Variable p = scalein::Variable::Named("p");
  scalein::Result<scalein::IncrementalMaintainer> m =
      scalein::IncrementalMaintainer::Create(w->q2, w->schema, w->access, {p});
  if (!m.ok()) return Fail("maintainer", m.status());
  w->maintainer = std::make_unique<scalein::IncrementalMaintainer>(
      std::move(m).ValueOrDie());
  if (!w->maintainer->SupportsInsertions("visit") ||
      !w->maintainer->SupportsDeletions()) {
    return "Q2 is not boundedly maintainable under visit updates";
  }
  // Subscribers are well-connected users (at least 60% of the friend cap):
  // each inserted visit costs a subscriber about one friend-list probe, so
  // this keeps the per-tuple cost from swinging with a few random degrees.
  std::vector<uint32_t> connected;
  for (uint32_t i = 0; i < graph.friends.size(); ++i) {
    if (graph.friends[i].size() * 10 >= kFriendCap * 6) {
      connected.push_back(i);
    }
  }
  if (connected.size() < sizes.subscribers) return "too few subscribers";
  for (uint32_t s = 0; s < sizes.subscribers; ++s) {
    const uint32_t person = connected[rng.Uniform(connected.size())];
    w->subscribers.push_back(person);
    w->params.push_back(Binding{{p, Value::Int(person)}});
    scalein::Result<AnswerSet> initial =
        w->maintainer->InitialAnswers(&db, w->params.back());
    if (!initial.ok()) return Fail("InitialAnswers", initial.status());
    w->answers.push_back(std::move(initial).ValueOrDie());
    for (uint32_t f : graph.friends[person]) {
      (graph.city[f] == 0 ? w->nyc_friends : w->other_friends).push_back(f);
    }
  }
  if (w->nyc_friends.empty() || w->other_friends.empty()) {
    return "subscribers need NYC and non-NYC friends";
  }
  return std::string();
}

/// The person of an update tuple: a quarter of the time an NYC friend of a
/// subscribed p (the tuples that reach Q2's answers), a quarter a non-NYC
/// friend (stopped by the person filter), otherwise anyone. Fixed shares
/// keep the maintenance cost per tuple from swinging with the seed.
uint32_t DrawPerson(const Sizes& sizes, const World& w, scalein::Rng* rng) {
  const uint64_t kind = rng->Uniform(4);
  if (kind < 2) {
    const std::vector<uint32_t>& pool =
        kind == 0 ? w.nyc_friends : w.other_friends;
    return pool[rng->Uniform(pool.size())];
  }
  return static_cast<uint32_t>(rng->Uniform(sizes.persons));
}

/// One seeded batch of visit insertions and deletions that keeps the
/// database conforming (at most kVisitCap visits per person) and never
/// inserts and deletes the same tuple.
Update DrawBatch(const Sizes& sizes, const World& w, scalein::Rng* rng) {
  Update u;
  std::set<std::pair<uint32_t, uint32_t>> touched;
  for (uint32_t tries = 0;
       u.deletions["visit"].size() < kBatchDeletes &&
       tries < 8 * kBatchDeletes;
       ++tries) {
    const uint32_t id = DrawPerson(sizes, w, rng);
    const std::vector<uint32_t>& vs = w.visits[id];
    if (vs.empty()) continue;
    const uint32_t rid = vs[rng->Uniform(vs.size())];
    if (!touched.insert({id, rid}).second) continue;
    u.AddDeletion("visit", Tuple{Value::Int(id), Value::Int(rid)});
  }
  for (uint32_t tries = 0;
       u.insertions["visit"].size() < kBatchInserts &&
       tries < 8 * kBatchInserts;
       ++tries) {
    const uint32_t id = DrawPerson(sizes, w, rng);
    const std::vector<uint32_t>& vs = w.visits[id];
    if (vs.size() + 1 >= kVisitCap) continue;
    const uint32_t rid = static_cast<uint32_t>(rng->Uniform(sizes.restaurants));
    if (std::find(vs.begin(), vs.end(), rid) != vs.end()) continue;
    if (!touched.insert({id, rid}).second) continue;
    u.AddInsertion("visit", Tuple{Value::Int(id), Value::Int(rid)});
  }
  return u;
}

/// Mirrors an applied batch into the benchmark's own visit lists.
void Track(const Update& u, World* w) {
  for (const auto& [rel, rows] : u.deletions) {
    for (const Tuple& t : rows) {
      std::vector<uint32_t>& vs = w->visits[t[0].AsInt()];
      vs.erase(std::find(vs.begin(), vs.end(),
                         static_cast<uint32_t>(t[1].AsInt())));
    }
  }
  for (const auto& [rel, rows] : u.insertions) {
    for (const Tuple& t : rows) {
      w->visits[t[0].AsInt()].push_back(static_cast<uint32_t>(t[1].AsInt()));
    }
  }
}

/// The oracle: every subscriber's maintained answers against a full
/// recomputation (CqEvaluator::EvaluateFull).
void CheckAnswers(const World& w, size_t batches, Tally* tally) {
  scalein::CqEvaluator reference(w.db.get());
  for (size_t s = 0; s < w.params.size(); ++s) {
    if (reference.EvaluateFull(w.q2, w.params[s]) == w.answers[s]) {
      tally->Ok();
    } else {
      tally->Fail("maintained Q2(p=" + std::to_string(w.subscribers[s]) +
                  ") != recomputation after " + std::to_string(batches) +
                  " batches");
    }
  }
}

}  // namespace

MaintainRun RunMaintain(const Sizes& sizes, uint64_t seed) {
  MaintainRun run;
  const Graph graph = GenerateGraph(sizes, seed);
  World w;
  if (std::string err = SetUp(sizes, graph, seed, &w); !err.empty()) {
    run.tally.Broken(err);
    return run;
  }
  scalein::Database* db = w.db.get();
  const size_t subs = w.params.size();
  scalein::Rng rng(seed * 0xd6e8feb86659fd93ULL + 11);
  std::vector<AnswerSet> candidates(subs);
  uint64_t collect_ns = 0, apply_ns = 0, integrate_ns = 0, recheck_ns = 0;
  uint64_t insert_ns = 0, remove_ns = 0, inserted = 0, removed = 0;
  uint64_t integrate_fetched = 0;
  uint32_t batches = 0;
  for (; batches < sizes.maintain_batches; ++batches) {
    const Update u = DrawBatch(sizes, w, &rng);
    scalein::BoundedEvalStats stats;
    std::string error;
    const uint64_t t0 = NowNs();
    for (size_t s = 0; s < subs && error.empty(); ++s) {
      candidates[s].clear();
      scalein::Status st = w.maintainer->CollectDeletionCandidates(
          db, u, w.params[s], &candidates[s]);
      if (!st.ok()) error = Fail("collect", st);
    }
    // ApplyUpdate = deletions, then insertions; each half is timed per
    // tuple (Relation index upkeep on remove and insert).
    Update dels, ins;
    dels.deletions = u.deletions;
    ins.insertions = u.insertions;
    const uint64_t t1 = NowNs();
    scalein::ApplyUpdate(db, dels);
    const uint64_t t1a = NowNs();
    scalein::ApplyUpdate(db, ins);
    const uint64_t t2 = NowNs();
    for (size_t s = 0; s < subs && error.empty(); ++s) {
      scalein::Status st = w.maintainer->IntegrateInsertions(
          db, u, w.params[s], &w.answers[s], &stats);
      if (!st.ok()) error = Fail("integrate", st);
    }
    const uint64_t t3 = NowNs();
    for (size_t s = 0; s < subs && error.empty(); ++s) {
      scalein::Status st = w.maintainer->RecheckCandidates(
          db, candidates[s], w.params[s], &w.answers[s]);
      if (!st.ok()) error = Fail("recheck", st);
    }
    const uint64_t t4 = NowNs();
    if (!error.empty()) {
      run.tally.Fail(error);
      return run;  // the maintained answers are no longer trustworthy
    }
    run.tally.Ok();
    Track(u, &w);
    collect_ns += t1 - t0;
    apply_ns += t2 - t1;
    remove_ns += t1a - t1;
    insert_ns += t2 - t1a;
    integrate_ns += t3 - t2;
    recheck_ns += t4 - t3;
    removed += dels.TotalTuples();
    inserted += ins.TotalTuples();
    integrate_fetched += stats.base_tuples_fetched;
  }
  CheckAnswers(w, batches, &run.tally);
  if (batches == 0 || inserted == 0 || removed == 0) return run;
  run.collect_us = static_cast<double>(collect_ns) / batches / 1e3;
  run.apply_us = static_cast<double>(apply_ns) / batches / 1e3;
  run.integrate_us = static_cast<double>(integrate_ns) / batches / 1e3;
  run.recheck_us = static_cast<double>(recheck_ns) / batches / 1e3;
  run.insert_ns = static_cast<double>(insert_ns) / inserted;
  run.remove_ns = static_cast<double>(remove_ns) / removed;
  run.bound_ratio = static_cast<double>(integrate_fetched) /
                    static_cast<double>(inserted * subs) /
                    w.maintainer->FetchBoundPerInsertedTuple("visit");
  return run;
}

}  // namespace wirebench
