#ifndef SCALEIN_CORE_ANALYSIS_CACHE_H_
#define SCALEIN_CORE_ANALYSIS_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/access_schema.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "query/cq.h"
#include "query/formula.h"
#include "relational/schema.h"
#include "util/status.h"

namespace scalein {

namespace exec {
class CompiledPlanSet;
}  // namespace exec

/// Counters describing cache behavior, exported to obs metrics by callers.
struct AnalysisCacheStats {
  uint64_t hits = 0;           ///< served from cache
  uint64_t misses = 0;         ///< analyzed and inserted
  uint64_t evictions = 0;      ///< LRU victims dropped at capacity
  uint64_t invalidations = 0;  ///< entries dropped by DDL or env drift
  uint64_t collisions = 0;     ///< fingerprint matched, query text differed
  uint64_t coalesced = 0;      ///< waited on a concurrent fill (single-flight)
};

/// Memoizes controllability derivations and embedded chase plans.
///
/// The §4 analysis is pure in (query, relational schema, access schema): for
/// a fixed environment, re-deriving the controlling sets of a repeated query
/// is wasted work — and in the shell every `eval` re-ran the full DP. The
/// cache keys entries by a 64-bit FNV fingerprint of the query text (plus
/// parameter set for embedded plans) and tags each entry with a fingerprint
/// of the environment (schema text + access-schema text). An entry whose
/// environment tag no longer matches is dropped on lookup, so DDL that
/// changes bounds can never serve a stale plan; `Invalidate()` additionally
/// drops everything, which callers invoke on any schema/access replacement
/// (cached analyses hold pointers into the AccessSchema object, so identity
/// changes must invalidate even when the text is unchanged).
///
/// Fingerprint collisions (same hash, different query text) are detected by
/// comparing the stored key text and are served as misses without caching.
/// Bounded capacity with LRU eviction. Thread-safe; the analysis itself runs
/// outside the lock, and concurrent misses on the same key are coalesced
/// into a single derivation (single-flight): the first caller derives, later
/// callers wait on the in-flight fill and share its result, so concurrent
/// sessions never duplicate the §4 DP.
class AnalysisCache {
 public:
  explicit AnalysisCache(size_t capacity = 64);

  /// Fingerprint of the environment an analysis depends on.
  static uint64_t EnvFingerprint(const Schema& schema,
                                 const AccessSchema& access);

  /// The cached (or freshly computed) §4 derivation for `f`, identified by
  /// `query_text` (the canonical source text the fingerprint is taken over).
  ///
  /// When `compiled_out` is non-null it receives the entry's compiled-plan
  /// set (exec/compiler.h), created on first request and stored *inside* the
  /// cache entry: DDL drift, Invalidate(), and LRU eviction drop the
  /// derivation and its bytecode as one object, so a compiled program can
  /// never be served against an analysis the cache no longer vouches for.
  /// A re-analysis after any drop hands back a fresh, empty set — the
  /// program is recompiled instead of a stale one executing.
  Result<std::shared_ptr<const ControllabilityAnalysis>> GetOrAnalyze(
      const Formula& f, std::string_view query_text, const Schema& schema,
      const AccessSchema& access, const ControlAnalysisOptions& options = {},
      std::shared_ptr<exec::CompiledPlanSet>* compiled_out = nullptr);

  /// The cached (or fresh) embedded chase plan for `q` under `params`.
  Result<std::shared_ptr<const EmbeddedCqAnalysis>> GetOrAnalyzeEmbedded(
      const Cq& q, std::string_view query_text, const Schema& schema,
      const AccessSchema& access, const VarSet& params);

  /// Drops every entry (schema or access-schema DDL).
  void Invalidate();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  AnalysisCacheStats stats() const;

  /// Test hook: replaces the key-fingerprint function (e.g. with a constant
  /// to force collisions). Pass nullptr to restore the default.
  void set_key_hash_for_testing(uint64_t (*fn)(std::string_view));

  /// Test hook: invoked by a single-flight leader after it has registered
  /// the in-flight fill and released the lock, right before deriving — lets
  /// a race test hold the leader inside the fill window deterministically.
  /// Pass nullptr (default) to disable.
  void set_fill_barrier_for_testing(std::function<void()> fn);

 private:
  /// One in-progress derivation; later callers of the same key wait on it.
  struct InFlight {
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const ControllabilityAnalysis> plain;
    std::shared_ptr<const EmbeddedCqAnalysis> embedded;
    std::shared_ptr<exec::CompiledPlanSet> compiled;  ///< plain fills only
  };

  struct Entry {
    std::string key_text;  ///< full key, for collision detection
    uint64_t env_fp = 0;
    uint64_t last_used = 0;
    std::shared_ptr<const ControllabilityAnalysis> plain;
    std::shared_ptr<const EmbeddedCqAnalysis> embedded;
    /// Bytecode programs lowered from this entry's plain analysis; dropped
    /// with the entry, so derivation and bytecode invalidate atomically.
    std::shared_ptr<exec::CompiledPlanSet> compiled;
  };

  uint64_t KeyHash(std::string_view key_text) const;
  /// Cached entry for `key`, honoring env tags and collisions; nullptr on
  /// miss. `collision` is set when the slot is occupied by a different key.
  Entry* LookupLocked(uint64_t hash, std::string_view key_text,
                      uint64_t env_fp, bool* collision);
  void InsertLocked(uint64_t hash, std::string key_text, uint64_t env_fp,
                    Entry&& entry);
  void EvictIfNeededLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable fill_cv_;
  uint64_t tick_ = 0;
  uint64_t (*key_hash_override_)(std::string_view) = nullptr;
  std::function<void()> fill_barrier_for_testing_;
  std::unordered_map<uint64_t, Entry> entries_;
  /// In-progress fills keyed by full key text (collision-proof: two queries
  /// sharing a fingerprint still derive independently).
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  AnalysisCacheStats stats_;
};

}  // namespace scalein

#endif  // SCALEIN_CORE_ANALYSIS_CACHE_H_
