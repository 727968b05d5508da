#include "core/analysis_cache.h"

#include <utility>

#include "exec/compiler.h"
#include "obs/flight_recorder.h"

namespace scalein {
namespace {

/// Entry-local compiled-plan set, created on first request. Must be called
/// under the cache lock (mutates the entry / flight slot).
std::shared_ptr<exec::CompiledPlanSet> EnsureCompiled(
    std::shared_ptr<exec::CompiledPlanSet>* slot) {
  if (*slot == nullptr) *slot = std::make_shared<exec::CompiledPlanSet>();
  return *slot;
}

}  // namespace

AnalysisCache::AnalysisCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t AnalysisCache::EnvFingerprint(const Schema& schema,
                                       const AccessSchema& access) {
  // \x1f separates the two texts so moving a character across the boundary
  // cannot alias two distinct environments.
  std::string canon = schema.ToString();
  canon += '\x1f';
  canon += access.ToString();
  return obs::Fnv1a64(canon);
}

uint64_t AnalysisCache::KeyHash(std::string_view key_text) const {
  if (key_hash_override_ != nullptr) return key_hash_override_(key_text);
  return obs::Fnv1a64(key_text);
}

void AnalysisCache::set_key_hash_for_testing(uint64_t (*fn)(std::string_view)) {
  std::lock_guard<std::mutex> lock(mu_);
  key_hash_override_ = fn;
}

void AnalysisCache::set_fill_barrier_for_testing(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fill_barrier_for_testing_ = std::move(fn);
}

AnalysisCache::Entry* AnalysisCache::LookupLocked(uint64_t hash,
                                                  std::string_view key_text,
                                                  uint64_t env_fp,
                                                  bool* collision) {
  *collision = false;
  auto it = entries_.find(hash);
  if (it == entries_.end()) return nullptr;
  if (it->second.key_text != key_text) {
    // Fingerprint collision: a different query owns this slot. Served as a
    // miss without caching, so the resident entry keeps its slot.
    *collision = true;
    ++stats_.collisions;
    return nullptr;
  }
  if (it->second.env_fp != env_fp) {
    // Schema/access drifted since this entry was derived — its bounds (and
    // AccessStatement pointers) are stale.
    entries_.erase(it);
    ++stats_.invalidations;
    return nullptr;
  }
  it->second.last_used = ++tick_;
  return &it->second;
}

void AnalysisCache::EvictIfNeededLocked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

void AnalysisCache::InsertLocked(uint64_t hash, std::string key_text,
                                 uint64_t env_fp, Entry&& entry) {
  entry.key_text = std::move(key_text);
  entry.env_fp = env_fp;
  entry.last_used = ++tick_;
  entries_[hash] = std::move(entry);
  EvictIfNeededLocked();
}

Result<std::shared_ptr<const ControllabilityAnalysis>>
AnalysisCache::GetOrAnalyze(
    const Formula& f, std::string_view query_text, const Schema& schema,
    const AccessSchema& access, const ControlAnalysisOptions& options,
    std::shared_ptr<exec::CompiledPlanSet>* compiled_out) {
  const uint64_t env_fp = EnvFingerprint(schema, access);
  std::string key_text = "fo\x1f";
  key_text += query_text;
  uint64_t hash;
  bool collision = false;
  std::shared_ptr<InFlight> flight;
  std::function<void()> barrier;
  {
    std::unique_lock<std::mutex> lock(mu_);
    hash = KeyHash(key_text);
    Entry* hit = LookupLocked(hash, key_text, env_fp, &collision);
    if (hit != nullptr && hit->plain != nullptr) {
      ++stats_.hits;
      if (compiled_out != nullptr) *compiled_out = EnsureCompiled(&hit->compiled);
      return hit->plain;
    }
    // Single-flight: the first miss on a key derives; concurrent misses
    // wait on the fill and share its result instead of duplicating the DP.
    auto [it, leader] = inflight_.try_emplace(key_text);
    if (!leader) {
      flight = it->second;
      ++stats_.coalesced;
      fill_cv_.wait(lock, [&] { return flight->done; });
      if (!flight->status.ok()) return flight->status;
      if (compiled_out != nullptr) *compiled_out = flight->compiled;
      return flight->plain;
    }
    it->second = std::make_shared<InFlight>();
    flight = it->second;
    ++stats_.misses;
    barrier = fill_barrier_for_testing_;
  }

  // Analyze outside the lock.
  if (barrier) barrier();
  Result<ControllabilityAnalysis> analyzed =
      ControllabilityAnalysis::Analyze(f, schema, access, options);
  std::shared_ptr<const ControllabilityAnalysis> shared;
  if (analyzed.ok()) {
    shared = std::make_shared<const ControllabilityAnalysis>(
        std::move(analyzed).ValueOrDie());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    flight->status = analyzed.ok() ? Status::OK() : analyzed.status();
    flight->plain = shared;
    if (analyzed.ok()) {
      // One plan set shared by the entry and every coalesced waiter, so all
      // of them observe the same compiled programs.
      EnsureCompiled(&flight->compiled);
    }
    flight->done = true;
    inflight_.erase(key_text);
    if (analyzed.ok() && !collision) {
      Entry entry;
      entry.plain = shared;
      entry.compiled = flight->compiled;
      InsertLocked(hash, std::move(key_text), env_fp, std::move(entry));
    }
  }
  fill_cv_.notify_all();
  if (shared == nullptr) return flight->status;
  if (compiled_out != nullptr) *compiled_out = flight->compiled;
  return shared;
}

Result<std::shared_ptr<const EmbeddedCqAnalysis>>
AnalysisCache::GetOrAnalyzeEmbedded(
    const Cq& q, std::string_view query_text, const Schema& schema,
    const AccessSchema& access, const VarSet& params) {
  const uint64_t env_fp = EnvFingerprint(schema, access);
  // Embedded plans depend on which variables are parameters, so the param
  // set is part of the key.
  std::string key_text = "embedded\x1f";
  key_text += query_text;
  key_text += '\x1f';
  key_text += VarSetToString(params);
  uint64_t hash;
  bool collision = false;
  std::shared_ptr<InFlight> flight;
  std::function<void()> barrier;
  {
    std::unique_lock<std::mutex> lock(mu_);
    hash = KeyHash(key_text);
    Entry* hit = LookupLocked(hash, key_text, env_fp, &collision);
    if (hit != nullptr && hit->embedded != nullptr) {
      ++stats_.hits;
      return hit->embedded;
    }
    auto [it, leader] = inflight_.try_emplace(key_text);
    if (!leader) {
      flight = it->second;
      ++stats_.coalesced;
      fill_cv_.wait(lock, [&] { return flight->done; });
      if (!flight->status.ok()) return flight->status;
      return flight->embedded;
    }
    it->second = std::make_shared<InFlight>();
    flight = it->second;
    ++stats_.misses;
    barrier = fill_barrier_for_testing_;
  }

  if (barrier) barrier();
  Result<EmbeddedCqAnalysis> analyzed =
      EmbeddedCqAnalysis::Analyze(q, schema, access, params);
  std::shared_ptr<const EmbeddedCqAnalysis> shared;
  if (analyzed.ok()) {
    shared = std::make_shared<const EmbeddedCqAnalysis>(
        std::move(analyzed).ValueOrDie());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    flight->status = analyzed.ok() ? Status::OK() : analyzed.status();
    flight->embedded = shared;
    flight->done = true;
    inflight_.erase(key_text);
    if (analyzed.ok() && !collision) {
      Entry entry;
      entry.embedded = shared;
      InsertLocked(hash, std::move(key_text), env_fp, std::move(entry));
    }
  }
  fill_cv_.notify_all();
  if (shared == nullptr) return flight->status;
  return shared;
}

void AnalysisCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += entries_.size();
  entries_.clear();
}

size_t AnalysisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

AnalysisCacheStats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace scalein
