#ifndef SCALEIN_EXEC_COMPILER_H_
#define SCALEIN_EXEC_COMPILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "exec/bytecode.h"
#include "query/formula.h"
#include "util/status.h"

namespace scalein::exec {

/// Lowers the §4 plain-controllability derivation that controls `q` under
/// `param_vars` into register bytecode: one PlainNode per derivation node,
/// for every rule the analysis emits (atom, condition, and with safe
/// negation, or, exists, forall(Q → Q')) at any depth. The VM executing the
/// program issues the derivation's metered charges in derivation order and
/// registers its ops in derivation pre-order, so answers, TripInfo, per-op
/// accounting and sealed certificates depend only on the derivation.
///
/// Fails only when the analysis does not control `param_vars`
/// (FailedPrecondition, "query is not controlled by the given parameters …")
/// or when the register file is exhausted; an Internal error would mean the
/// analysis emitted a derivation that uses a variable before binding it.
/// `analysis` is retained by the returned program (the bytecode points into
/// its access statements and formulas).
Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q,
    std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars);

/// Lowers a Proposition 4.5 embedded chase plan into register bytecode.
/// Fails only for an analysis that found no plan, or when the register file
/// is exhausted.
Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis);

/// The compiled programs of one AnalysisCache entry, one per parameter set,
/// living and dying with the cached derivation. The cache drops the whole
/// entry on DDL/env-drift/eviction, so a program can never outlive (or lag
/// behind) the analysis it was lowered from.
///
/// Thread-safe. A program is compiled on the first sighting of its
/// parameter set and reused after that; a failed compilation is not cached
/// (it costs one BestOptionFor lookup).
class CompiledPlanSet {
 public:
  /// Compilation policy. There is only one: compile on first sighting.
  enum class Mode : uint8_t { kAuto };

  /// The compiled plain program for `param_vars`, or nullptr with `*why`
  /// holding the compile error (a parameter set the analysis does not
  /// control).
  std::shared_ptr<const CompiledProgram> GetOrCompilePlain(
      Mode mode, const FoQuery& q,
      const std::shared_ptr<const ControllabilityAnalysis>& analysis,
      const VarSet& param_vars, std::string* why);

  /// Number of successful compilations (tests assert recompile-after-DDL).
  uint64_t compiles() const;

 private:
  mutable std::mutex mu_;
  std::map<VarSet, std::shared_ptr<const CompiledProgram>> programs_;
  uint64_t compiles_ = 0;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_COMPILER_H_
