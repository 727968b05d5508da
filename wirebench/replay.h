#ifndef WIREBENCH_REPLAY_H_
#define WIREBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"

namespace wirebench {

/// The traced in-process replay of one read stream. Two shells load the
/// same catalog:
///   A  serves every request through serve::Server::HandleLine, as the
///      server does for a wire line. Every other request runs with an
///      obs::Tracer installed, so the program's own spans split it
///      (serve.parse/admission/exec/serialize/request and the evaluator's
///      bounded.evaluate_degraded); the others run untraced and price the
///      tracer.
///   B  sees the same requests through the leaf calls the server's path
///      makes, each timed from outside: Shell::PlanForServe, ParseFoQuery,
///      CompiledPlanSet::GetOrCompilePlain, AnswerSetToString and
///      Shell::RecordServeVerdict (seal, workload aggregator, journal).
///      B's history (cache state, aggregator size) matches A's.
/// Adds the serve/query/core/exec/relational/obs/trace layer metrics to
/// `out`; a wrong answer fails `tally`, and so does an attribution gap over
/// 10% when `check_attribution` is set (at smoke sizes the fixed glue the
/// layers leave out is a larger share of a request).
void RunTracedReplay(const std::string& catalog,
                     const std::vector<Request>& stream,
                     const std::vector<uint32_t>& probe_keys,
                     bool check_attribution, Metrics* out, Tally* tally);

/// The numbers after `"key":` on each line of a JSONL access log, in order.
std::vector<double> AccessLogField(const std::string& path,
                                   const std::string& key);

}  // namespace wirebench

#endif  // WIREBENCH_REPLAY_H_
