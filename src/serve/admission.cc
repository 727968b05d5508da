#include "serve/admission.h"

#include <cmath>
#include <cstdlib>

#include "util/strings.h"

namespace scalein::serve {

const char* AdmitActionName(AdmitAction action) {
  switch (action) {
    case AdmitAction::kAdmit:
      return "admit";
    case AdmitAction::kQueue:
      return "queue";
    case AdmitAction::kDegrade:
      return "degrade";
    case AdmitAction::kReject:
      return "reject";
  }
  return "?";
}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kNoStaticBound:
      return "no-static-bound";
    case RejectReason::kBudgetExhausted:
      return "budget";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kQueueClassFull:
      return "queue-class-full";
    case RejectReason::kQueueTimeout:
      return "queue-timeout";
    case RejectReason::kDraining:
      return "draining";
  }
  return "?";
}

BoundClass ClassifyBound(double static_bound) {
  if (static_bound < 0) return BoundClass::kHuge;
  if (static_bound <= 100.0) return BoundClass::kSmall;
  if (static_bound <= 10000.0) return BoundClass::kMedium;
  if (static_bound <= 1000000.0) return BoundClass::kLarge;
  return BoundClass::kHuge;
}

const char* BoundClassName(BoundClass c) {
  switch (c) {
    case BoundClass::kSmall:
      return "small";
    case BoundClass::kMedium:
      return "medium";
    case BoundClass::kLarge:
      return "large";
    case BoundClass::kHuge:
      return "huge";
  }
  return "?";
}

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  Result<uint64_t> parsed = ParseInteger<uint64_t>(v);
  return parsed.ok() ? *parsed : fallback;
}

}  // namespace

SlaConfig SlaConfig::FromEnv() {
  SlaConfig c;
  c.session_fetch_budget =
      EnvU64("SCALEIN_SLA_SESSION_BUDGET", c.session_fetch_budget);
  c.server_fetch_capacity =
      EnvU64("SCALEIN_SLA_SERVER_BUDGET", c.server_fetch_capacity);
  c.query_deadline_ms =
      EnvU64("SCALEIN_SLA_QUERY_DEADLINE_MS", c.query_deadline_ms);
  c.output_row_cap = EnvU64("SCALEIN_SLA_ROW_CAP", c.output_row_cap);
  c.allow_degrade = EnvU64("SCALEIN_SLA_DEGRADE", 1) != 0;
  c.degrade_floor = EnvU64("SCALEIN_SLA_DEGRADE_FLOOR", c.degrade_floor);
  c.queue_capacity = static_cast<size_t>(
      EnvU64("SCALEIN_SLA_QUEUE_CAP", c.queue_capacity));
  c.queue_class_capacity = static_cast<size_t>(
      EnvU64("SCALEIN_SLA_QUEUE_CLASS_CAP", c.queue_class_capacity));
  c.queue_timeout_ms =
      EnvU64("SCALEIN_SLA_QUEUE_TIMEOUT_MS", c.queue_timeout_ms);
  c.max_running =
      static_cast<size_t>(EnvU64("SCALEIN_SLA_MAX_RUNNING", c.max_running));
  return c;
}

std::string SlaConfig::ToString() const {
  return StrFormat(
      "sla: session-budget=%llu server-budget=%llu deadline=%llums "
      "rows=%llu degrade=%s floor=%llu queue=%zu/%zu timeout=%llums "
      "running=%zu",
      static_cast<unsigned long long>(session_fetch_budget),
      static_cast<unsigned long long>(server_fetch_capacity),
      static_cast<unsigned long long>(query_deadline_ms),
      static_cast<unsigned long long>(output_row_cap),
      allow_degrade ? "on" : "off",
      static_cast<unsigned long long>(degrade_floor), queue_capacity,
      queue_class_capacity, static_cast<unsigned long long>(queue_timeout_ms),
      RunSlots());
}

std::string AdmissionDecision::ToString() const {
  std::string out(AdmitActionName(action));
  if (action == AdmitAction::kReject) {
    out += std::string("(") + RejectReasonName(reject) + ")";
  }
  if (static_bound >= 0) {
    out += StrFormat(" bound=%.0f", static_bound);
  } else {
    out += " bound=none";
  }
  if (sub_budget > 0) {
    out += StrFormat(" lease=%llu",
                     static_cast<unsigned long long>(sub_budget));
  }
  if (action == AdmitAction::kReject) {
    out += StrFormat(" retry-after=%llums",
                     static_cast<unsigned long long>(retry_after_ms));
  }
  if (!reason.empty()) out += ": " + reason;
  return out;
}

AdmissionDecision DecideAdmission(const AdmissionInput& in,
                                  const SlaConfig& config) {
  AdmissionDecision d;
  d.static_bound = in.static_bound;

  if (in.draining) {
    d.action = AdmitAction::kReject;
    d.reject = RejectReason::kDraining;
    d.retry_after_ms = 0;
    d.reason = "server is draining";
    return d;
  }

  // No finite Theorem 4.2 bound: there is nothing to admit against. The
  // server refuses up front instead of letting an unbounded evaluation eat
  // the envelope mid-flight; the journaled verdict names the missing bound.
  if (in.static_bound < 0) {
    d.action = AdmitAction::kReject;
    d.reject = RejectReason::kNoStaticBound;
    d.retry_after_ms = 0;
    d.reason = "query has no static fetch bound under the access schema";
    return d;
  }

  // Even a zero-bound query reserves one unit: GovernorLimits treats a zero
  // fetch budget as *disabled*, so a finite lease must never arm as 0.
  uint64_t need = static_cast<uint64_t>(std::ceil(in.static_bound));
  if (need == 0) need = 1;
  const bool fits = in.budget_unlimited || need <= in.budget_remaining;

  // First settle whether the query could run at all, and under what lease.
  // A query that cannot even degrade sheds immediately — no point holding a
  // queue slot for work the budget provably cannot cover.
  const bool degradable =
      config.allow_degrade && in.budget_remaining >= config.degrade_floor;
  if (!fits && !degradable) {
    d.action = AdmitAction::kReject;
    d.reject = RejectReason::kBudgetExhausted;
    // In-flight reservations refund unspent budget at completion, so a retry
    // after the current wave drains may fit; a bound larger than the whole
    // lease never will.
    d.retry_after_ms =
        (in.running > 0 || in.queued_total > 0) ? config.queue_timeout_ms : 0;
    d.reason = StrFormat(
        "bound %.0f exceeds remaining budget %llu (degrade floor %llu)",
        in.static_bound, static_cast<unsigned long long>(in.budget_remaining),
        static_cast<unsigned long long>(config.degrade_floor));
    return d;
  }

  // Runnable — but only in a free run slot. Degraded runs are subject to the
  // same slots as full admits: concurrency stays bounded under overload, and
  // a queued caller is re-decided against fresh budget state when its slot
  // frees (so a queued admit can still become a degrade, and vice versa).
  if (in.running < config.RunSlots()) {
    if (fits) {
      d.action = AdmitAction::kAdmit;
      d.sub_budget = in.budget_unlimited ? 0 : need;
      d.reason = StrFormat("bound %.0f fits remaining budget", in.static_bound);
      return d;
    }
    // The bound exceeds what is left of the lease but a useful sub-budget
    // remains: the query runs under the residual budget and returns a sound
    // Degraded<T> extent (a genuine subset of the answer).
    d.action = AdmitAction::kDegrade;
    d.sub_budget = in.budget_remaining;
    d.reason = StrFormat("bound %.0f exceeds remaining %llu; degraded lease",
                         in.static_bound,
                         static_cast<unsigned long long>(in.budget_remaining));
    return d;
  }

  // All run slots busy: bounded FIFO with per-class backpressure. The
  // caller holds the wait; a slot freeing within queue_timeout_ms turns
  // this into an admit/degrade, otherwise it becomes a queue-timeout shed.
  if (in.queued_total >= config.queue_capacity) {
    d.action = AdmitAction::kReject;
    d.reject = RejectReason::kQueueFull;
    d.retry_after_ms = config.queue_timeout_ms * (in.queued_total + 1);
    d.reason = StrFormat("queue at capacity (%zu)", config.queue_capacity);
    return d;
  }
  if (in.queued_in_class >= config.queue_class_capacity) {
    d.action = AdmitAction::kReject;
    d.reject = RejectReason::kQueueClassFull;
    d.retry_after_ms = config.queue_timeout_ms * (in.queued_in_class + 1);
    d.reason =
        StrFormat("bound-class '%s' queue share at capacity (%zu)",
                  BoundClassName(ClassifyBound(in.static_bound)),
                  config.queue_class_capacity);
    return d;
  }
  d.action = AdmitAction::kQueue;
  d.sub_budget = in.budget_unlimited ? 0 : (fits ? need : in.budget_remaining);
  d.reason = StrFormat("%zu running, %zu queued ahead", in.running,
                       in.queued_total);
  return d;
}

}  // namespace scalein::serve
