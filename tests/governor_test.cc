#include "exec/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace scalein::exec {
namespace {

TEST(GovernorTest, UnarmedGovernorNeverTrips) {
  ResourceGovernor governor;
  governor.Arm(GovernorLimits{});
  EXPECT_FALSE(governor.limits().any());
  for (uint64_t i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(governor.OnFetch(i, nullptr));
    EXPECT_TRUE(governor.OnOutput(1, nullptr));
    EXPECT_TRUE(governor.Checkpoint());
  }
  EXPECT_FALSE(governor.tripped());
}

TEST(GovernorTest, FetchBudgetTripsStrictlyAboveBudget) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.fetch_budget = 5;
  governor.Arm(limits);
  // The budget itself is allowed (Q(D_Q) with |D_Q| ≤ M); only exceeding it
  // trips.
  EXPECT_TRUE(governor.OnFetch(5, nullptr));
  EXPECT_FALSE(governor.OnFetch(6, nullptr));
  ASSERT_TRUE(governor.tripped());
  EXPECT_EQ(governor.trip().kind, LimitKind::kFetchBudget);
  EXPECT_EQ(governor.trip().fetched_at_trip, 6u);
  EXPECT_EQ(governor.trip().ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, OutputRowCapTrips) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.output_row_cap = 3;
  governor.Arm(limits);
  EXPECT_TRUE(governor.OnOutput(3, nullptr));
  EXPECT_FALSE(governor.OnOutput(1, nullptr));
  EXPECT_EQ(governor.trip().kind, LimitKind::kOutputRows);
  EXPECT_EQ(governor.rows_emitted(), 4u);
  EXPECT_EQ(governor.trip().ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, DeadlineTripsAfterExpiry) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.deadline_ms = 1;
  governor.Arm(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is only consulted every kCheckInterval probes, so a trip can
  // be detected up to 63 probes late — never more.
  bool tripped = false;
  for (uint32_t i = 0; i <= ResourceGovernor::kCheckInterval && !tripped; ++i) {
    tripped = !governor.Checkpoint();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, LimitKind::kDeadline);
  EXPECT_EQ(governor.trip().ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, CancellationTokenObservedAtCheckpoints) {
  CancellationToken token;
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.has_cancel = true;
  limits.cancel = token;
  governor.Arm(limits);
  EXPECT_TRUE(governor.Checkpoint());
  token.Cancel();
  bool tripped = false;
  for (uint32_t i = 0; i <= ResourceGovernor::kCheckInterval && !tripped; ++i) {
    tripped = !governor.Checkpoint();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, LimitKind::kCancelled);
  EXPECT_EQ(governor.trip().ToStatus().code(), StatusCode::kCancelled);
}

TEST(GovernorTest, FirstTripSticks) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.fetch_budget = 1;
  limits.output_row_cap = 1;
  governor.Arm(limits);
  EXPECT_FALSE(governor.OnFetch(2, nullptr));
  // A later output overrun does not overwrite the recorded trip.
  EXPECT_FALSE(governor.OnOutput(5, nullptr));
  EXPECT_EQ(governor.trip().kind, LimitKind::kFetchBudget);
}

TEST(GovernorTest, RearmingClearsTheTrip) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.output_row_cap = 1;
  governor.Arm(limits);
  EXPECT_FALSE(governor.OnOutput(2, nullptr));
  governor.Arm(limits);
  EXPECT_FALSE(governor.tripped());
  EXPECT_EQ(governor.rows_emitted(), 0u);
  EXPECT_TRUE(governor.OnOutput(1, nullptr));
}

TEST(GovernorTest, PinnedResolvesRelativeDeadlineOnce) {
  GovernorLimits limits;
  limits.deadline_ms = 60'000;
  GovernorLimits pinned = limits.Pinned();
  EXPECT_GT(pinned.deadline_ns, 0u);
  // Pinning again keeps the already-absolute deadline (shared batch clock).
  GovernorLimits again = pinned.Pinned();
  EXPECT_EQ(again.deadline_ns, pinned.deadline_ns);
  // Unset limits stay unset.
  EXPECT_EQ(GovernorLimits{}.Pinned().deadline_ns, 0u);
}

// A zero fetch budget means "unlimited", NOT "zero allowance". The serve
// admission controller relies on this: it must never hand a drained session
// envelope a fetch_budget of 0 expecting it to refuse fetches (DecideAdmission
// clamps sub-budgets to >= 1 for exactly this reason).
TEST(GovernorTest, ZeroFetchBudgetIsDisabledNotZeroAllowance) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.fetch_budget = 0;
  governor.Arm(limits);
  EXPECT_FALSE(governor.limits().any());
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(governor.OnFetch(100, nullptr));
  }
  EXPECT_FALSE(governor.tripped());
}

// An envelope whose deadline already passed at admission time (e.g. a query
// that sat in the admission queue past its SLA) must trip at the very first
// check window, before meaningful work happens.
TEST(GovernorTest, PreExpiredDeadlineAtAdmissionTripsImmediately) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.deadline_ms = 1;
  GovernorLimits pinned = limits.Pinned();
  // Pin the absolute deadline first, then let it expire before arming —
  // exactly the shape of a queued query admitted after its deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  governor.Arm(pinned);
  bool tripped = false;
  for (uint32_t i = 0; i <= ResourceGovernor::kCheckInterval && !tripped; ++i) {
    tripped = !governor.Checkpoint();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, LimitKind::kDeadline);
  EXPECT_EQ(governor.trip().fetched_at_trip, 0u);
}

// Cancellation racing the first Charge: the token flips before the governor
// sees any fetch. The first check window must observe it, and the trip must
// report kCancelled (not some later limit the doomed work would have hit).
TEST(GovernorTest, CancellationBeforeFirstChargeWinsTheRace) {
  CancellationToken token;
  token.Cancel();
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.fetch_budget = 1;  // would also trip — cancellation must win
  limits.has_cancel = true;
  limits.cancel = token;
  governor.Arm(limits);
  bool tripped = false;
  uint32_t probes = 0;
  for (; probes <= ResourceGovernor::kCheckInterval && !tripped; ++probes) {
    tripped = !governor.OnFetch(1, nullptr);
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, LimitKind::kCancelled);
  // The observation is bounded by one check window.
  EXPECT_LE(probes, ResourceGovernor::kCheckInterval + 1);
}

// Cancellation from another thread concurrent with a charge loop: the loop
// must terminate (the trip is observed) without any additional coordination.
TEST(GovernorTest, CancellationFromAnotherThreadStopsChargeLoop) {
  CancellationToken token;
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.has_cancel = true;
  limits.cancel = token;
  governor.Arm(limits);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  // Unbounded-looking loop: only the token can stop it.
  while (governor.OnFetch(1, nullptr)) {
  }
  canceller.join();
  EXPECT_EQ(governor.trip().kind, LimitKind::kCancelled);
}

TEST(SharedLedgerTest, AcquireGrantsUpToCapacityThenZero) {
  SharedLedger ledger;
  EXPECT_TRUE(ledger.unlimited());
  EXPECT_EQ(ledger.Acquire(1000), 1000u);  // unlimited: granted in full
  ledger.Init(228);
  EXPECT_FALSE(ledger.unlimited());
  EXPECT_EQ(ledger.Acquire(200), 200u);
  EXPECT_EQ(ledger.Acquire(200), 28u);  // partial final grant
  EXPECT_EQ(ledger.Acquire(1), 0u);     // exhausted
}

// Release() is the serve-layer refund path: a session envelope returns the
// unspent part of its lease when a query finishes (or the whole lease when
// the session closes), making the units acquirable again.
TEST(SharedLedgerTest, ReleaseRefundsUnspentLeaseUnits) {
  SharedLedger ledger;
  ledger.Init(100);
  EXPECT_EQ(ledger.Acquire(100), 100u);
  EXPECT_EQ(ledger.Acquire(1), 0u);  // drained
  ledger.Release(60);                // refund the unspent part of the lease
  EXPECT_EQ(ledger.Acquire(100), 60u);
  EXPECT_EQ(ledger.Acquire(1), 0u);
}

TEST(SharedLedgerTest, ReleaseClampsAtCapacityAndIgnoresUnlimited) {
  SharedLedger unlimited;
  unlimited.Release(1ULL << 40);  // no-op: unlimited ledger has no pool
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_EQ(unlimited.Acquire(7), 7u);

  SharedLedger ledger;
  ledger.Init(10);
  EXPECT_EQ(ledger.Acquire(10), 10u);
  // An over-refund (buggy caller double-releasing) must not mint new budget
  // beyond what was actually reserved.
  ledger.Release(1000);
  EXPECT_EQ(ledger.Acquire(1000), 10u);  // exactly the legitimate 10 return
}

TEST(GovernorTest, TripInfoRendersKindAndDetail) {
  ResourceGovernor governor;
  GovernorLimits limits;
  limits.fetch_budget = 2;
  governor.Arm(limits);
  EXPECT_FALSE(governor.OnFetch(3, nullptr));
  std::string text = governor.trip().ToString();
  EXPECT_NE(text.find("fetch-budget"), std::string::npos);
  EXPECT_EQ(std::string(LimitKindName(LimitKind::kDeadline)), "deadline");
  EXPECT_FALSE(TripInfo{}.tripped());
  EXPECT_TRUE(TripInfo{}.ToStatus().ok());
}

}  // namespace
}  // namespace scalein::exec
