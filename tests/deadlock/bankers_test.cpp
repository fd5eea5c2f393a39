// Runtime Banker's avoidance engine (deadlock/bankers.h).
//
// The engine's contract: grants only when the post-grant state is safe
// (some completion order exists under max claims), refusals park the
// requester on a request edge, and releases drain every safe grant to a
// fixpoint. The oracle cross-checks that a Banker-managed state never
// contains a cycle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "deadlock/bankers.h"
#include "rag/oracle.h"
#include "sim/random.h"

// Counts every heap allocation in this binary, so a test can show which
// engine calls allocate.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace delta::deadlock {
namespace {

using rag::Edge;
using rag::ProcId;
using rag::ResId;
using Outcome = BankersEngine::Outcome;

TEST(Bankers, GrantsFreeResourceWhenSafe) {
  BankersEngine e(3, 3);
  const auto r = e.request(0, 1);
  EXPECT_EQ(r.outcome, Outcome::kGranted);
  EXPECT_EQ(e.owner(1), 0u);
  EXPECT_TRUE(e.is_safe());
}

TEST(Bankers, BusyResourceQueuesRequester) {
  BankersEngine e(2, 2);
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  const auto r = e.request(1, 0);
  EXPECT_EQ(r.outcome, Outcome::kRefusedBusy);
  EXPECT_EQ(e.state().at(0, 1), Edge::kRequest);
  EXPECT_EQ(e.unsafe_refusals(), 0u);
}

TEST(Bankers, RefusesUnsafeGrantOfFreeResource) {
  // Crossed claims: t0 claims {q0,q1} and holds q0; t1 claims {q1,q0}.
  // Granting q1 to t1 leaves no completion order (each needs the
  // other's holding), so the free resource must be refused.
  BankersEngine e(2, 2);
  e.declare_claims(0, {0, 1});
  e.declare_claims(1, {1, 0});
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  const auto r = e.request(1, 1);
  EXPECT_EQ(r.outcome, Outcome::kRefusedUnsafe);
  EXPECT_TRUE(r.unsafe_refusal);
  EXPECT_EQ(e.owner(1), rag::kNoProc);                // still free
  EXPECT_EQ(e.state().at(1, 1), Edge::kRequest);     // parked
  EXPECT_EQ(e.unsafe_refusals(), 1u);
}

TEST(Bankers, NarrowClaimsAllowWhatClaimAllForbids) {
  // Same shape, but t1 only ever claims q1: granting it is safe because
  // t1 can finish without q0.
  BankersEngine e(2, 2);
  e.declare_claims(0, {0, 1});
  e.declare_claims(1, {1});
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  EXPECT_EQ(e.request(1, 1).outcome, Outcome::kGranted);
}

TEST(Bankers, ReleaseDrainsParkedWaiter) {
  BankersEngine e(2, 2);
  e.declare_claims(0, {0, 1});
  e.declare_claims(1, {1, 0});
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(1, 1).outcome, Outcome::kRefusedUnsafe);
  // t0 finishes: release q0; the drain must now hand q1 to t1.
  const auto rel = e.release(0, 0);
  ASSERT_EQ(rel.grants.size(), 1u);
  EXPECT_EQ(rel.grants[0].first, 1u);
  EXPECT_EQ(rel.grants[0].second, 1u);
  EXPECT_EQ(e.owner(1), 1u);
}

TEST(Bankers, DrainRunsToFixpoint) {
  // t2 waits on q2 (busy), t1 parked-unsafe on q1. Releasing q2 grants
  // t2, whose completion possibility then makes t1's probe succeed in
  // the same drain pass — two grants from one release.
  BankersEngine e(3, 3);
  e.declare_claims(0, {0, 1});
  e.declare_claims(1, {1, 0});
  e.declare_claims(2, {2});
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(2, 2).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(1, 1).outcome, Outcome::kRefusedUnsafe);
  const auto rel = e.release(0, 0);
  ASSERT_EQ(rel.grants.size(), 1u);
  EXPECT_EQ(rel.grants[0], (std::pair<ProcId, ResId>{1, 1}));
}

TEST(Bankers, DuplicateRequestRefusedQuietly) {
  BankersEngine e(2, 2);
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  EXPECT_EQ(e.request(0, 0).outcome, Outcome::kRefusedBusy);
  EXPECT_EQ(e.owner(0), 0u);  // unchanged
}

TEST(Bankers, UndeclaredRequestWidensClaims) {
  // t0 declared {0} but requests q1: the engine widens the claim rather
  // than erroring, and the grant still goes through a safety probe.
  BankersEngine e(2, 2);
  e.declare_claims(0, {0});
  EXPECT_EQ(e.request(0, 1).outcome, Outcome::kGranted);
  EXPECT_EQ(e.owner(1), 0u);
}

TEST(Bankers, CancelRequestClearsPendingEdge) {
  BankersEngine e(2, 2);
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(1, 0).outcome, Outcome::kRefusedBusy);
  e.cancel_request(1, 0);
  EXPECT_EQ(e.state().at(0, 1), Edge::kNone);
  // Release must not grant the cancelled waiter.
  const auto rel = e.release(0, 0);
  EXPECT_TRUE(rel.grants.empty());
}

TEST(Bankers, DrainRespectsPriorityOrder) {
  BankersEngine e(1, 3);
  e.declare_claims(1, {0});
  e.declare_claims(2, {0});
  e.set_priority(1, 5);
  e.set_priority(2, 2);  // higher priority (smaller value)
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(1, 0).outcome, Outcome::kRefusedBusy);
  ASSERT_EQ(e.request(2, 0).outcome, Outcome::kRefusedBusy);
  const auto rel = e.release(0, 0);
  ASSERT_EQ(rel.grants.size(), 1u);
  EXPECT_EQ(rel.grants[0].first, 2u);  // the higher-priority waiter wins
}

TEST(Bankers, ForcedUnsafeGrantCreatesRealDeadlock) {
  // The fault models a broken implementation: with the probe skipped,
  // the crossed-claims shape walks straight into a cycle the oracle can
  // see — which is exactly what the differential campaign must catch.
  BankersEngine e(2, 2);
  e.declare_claims(0, {0, 1});
  e.declare_claims(1, {1, 0});
  e.force_unsafe_grants(true);
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  ASSERT_EQ(e.request(1, 1).outcome, Outcome::kGranted);  // unsafe!
  ASSERT_EQ(e.request(0, 1).outcome, Outcome::kRefusedBusy);
  ASSERT_EQ(e.request(1, 0).outcome, Outcome::kRefusedBusy);
  EXPECT_TRUE(rag::oracle_has_cycle(e.state()));
  EXPECT_FALSE(e.is_safe());
}

TEST(Bankers, MeterChargesSafetyProbes) {
  BankersEngine e(4, 4);
  ASSERT_EQ(e.request(0, 0).outcome, Outcome::kGranted);
  const OpMeter& m = e.last_meter();
  EXPECT_GT(m.loads, 0u);
  EXPECT_GT(m.branches, 0u);
}

TEST(Bankers, RequestAndReleaseAllocateOnlyGrants) {
  // The safety probe and the arbitration sweep run on scratch sized at
  // construction: the only allocation an event may make is its own
  // Result::grants list (vector growth: at most one per grant).
  sim::Rng rng(11);
  const std::size_t m = 4, n = 4;
  BankersEngine e(m, n);  // claim-everything: most second grants are unsafe
  std::size_t drained_grants = 0;
  for (int step = 0; step < 3000; ++step) {
    const ProcId p = static_cast<ProcId>(rng.below(n));
    const ResId q = static_cast<ResId>(rng.below(m));
    const Edge edge = e.state().at(q, p);
    if (edge == Edge::kRequest) {
      if (rng.below(4) == 0) e.cancel_request(p, q);
      continue;
    }
    const std::size_t before = g_allocations;
    const BankersEngine::Result r =
        edge == Edge::kGrant ? e.release(p, q) : e.request(p, q);
    ASSERT_LE(g_allocations - before, r.grants.size()) << "step " << step;
    drained_grants += r.grants.size();
  }
  // The walk reached both the refusing probe and the granting drain.
  EXPECT_GT(e.unsafe_refusals(), 0u);
  EXPECT_GT(drained_grants, 0u);
}

// Property: a Banker-managed state never contains a cycle, regardless
// of request order, and the system always drains (liveness) when every
// process eventually releases what it holds.
TEST(Bankers, RandomSequencesStaySafeAndDrain) {
  sim::Rng rng(0xba27e5);
  for (int round = 0; round < 50; ++round) {
    const std::size_t m = 2 + rng.below(4);  // resources
    const std::size_t n = 2 + rng.below(4);  // processes
    BankersEngine e(m, n);
    // Each process claims a random subset (possibly everything) and —
    // crucially — only ever requests inside it: an undeclared request
    // widens the claim on the fly, and widening voids the safety
    // guarantee by design (it has its own test).
    std::vector<std::vector<ResId>> claims(n);
    for (ProcId p = 0; p < n; ++p) {
      for (ResId q = 0; q < m; ++q)
        if (rng.below(2) != 0) claims[p].push_back(q);
      e.declare_claims(p, claims[p]);
      if (claims[p].empty())  // empty declaration == claims everything
        for (ResId q = 0; q < m; ++q) claims[p].push_back(q);
    }
    std::vector<std::vector<ResId>> held(n);
    for (int step = 0; step < 200; ++step) {
      const ProcId p = static_cast<ProcId>(rng.below(n));
      if (!held[p].empty() && rng.below(3) == 0) {
        const ResId q = held[p].back();
        held[p].pop_back();
        const auto rel = e.release(p, q);
        for (const auto& [gp, gq] : rel.grants) held[gp].push_back(gq);
      } else {
        const ResId q = claims[p][rng.below(claims[p].size())];
        if (e.state().at(q, p) != Edge::kNone) continue;
        if (e.request(p, q).outcome == Outcome::kGranted)
          held[p].push_back(q);
      }
      ASSERT_FALSE(rag::oracle_has_cycle(e.state()))
          << "round " << round << " step " << step;
      ASSERT_TRUE(e.is_safe());
    }
    // Release everything: the state must fully drain (every parked
    // waiter is granted and then released too).
    for (int pass = 0; pass < 200; ++pass) {
      bool any = false;
      for (ProcId p = 0; p < n; ++p) {
        while (!held[p].empty()) {
          const ResId q = held[p].back();
          held[p].pop_back();
          const auto rel = e.release(p, q);
          for (const auto& [gp, gq] : rel.grants) held[gp].push_back(gq);
          any = true;
        }
      }
      if (!any) break;
    }
    EXPECT_TRUE(e.state().empty()) << "round " << round;
  }
}

}  // namespace
}  // namespace delta::deadlock
