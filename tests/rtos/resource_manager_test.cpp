#include "rtos/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::rtos {
namespace {

constexpr std::size_t kRes = 5, kTasks = 5;

std::unique_ptr<DeadlockStrategy> make(const std::string& kind,
                                       bus::SharedBus* bus = nullptr) {
  const ServiceCosts costs;
  std::vector<std::size_t> masters = {0, 1, 2, 3, 0};
  if (kind == "none") return make_none_strategy(kRes, kTasks, costs);
  if (kind == "pdda") return make_pdda_software_strategy(kRes, kTasks, costs);
  if (kind == "ddu") return make_ddu_strategy(kRes, kTasks, costs, bus);
  if (kind == "daa") return make_daa_software_strategy(kRes, kTasks, costs);
  return make_dau_strategy(kRes, kTasks, costs, bus, masters);
}

TEST(GrantingStrategies, ImmediateGrantAndOwnership) {
  for (const char* kind : {"none", "pdda", "ddu"}) {
    auto s = make(kind);
    const ResourceEvent ev = s->request(0, 0, 0);
    EXPECT_TRUE(ev.granted) << kind;
    EXPECT_EQ(s->owner(0), 0u) << kind;
    EXPECT_FALSE(ev.deadlock_detected) << kind;
  }
}

TEST(GrantingStrategies, ReleaseHandsToHighestPriorityWaiter) {
  for (const char* kind : {"none", "pdda", "ddu"}) {
    auto s = make(kind);
    s->request(3, 0, 0);
    s->request(2, 0, 0);
    s->request(4, 0, 0);
    const ResourceEvent ev = s->release(3, 0, 0);
    ASSERT_EQ(ev.grants.size(), 1u) << kind;
    EXPECT_EQ(ev.grants[0].first, 2u) << kind;
    EXPECT_EQ(s->owner(0), 2u) << kind;
  }
}

TEST(DetectionStrategies, FlagTable4Deadlock) {
  // The Table 4 grant at t5 creates the p2/p3 cycle; both detection
  // strategies must flag it on that event (the "none" baseline must not).
  for (const char* kind : {"pdda", "ddu", "none"}) {
    auto s = make(kind);
    s->request(0, 1, 0);   // p1 takes IDCT
    s->request(0, 0, 0);   // p1 takes VI
    s->request(2, 1, 0);   // p3 waits IDCT
    s->request(2, 3, 0);   // p3 takes WI
    s->request(1, 1, 0);   // p2 waits IDCT
    ResourceEvent ev = s->request(1, 3, 0);  // p2 waits WI
    EXPECT_FALSE(ev.deadlock_detected) << kind;
    ev = s->release(0, 1, 0);  // IDCT -> p2: deadlock!
    if (std::string(kind) == "none") {
      EXPECT_FALSE(ev.deadlock_detected);
    } else {
      EXPECT_TRUE(ev.deadlock_detected) << kind;
    }
  }
}

TEST(DetectionStrategies, AlgorithmTimesSampled) {
  auto sw = make("pdda");
  auto hwu = make("ddu");
  sw->request(0, 0, 0);
  hwu->request(0, 0, 0);
  EXPECT_EQ(sw->invocations(), 1u);
  EXPECT_EQ(hwu->invocations(), 1u);
  // Software detection is orders of magnitude slower.
  EXPECT_GT(sw->algorithm_times().mean(),
            100 * hwu->algorithm_times().mean());
}

TEST(DduStrategy, UsesBusForCellUpdates) {
  bus::SharedBus bus(5);
  auto s = make("ddu", &bus);
  s->request(0, 0, 0);
  EXPECT_GT(bus.total_transactions(), 0u);
}

TEST(AvoidanceStrategies, GrantAndPending) {
  for (const char* kind : {"daa", "dau"}) {
    auto s = make(kind);
    EXPECT_TRUE(s->request(0, 0, 0).granted) << kind;
    const ResourceEvent ev = s->request(1, 0, 0);
    EXPECT_FALSE(ev.granted) << kind;
    EXPECT_EQ(s->owner(0), 0u) << kind;
  }
}

TEST(AvoidanceStrategies, GdlAvoidedByLowerPriorityGrant) {
  for (const char* kind : {"daa", "dau"}) {
    auto s = make(kind);
    s->request(0, 0, 0);
    s->request(0, 1, 0);
    s->request(2, 1, 0);
    s->request(2, 3, 0);
    s->request(1, 1, 0);
    s->request(1, 3, 0);
    s->release(0, 0, 0);
    const ResourceEvent ev = s->release(0, 1, 0);
    ASSERT_EQ(ev.grants.size(), 1u) << kind;
    EXPECT_EQ(ev.grants[0].first, 2u) << kind;  // p3, not p2
    EXPECT_TRUE(ev.g_dl) << kind;
    ASSERT_NE(s->state(), nullptr);
    EXPECT_FALSE(rag::oracle_has_cycle(*s->state())) << kind;
  }
}

TEST(AvoidanceStrategies, RdlAsksOwnerToGiveUp) {
  for (const char* kind : {"daa", "dau"}) {
    auto s = make(kind);
    s->request(0, 0, 0);
    s->request(1, 1, 0);
    s->request(2, 2, 0);
    s->request(1, 2, 0);
    s->request(2, 0, 0);
    const ResourceEvent ev = s->request(0, 1, 0);
    EXPECT_TRUE(ev.r_dl) << kind;
    EXPECT_EQ(ev.asked, 1u) << kind;
    ASSERT_EQ(ev.ask_give_up.size(), 1u) << kind;
    EXPECT_EQ(ev.ask_give_up[0], 1u) << kind;
  }
}

TEST(AvoidanceStrategies, SafetyUnderRandomWorkload) {
  for (const char* kind : {"daa", "dau"}) {
    sim::Rng rng(404);
    auto s = make(kind);
    for (int step = 0; step < 300; ++step) {
      const rag::ProcId p = rng.below(kTasks);
      const rag::ResId q = rng.below(kRes);
      ResourceEvent ev;
      if (rng.chance(0.45)) {
        if (s->owner(q) != p) continue;
        ev = s->release(p, q, 0);
      } else {
        if (s->state()->at(q, p) != rag::Edge::kNone) continue;
        ev = s->request(p, q, 0);
      }
      if (ev.asked != kNoTask) {
        for (ResourceId give : ev.ask_give_up) {
          const ResourceEvent rel = s->release(ev.asked, give, 0);
          (void)rel;
        }
      }
      ASSERT_FALSE(rag::oracle_has_cycle(*s->state()))
          << kind << " step " << step;
    }
  }
}

TEST(DauStrategy, TimingMuchCheaperThanSoftware) {
  auto sw = make("daa");
  auto hwu = make("dau");
  // Same event sequence with a pending request (forces detection).
  for (auto* s : {sw.get(), hwu.get()}) {
    s->request(0, 0, 0);
    s->request(1, 0, 0);
  }
  EXPECT_GT(sw->algorithm_times().mean(),
            50 * hwu->algorithm_times().mean());
}

TEST(Strategies, MalformedEventsAreSafe) {
  for (const char* kind : {"none", "pdda", "ddu", "daa", "dau"}) {
    auto s = make(kind);
    EXPECT_FALSE(s->release(0, 0, 0).grants.size() > 0) << kind;
    s->request(0, 0, 0);
    const ResourceEvent dup = s->request(0, 0, 0);  // duplicate
    EXPECT_FALSE(dup.granted) << kind;
    EXPECT_EQ(s->owner(0), 0u) << kind;
  }
}

// One Algorithm 3 decision must reach the kernel identically from every
// avoidance backend: the software DAA, the DAU and the sharded DAU. The
// walk drives all three in lockstep the way the kernel does — give-ups
// are complied with a few steps late (release, re-request, retry every
// livelock-idled resource) — so requests to free resources with queued
// waiters re-run arbitration and can engage the livelock breaker.
TEST(AvoidanceStrategies, LockstepDecisionsAgreeAcrossBackends) {
  constexpr std::size_t kR = 4, kT = 5;
  constexpr int kLate = 3;
  const ServiceCosts costs;
  const std::vector<std::size_t> masters = {0, 1, 2, 3, 0};
  std::size_t livelocks = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::vector<std::unique_ptr<DeadlockStrategy>> s;
    s.push_back(make_daa_software_strategy(kR, kT, costs));
    s.push_back(make_dau_strategy(kR, kT, costs, nullptr, masters, 1));
    s.push_back(make_dau_strategy(kR, kT, costs, nullptr, masters, 2));
    struct GiveUp {
      int due;
      TaskId who;
      std::vector<ResourceId> what;
    };
    std::vector<GiveUp> asks;
    std::set<ResourceId> starved;
    int step = 0;
    std::string what;
    // Apply one event on resource q to every backend and require equal
    // decisions; record the kernel-visible side effects.
    auto all = [&](ResourceId q, auto&& call) {
      const ResourceEvent ev = call(*s[0]);
      for (std::size_t b = 1; b < s.size(); ++b) {
        const ResourceEvent other = call(*s[b]);
        const std::string at = "seed " + std::to_string(seed) + " step " +
                               std::to_string(step) + " " + what + " on " +
                               s[b]->name();
        EXPECT_EQ(ev.granted, other.granted) << at;
        EXPECT_EQ(ev.grants, other.grants) << at;
        EXPECT_EQ(ev.asked, other.asked) << at;
        EXPECT_EQ(ev.ask_give_up, other.ask_give_up) << at;
        EXPECT_EQ(ev.livelock, other.livelock) << at;
        EXPECT_EQ(ev.r_dl, other.r_dl) << at;
        EXPECT_EQ(ev.g_dl, other.g_dl) << at;
      }
      if (ev.livelock) {
        ++livelocks;
        starved.insert(q);
      }
      if (ev.asked != kNoTask && !ev.ask_give_up.empty())
        asks.push_back({step + kLate, ev.asked, ev.ask_give_up});
    };
    sim::Rng rng(seed);
    for (step = 0; step < 60 && !HasFailure(); ++step) {
      // Comply with the give-ups that fell due, as the kernel does.
      const auto due_end = std::stable_partition(
          asks.begin(), asks.end(),
          [&](const GiveUp& g) { return g.due <= step; });
      const std::vector<GiveUp> due(asks.begin(), due_end);
      asks.erase(asks.begin(), due_end);
      for (const GiveUp& g : due) {
        std::vector<ResourceId> released;
        for (ResourceId q : g.what) {
          if (s[0]->owner(q) != g.who) continue;
          what = "give-up t" + std::to_string(g.who) + " q" +
                 std::to_string(q);
          all(q, [&](DeadlockStrategy& x) { return x.release(g.who, q, 0); });
          released.push_back(q);
        }
        for (ResourceId q : released) {
          what = "re-request t" + std::to_string(g.who) + " q" +
                 std::to_string(q);
          all(q, [&](DeadlockStrategy& x) { return x.request(g.who, q, 0); });
        }
        const std::set<ResourceId> retry = std::exchange(starved, {});
        for (ResourceId q : retry) {
          what = "retry q" + std::to_string(q);
          all(q, [&](DeadlockStrategy& x) { return x.retry(q, 0); });
        }
      }
      const auto p = static_cast<TaskId>(rng.below(kT));
      const auto q = static_cast<ResourceId>(rng.below(kR));
      if (s[0]->owner(q) == p) {
        what = "release t" + std::to_string(p) + " q" + std::to_string(q);
        all(q, [&](DeadlockStrategy& x) { return x.release(p, q, 0); });
      } else if (s[0]->state()->at(q, p) == rag::Edge::kNone) {
        what = "request t" + std::to_string(p) + " q" + std::to_string(q);
        all(q, [&](DeadlockStrategy& x) { return x.request(p, q, 0); });
      }
      for (std::size_t b = 1; b < s.size(); ++b)
        ASSERT_TRUE(*s[0]->state() == *s[b]->state())
            << "seed " << seed << " step " << step << " " << what;
    }
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  // The walk must reach the livelock breaker, or it proves nothing.
  EXPECT_GT(livelocks, 0u);
}

TEST(Strategies, NamesIdentifyConfiguration) {
  EXPECT_NE(make("pdda")->name().find("RTOS1"), std::string::npos);
  EXPECT_NE(make("ddu")->name().find("RTOS2"), std::string::npos);
  EXPECT_NE(make("daa")->name().find("RTOS3"), std::string::npos);
  EXPECT_NE(make("dau")->name().find("RTOS4"), std::string::npos);
}

}  // namespace
}  // namespace delta::rtos
