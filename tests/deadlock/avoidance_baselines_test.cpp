#include "deadlock/avoidance_baselines.h"

#include <gtest/gtest.h>

#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::deadlock {
namespace {

using rag::ProcId;
using rag::ResId;

TEST(Belik, GrantsFreeResource) {
  BelikAvoider b(2, 2);
  EXPECT_EQ(b.request(0, 0), BelikAvoider::Decision::kGranted);
  EXPECT_EQ(b.state().owner(0), 0u);
}

TEST(Belik, QueuesSafeWait) {
  BelikAvoider b(2, 2);
  b.request(0, 0);
  EXPECT_EQ(b.request(1, 0), BelikAvoider::Decision::kWaiting);
}

TEST(Belik, RefusesCycleClosingRequest) {
  BelikAvoider b(2, 2);
  b.request(0, 0);            // p0 owns q0
  b.request(1, 1);            // p1 owns q1
  b.request(0, 1);            // p0 waits q1: admitted
  // p1 -> q0 would close the cycle q0->p0->q1->p1->q0: refused.
  EXPECT_EQ(b.request(1, 0), BelikAvoider::Decision::kRefusedCycle);
  EXPECT_FALSE(rag::oracle_has_cycle(b.state()));
}

TEST(Belik, ReleaseHandsToAdmittedWaiter) {
  BelikAvoider b(2, 3);
  b.request(0, 0);
  b.request(1, 0);
  b.request(2, 0);
  EXPECT_EQ(b.release(0, 0), 1u);  // FIFO: p1 first
  EXPECT_EQ(b.state().owner(0), 1u);
  EXPECT_EQ(b.release(1, 0), 2u);
}

TEST(Belik, StateNeverCyclicUnderRandomWorkload) {
  sim::Rng rng(5);
  const std::size_t m = 4, n = 4;
  BelikAvoider b(m, n);
  for (int step = 0; step < 500; ++step) {
    const ProcId p = rng.below(n);
    if (rng.chance(0.4)) {
      const auto held = b.state().held_by(p);
      if (!held.empty()) b.release(p, held[rng.below(held.size())]);
    } else {
      const ResId q = rng.below(m);
      if (b.state().at(q, p) == rag::Edge::kNone) b.request(p, q);
    }
    ASSERT_FALSE(rag::oracle_has_cycle(b.state())) << "step " << step;
  }
}

TEST(Belik, RefusalDemonstratesLivelockHazard) {
  // The paper (§3.3.3) notes Belik offers no livelock solution: a refused
  // process retrying forever can starve. Demonstrate a refusal loop.
  BelikAvoider b(2, 2);
  b.request(0, 0);
  b.request(1, 1);
  b.request(0, 1);
  int refused = 0;
  for (int i = 0; i < 10; ++i)
    if (b.request(1, 0) == BelikAvoider::Decision::kRefusedCycle) ++refused;
  EXPECT_EQ(refused, 10);  // p1 is repeatedly denied with no remedy
}

}  // namespace
}  // namespace delta::deadlock
