// The DAU at C > 1 clusters (sharded): every command's status register
// must be bit-identical to the C = 1 unit's on the same stream (the
// decision engine is the same Algorithm 3; only the probe cost model
// differs).
#include <gtest/gtest.h>

#include "hw/dau.h"
#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::hw {
namespace {

void expect_same_status(const DauStatus& a, const DauStatus& b, int step) {
  ASSERT_EQ(a.done, b.done) << "step " << step;
  ASSERT_EQ(a.successful, b.successful) << "step " << step;
  ASSERT_EQ(a.pending, b.pending) << "step " << step;
  ASSERT_EQ(a.give_up, b.give_up) << "step " << step;
  ASSERT_EQ(a.r_dl, b.r_dl) << "step " << step;
  ASSERT_EQ(a.g_dl, b.g_dl) << "step " << step;
  ASSERT_EQ(a.livelock, b.livelock) << "step " << step;
  ASSERT_EQ(a.which_process, b.which_process) << "step " << step;
  ASSERT_EQ(a.which_resource, b.which_resource) << "step " << step;
}

TEST(ShardedDau, LockstepWithMonolithicDauAt64x64) {
  Dau mono(64, 64);
  Dau shard(64, 64, 8);
  sim::Rng rng(11);  // same stream shape as LargeGeometry.DauOnA64x64System
  std::size_t escalated_commands = 0;
  for (int step = 0; step < 1500; ++step) {
    const rag::ProcId p = rng.below(64);
    const rag::ResId q = rng.below(64);
    if (rng.chance(0.45)) {
      if (mono.state().at(q, p) == rag::Edge::kGrant) {
        expect_same_status(mono.release(p, q), shard.release(p, q), step);
      }
    } else if (mono.state().at(q, p) == rag::Edge::kNone) {
      const DauStatus ms = mono.request(p, q);
      const DauStatus ss = shard.request(p, q);
      expect_same_status(ms, ss, step);
      if (ms.give_up && ms.which_process != rag::kNoProc) {
        // Copy: release() rewrites the asked-resource register.
        const std::vector<rag::ResId> give_list = mono.asked_resources();
        ASSERT_EQ(give_list, shard.asked_resources());
        for (rag::ResId give : give_list) {
          expect_same_status(mono.release(ms.which_process, give),
                             shard.release(ms.which_process, give), step);
        }
      }
    }
    ASSERT_TRUE(mono.state() == shard.state()) << "step " << step;
    ASSERT_FALSE(rag::oracle_has_cycle(shard.state())) << "step " << step;
    ASSERT_LE(shard.last_cycles(), shard.worst_case_cycles());
    escalated_commands += shard.last_escalations() > 0 ? 1 : 0;
  }
  // Cross-cluster traffic at 64x64 C=8 must exercise the resolver path.
  EXPECT_GT(escalated_commands, 0u);
}

TEST(ShardedDau, WorstCaseUnitCyclesBeatMonolithic) {
  const Dau mono(64, 64);
  const Dau shard(64, 64, 8);
  EXPECT_LT(shard.worst_case_cycles(), mono.worst_case_cycles());
}

TEST(ShardedDau, GrantFaultInjectionMirrorsDau) {
  Dau shard(8, 8, 2);
  shard.inject_grant_fault(true);
  EXPECT_TRUE(shard.grant_fault());
  // Build the two-process cross wait that the fault would mis-grant.
  EXPECT_TRUE(shard.request(0, 0).successful);
  EXPECT_TRUE(shard.request(1, 1).successful);
  EXPECT_TRUE(shard.request(1, 0).pending);
  // With the fault masking detection the crossing request pends with no
  // give-up ask, leaving a cycle the oracle can see — the same unsafe
  // shape Dau::inject_grant_fault produces.
  const DauStatus st = shard.request(0, 1);
  EXPECT_FALSE(st.give_up);
  EXPECT_TRUE(rag::oracle_has_cycle(shard.state()));
}

}  // namespace
}  // namespace delta::hw
