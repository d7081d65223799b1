// Tests for the TPC Scheduler allocation state (paper §4.3): quota carving,
// acquire/release bookkeeping, TPC Stealing policy (idle owners, headroom,
// priority-inversion protection), and reclaim flags.
#include <gtest/gtest.h>

#include "src/core/tpc_scheduler.h"

namespace lithos {
namespace {

class TpcSchedulerTest : public ::testing::Test {
 protected:
  TpcSchedulerTest() : spec_(GpuSpec::A100()), sched_(spec_, Config()) {}

  static LithosConfig Config() {
    LithosConfig cfg;
    cfg.enable_stealing = true;
    return cfg;
  }

  GpuSpec spec_;
  TpcScheduler sched_;
};

TEST_F(TpcSchedulerTest, QuotaCarvesContiguousHomeRegions) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 14);
  EXPECT_EQ(sched_.HomeQuota(1), 40);
  EXPECT_EQ(sched_.HomeQuota(2), 14);
  EXPECT_EQ(sched_.HomeMask(1).count(), 40u);
  EXPECT_TRUE(sched_.HomeMask(1).test(0));
  EXPECT_TRUE(sched_.HomeMask(2).test(40));
  EXPECT_EQ((sched_.HomeMask(1) & sched_.HomeMask(2)).count(), 0u);
}

TEST_F(TpcSchedulerTest, QuotaTruncatedAtCapacity) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 50);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 50);
  EXPECT_EQ(sched_.HomeQuota(1), 50);
  EXPECT_EQ(sched_.HomeQuota(2), 4);
}

TEST_F(TpcSchedulerTest, AcquirePrefersHomeThenPool) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  // 44 TPCs remain unowned (free pool).
  const TpcMask got = sched_.Acquire(1, 20);
  EXPECT_EQ(got.count(), 20u);
  // All 10 home TPCs are in the grant.
  EXPECT_EQ((got & sched_.HomeMask(1)).count(), 10u);
}

TEST_F(TpcSchedulerTest, ReleaseRestoresAvailability) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  const TpcMask got = sched_.Acquire(1, 10);
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 0);
  sched_.Release(got);
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 10);
}

TEST_F(TpcSchedulerTest, StealFromIdleOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);  // owns everything
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  // Owner inactive: the thief may take the whole device.
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 54u);
  EXPECT_EQ(sched_.stats().tpcs_stolen, 54u);
}

TEST_F(TpcSchedulerTest, NoStealWhenDisabled) {
  LithosConfig cfg;
  cfg.enable_stealing = false;
  TpcScheduler sched(spec_, cfg);
  sched.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask got = sched.Acquire(2, 54);
  EXPECT_EQ(got.count(), 0u);
  EXPECT_EQ(sched.stats().failed_acquisitions, 1u);
}

TEST_F(TpcSchedulerTest, NoStealFromWaitingOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(1, true);
  const TpcMask got = sched_.Acquire(2, 10);
  EXPECT_EQ(got.count(), 0u);
}

TEST_F(TpcSchedulerTest, ActiveOwnerKeepsDemandHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);

  // Owner runs a kernel wanting 32 TPCs; demand is remembered.
  const TpcMask own = sched_.Acquire(1, 32);
  EXPECT_EQ(own.count(), 32u);
  sched_.SetClientActive(1, true);
  sched_.Release(own);

  // Thief sees 40 free home TPCs but the owner's demand (32) is reserved:
  // only 8 home TPCs + 14 pool TPCs are takeable.
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 22u);
}

TEST_F(TpcSchedulerTest, InactiveOwnerForfeitsHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask own = sched_.Acquire(1, 32);
  sched_.Release(own);
  sched_.SetClientActive(1, false);  // job finished entirely
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 54u);
}

TEST_F(TpcSchedulerTest, BeCannotStealWhileAnyHpWaits) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(3, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(2, true);  // some HP has parked work
  // Client 1 idle; BE must still not steal from it (priority inversion).
  const TpcMask got = sched_.Acquire(3, 10);
  EXPECT_EQ(got.count(), 0u);
  // An HP thief is allowed to steal from the *idle* client 1, though.
  sched_.SetClientWaiting(2, false);
  const TpcMask hp_steal = sched_.Acquire(2, 30);
  EXPECT_EQ(hp_steal.count(), 30u);
}

TEST_F(TpcSchedulerTest, ReclaimFlagsBlockFurtherSteals) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask stolen = sched_.Acquire(2, 54);
  EXPECT_EQ(stolen.count(), 54u);

  sched_.RequestReclaim(1);
  EXPECT_TRUE(sched_.IsReclaimFlagged(0));

  // Thief's next atom cannot retake the flagged TPCs.
  sched_.Release(stolen);
  const TpcMask again = sched_.Acquire(2, 54);
  EXPECT_EQ(again.count(), 0u);

  // The owner reclaims; the flags clear on acquisition.
  const TpcMask own = sched_.Acquire(1, 54);
  EXPECT_EQ(own.count(), 54u);
  EXPECT_FALSE(sched_.IsReclaimFlagged(0));
}

TEST_F(TpcSchedulerTest, StatsAccumulate) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  sched_.Acquire(1, 5);
  sched_.Acquire(1, 5);
  EXPECT_EQ(sched_.stats().acquisitions, 2u);
  EXPECT_EQ(sched_.stats().tpcs_granted, 10u);
}

// Property: concurrent acquisitions never hand the same TPC to two clients.
class NoDoubleGrantTest : public ::testing::TestWithParam<int> {};

TEST_P(NoDoubleGrantTest, GrantsAreDisjoint) {
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  TpcScheduler sched(spec, cfg);
  const int clients = GetParam();
  for (int c = 1; c <= clients; ++c) {
    sched.RegisterClient(c, c % 2 ? PriorityClass::kHighPriority : PriorityClass::kBestEffort,
                         54 / clients);
  }
  TpcMask all;
  for (int c = 1; c <= clients; ++c) {
    const TpcMask got = sched.Acquire(c, 54);
    ASSERT_EQ((all & got).count(), 0u) << "double grant to client " << c;
    all |= got;
  }
  EXPECT_LE(all.count(), 54u);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, NoDoubleGrantTest, ::testing::Values(1, 2, 3, 4, 6, 9));

}  // namespace
}  // namespace lithos
