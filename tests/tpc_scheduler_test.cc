// Tests for the TPC Scheduler allocation state (paper §4.3): quota carving,
// acquire/release bookkeeping, TPC Stealing policy (idle owners, headroom,
// priority-inversion protection), reclaim flags, and a differential check
// against a per-TPC reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
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
  sched_.Release(1, got);
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
  sched_.Park(1);
  const TpcMask got = sched_.Acquire(2, 10);
  EXPECT_EQ(got.count(), 0u);
}

TEST_F(TpcSchedulerTest, ActiveOwnerKeepsDemandHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);

  // Owner runs a kernel wanting 32 TPCs; demand is remembered.
  const TpcMask own = sched_.Acquire(1, 32);
  EXPECT_EQ(own.count(), 32u);
  sched_.Release(1, own);
  // Its next kernel holds one TPC, so the owner is active; demand decays to
  // 31.36.
  const TpcMask next = sched_.Acquire(1, 1);
  EXPECT_EQ(next.count(), 1u);

  // Thief sees 39 free home TPCs but the owner's demand (32 rounded up) is
  // reserved: only 7 home TPCs + 14 pool TPCs are takeable.
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 21u);
  EXPECT_EQ((got & sched_.HomeMask(1)).count(), 7u);
}

TEST_F(TpcSchedulerTest, InactiveOwnerForfeitsHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask own = sched_.Acquire(1, 32);
  sched_.Release(1, own);  // job finished entirely: the owner holds nothing
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 54u);
}

TEST_F(TpcSchedulerTest, BeCannotStealWhileAnyHpWaits) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(3, PriorityClass::kBestEffort, 0);
  sched_.Park(2);  // some HP has parked work
  // Client 1 idle; BE must still not steal from it (priority inversion).
  const TpcMask got = sched_.Acquire(3, 10);
  EXPECT_EQ(got.count(), 0u);
  // An HP thief is allowed to steal from the *idle* client 1, though.
  sched_.Unpark(2);
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
  sched_.Release(2, stolen);
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

// Differential test: the mask-based scheduler against a per-TPC reference —
// the three-pass algorithm with owner/occupant/reclaim arrays and mirrored
// active/waiting flags it replaced. Random Acquire/Release/RequestReclaim/
// Park/Unpark sequences must produce the same grants, stats and reclaim
// flags.
class ReferenceScheduler {
 public:
  ReferenceScheduler(const GpuSpec& spec, bool enable_stealing)
      : total_(spec.TotalTpcs()), enable_stealing_(enable_stealing) {
    home_owner_.fill(-1);
    occupant_.fill(-1);
    reclaim_.fill(false);
  }

  void RegisterClient(int id, PriorityClass priority, int quota) {
    Client& c = clients_[id];
    c.priority = priority;
    const int granted = std::clamp(quota, 0, total_ - next_home_);
    for (int t = next_home_; t < next_home_ + granted; ++t) {
      home_owner_[t] = id;
      c.home.set(t);
    }
    next_home_ += granted;
  }

  void SetWaiting(int id, bool waiting) { clients_[id].waiting = waiting; }
  void SetActive(int id, bool active) { clients_[id].active = active; }

  TpcMask Acquire(int id, int desired) {
    Client& self = clients_[id];
    self.demand = std::max<double>(desired, self.demand * 0.98);
    TpcMask granted;
    int remaining = desired;
    uint64_t stolen = 0;
    auto take = [&](int t, bool is_steal) {
      granted.set(t);
      occupant_[t] = id;
      if (home_owner_[t] == id) {
        reclaim_[t] = false;
      }
      stolen += is_steal ? 1 : 0;
      --remaining;
    };
    for (int t = 0; t < total_ && remaining > 0; ++t) {
      if (home_owner_[t] == id && occupant_[t] == -1) {
        take(t, false);
      }
    }
    for (int t = 0; t < total_ && remaining > 0; ++t) {
      if (home_owner_[t] == -1 && occupant_[t] == -1) {
        take(t, false);
      }
    }
    if (enable_stealing_) {
      std::map<int, int> spare;
      for (int t = 0; t < total_ && remaining > 0; ++t) {
        const int owner = home_owner_[t];
        if (occupant_[t] != -1 || owner == -1 || owner == id || !StealAllowed(id, t)) {
          continue;
        }
        const Client& o = clients_[owner];
        if (o.active) {
          auto [sit, inserted] = spare.try_emplace(owner, 0);
          if (inserted) {
            sit->second = FreeHomeTpcs(owner) - static_cast<int>(std::ceil(o.demand));
          }
          if (sit->second <= 0) {
            continue;
          }
          --sit->second;
        }
        take(t, true);
      }
    }
    ++stats_.acquisitions;
    stats_.tpcs_granted += granted.count();
    stats_.tpcs_stolen += stolen;
    stats_.failed_acquisitions += granted.none() ? 1 : 0;
    return granted;
  }

  void Release(const TpcMask& mask) {
    for (int t = 0; t < total_; ++t) {
      if (mask.test(t)) {
        occupant_[t] = -1;
      }
    }
  }

  void RequestReclaim(int id) {
    ++stats_.reclaim_requests;
    for (int t = 0; t < total_; ++t) {
      if (home_owner_[t] == id && occupant_[t] != -1 && occupant_[t] != id) {
        reclaim_[t] = true;
      }
    }
  }

  int FreeHomeTpcs(int id) const {
    int n = 0;
    for (int t = 0; t < total_; ++t) {
      n += home_owner_[t] == id && occupant_[t] == -1 ? 1 : 0;
    }
    return n;
  }

  bool IsReclaimFlagged(int t) const { return reclaim_[t]; }
  const TpcSchedulerStats& stats() const { return stats_; }

 private:
  struct Client {
    PriorityClass priority = PriorityClass::kBestEffort;
    TpcMask home;
    bool waiting = false;
    bool active = false;
    double demand = 0;
  };

  bool StealAllowed(int thief, int t) const {
    if (reclaim_[t] || clients_.at(home_owner_[t]).waiting) {
      return false;
    }
    if (clients_.at(thief).priority == PriorityClass::kBestEffort) {
      for (const auto& [id, c] : clients_) {
        if (c.waiting && c.priority == PriorityClass::kHighPriority) {
          return false;
        }
      }
    }
    return true;
  }

  int total_;
  bool enable_stealing_;
  std::array<int, kMaxTpcs> home_owner_;
  std::array<int, kMaxTpcs> occupant_;
  std::array<bool, kMaxTpcs> reclaim_;
  std::map<int, Client> clients_;
  int next_home_ = 0;
  TpcSchedulerStats stats_;
};

void ExpectSameStats(const TpcSchedulerStats& got, const TpcSchedulerStats& want) {
  EXPECT_EQ(got.acquisitions, want.acquisitions);
  EXPECT_EQ(got.tpcs_granted, want.tpcs_granted);
  EXPECT_EQ(got.tpcs_stolen, want.tpcs_stolen);
  EXPECT_EQ(got.reclaim_requests, want.reclaim_requests);
  EXPECT_EQ(got.failed_acquisitions, want.failed_acquisitions);
}

// Runs `steps` random operations on both schedulers; returns false on the
// first divergence.
bool RunDifferential(const GpuSpec& spec, uint64_t seed, int steps) {
  Rng rng(seed);
  const int total = spec.TotalTpcs();
  LithosConfig cfg;
  cfg.enable_stealing = rng.NextDouble() < 0.85;
  TpcScheduler sched(spec, cfg);
  ReferenceScheduler ref(spec, cfg.enable_stealing);

  // Quotas sum to about the device size, so some runs truncate the last home
  // and some leave a free pool.
  const int clients = static_cast<int>(rng.UniformInt(2, 6));
  std::vector<int> parked(clients + 1, 0);
  for (int c = 1; c <= clients; ++c) {
    const auto priority =
        rng.NextDouble() < 0.5 ? PriorityClass::kHighPriority : PriorityClass::kBestEffort;
    const int quota = static_cast<int>(rng.UniformInt(0, 2 * total / clients));
    sched.RegisterClient(c, priority, quota);
    ref.RegisterClient(c, priority, quota);
  }

  std::vector<std::pair<int, TpcMask>> held;  // (client, grant) in flight
  auto sync_active = [&](int c) {
    bool active = false;
    for (const auto& [owner, mask] : held) {
      active |= owner == c;
    }
    ref.SetActive(c, active);
  };

  for (int step = 0; step < steps; ++step) {
    const int c = static_cast<int>(rng.UniformInt(1, clients));
    const double op = rng.NextDouble();
    if (op < 0.4) {
      const int desired = static_cast<int>(rng.UniformInt(1, total));
      const TpcMask got = sched.Acquire(c, desired);
      const TpcMask want = ref.Acquire(c, desired);
      EXPECT_EQ(got, want) << "step " << step << ": Acquire(" << c << ", " << desired << ")";
      if (got != want) {
        return false;
      }
      if (got.any()) {
        held.emplace_back(c, got);
        sync_active(c);
      }
    } else if (op < 0.75) {
      if (held.empty()) {
        continue;
      }
      const auto i =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      const auto [owner, mask] = held[i];
      held.erase(held.begin() + static_cast<ptrdiff_t>(i));
      sched.Release(owner, mask);
      ref.Release(mask);
      sync_active(owner);
    } else if (op < 0.85) {
      sched.RequestReclaim(c);
      ref.RequestReclaim(c);
    } else if (op < 0.93) {
      sched.Park(c);
      ref.SetWaiting(c, ++parked[c] > 0);
    } else if (parked[c] > 0) {
      sched.Unpark(c);
      ref.SetWaiting(c, --parked[c] > 0);
    }

    ExpectSameStats(sched.stats(), ref.stats());
    for (int t = 0; t < total; ++t) {
      EXPECT_EQ(sched.IsReclaimFlagged(t), ref.IsReclaimFlagged(t))
          << "step " << step << " tpc " << t;
    }
    for (int o = 1; o <= clients; ++o) {
      EXPECT_EQ(sched.FreeHomeTpcs(o), ref.FreeHomeTpcs(o)) << "step " << step << " client " << o;
    }
    if (::testing::Test::HasFailure()) {
      return false;
    }
  }
  return true;
}

TEST(TpcSchedulerDifferentialTest, MatchesPerTpcReference) {
  // A100 (54 TPCs) stays in one 64-bit mask word; H100 (68 TPCs) crosses
  // into the second.
  for (const GpuSpec& spec : {GpuSpec::A100(), GpuSpec::H100()}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
      ASSERT_TRUE(RunDifferential(spec, seed, 2000));
    }
  }
}

}  // namespace
}  // namespace lithos
