// End-to-end tests of the assembled LithOS backend: dispatch through the
// driver, atomization in flight, quota isolation, stealing with reclaim, the
// outstanding-work throttle, and predictor integration.
#include <gtest/gtest.h>

#include "src/core/lithos_backend.h"
#include "src/driver/driver.h"
#include "src/workloads/model.h"

namespace lithos {
namespace {

class LithosBackendTest : public ::testing::Test {
 protected:
  LithosBackendTest() : engine_(&sim_, GpuSpec::A100()), driver_(&sim_, &engine_) {}

  LithosBackend* Install(LithosConfig cfg = {}) {
    backend_ = std::make_unique<LithosBackend>(&sim_, &engine_, cfg);
    driver_.SetBackend(backend_.get());
    return backend_.get();
  }

  // Runs `count` back-to-back kernels on a stream and returns the total time.
  DurationNs RunKernels(Stream* stream, const KernelDesc* k, int count) {
    const TimeNs start = sim_.Now();
    for (int i = 0; i < count; ++i) {
      driver_.CuLaunchKernel(stream, k);
    }
    bool done = false;
    driver_.CuStreamAddCallback(stream, [&] { done = true; });
    sim_.RunUntil(sim_.Now() + FromSeconds(30));
    EXPECT_TRUE(done);
    return sim_.Now() - start;
  }

  Simulator sim_;
  ExecutionEngine engine_;
  Driver driver_;
  std::unique_ptr<LithosBackend> backend_;
};

TEST_F(LithosBackendTest, SingleKernelRunsToCompletion) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(1), 0.9, 0.5, engine_.spec());

  bool done = false;
  driver_.CuLaunchKernel(s, &k);
  driver_.CuStreamAddCallback(s, [&] { done = true; });
  sim_.RunUntil(FromSeconds(1));
  EXPECT_TRUE(done);
  EXPECT_GE(backend->atoms_dispatched(), 1u);
}

TEST_F(LithosBackendTest, StreamFifoOrderPreserved) {
  Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(1), 0.9, 0.5, engine_.spec());

  std::vector<int> completions;
  for (int i = 0; i < 5; ++i) {
    driver_.CuLaunchKernel(s, &k);
    driver_.CuStreamAddCallback(s, [&completions, i] { completions.push_back(i); });
  }
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(LithosBackendTest, LongKernelIsAtomized) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // 20ms kernel with plenty of blocks: must split once the predictor knows
  // its duration (first execution runs whole).
  const KernelDesc k = MakeKernel("long", 200000, FromMillis(20), 0.98, 0.8, engine_.spec(),
                                  /*threads_per_block=*/64);

  RunKernels(s, &k, 1);
  const uint64_t after_first = backend->atoms_dispatched();
  EXPECT_EQ(after_first, 1u);  // unseen -> predicted short -> whole launch

  RunKernels(s, &k, 1);
  // Known ~20ms now: atomized into multiple pieces.
  EXPECT_GE(backend->atoms_dispatched() - after_first, 4u);
}

TEST_F(LithosBackendTest, AtomizationDisabledLaunchesWhole) {
  LithosConfig cfg;
  cfg.enable_atomization = false;
  LithosBackend* backend = Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("long", 200000, FromMillis(20), 0.98, 0.8, engine_.spec(), 64);
  RunKernels(s, &k, 3);
  EXPECT_EQ(backend->atoms_dispatched(), 3u);
}

TEST_F(LithosBackendTest, QuotaIsolatesTwoClients) {
  Install();
  Client* a = driver_.CuCtxCreate("a", PriorityClass::kHighPriority, 27);
  Client* b = driver_.CuCtxCreate("b", PriorityClass::kHighPriority, 27);
  Stream* sa = driver_.CuStreamCreate(a);
  Stream* sb = driver_.CuStreamCreate(b);
  // Both clients saturate; each should get its quota's worth of progress.
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 1.0, 0.5, engine_.spec(), 64);

  int done_a = 0, done_b = 0;
  for (int i = 0; i < 50; ++i) {
    driver_.CuLaunchKernel(sa, &k);
    driver_.CuStreamAddCallback(sa, [&] { ++done_a; });
    driver_.CuLaunchKernel(sb, &k);
    driver_.CuStreamAddCallback(sb, [&] { ++done_b; });
  }
  sim_.RunUntil(FromMillis(100));
  EXPECT_GT(done_a, 5);
  // Symmetric quotas, symmetric progress (within one kernel).
  EXPECT_NEAR(done_a, done_b, 2);
}

TEST_F(LithosBackendTest, BestEffortStealsIdleCapacityAndYields) {
  LithosBackend* backend = Install();
  Client* hp = driver_.CuCtxCreate("hp", PriorityClass::kHighPriority, 54);
  Client* be = driver_.CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  Stream* sb = driver_.CuStreamCreate(be);
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 1.0, 0.5, engine_.spec(), 64);

  // HP idle: BE steals the whole device and makes progress.
  int done_be = 0;
  for (int i = 0; i < 10; ++i) {
    driver_.CuLaunchKernel(sb, &k);
    driver_.CuStreamAddCallback(sb, [&] { ++done_be; });
  }
  sim_.RunUntil(FromMillis(50));
  EXPECT_GT(done_be, 5);
  EXPECT_GT(backend->tpc_scheduler().stats().tpcs_stolen, 0u);

  // HP work arrives: it must get its full home region within ~an atom.
  Stream* sh = driver_.CuStreamCreate(hp);
  TimeNs hp_end = 0;
  const TimeNs hp_start = sim_.Now();
  driver_.CuLaunchKernel(sh, &k);
  driver_.CuStreamAddCallback(sh, [&] { hp_end = sim_.Now(); });
  sim_.RunUntil(hp_start + FromMillis(30));
  ASSERT_GT(hp_end, 0);
  // Ideal 2ms; reclaim costs at most a few atom durations.
  EXPECT_LT(hp_end - hp_start, FromMillis(15));

  // One Acquire per atom: each one either launched an atom or came back empty.
  const TpcSchedulerStats& stats = backend->tpc_scheduler().stats();
  EXPECT_EQ(stats.acquisitions, backend->atoms_dispatched() + stats.failed_acquisitions);
}

TEST_F(LithosBackendTest, OutstandingThrottleLimitsConcurrentAtoms) {
  LithosConfig cfg;
  cfg.max_outstanding_hp = 2;
  Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  // Four streams, each with one kernel: at most 2 dispatched at once.
  const KernelDesc k = MakeKernel("k", 8000, FromMillis(5), 0.9, 0.5, engine_.spec());
  for (int i = 0; i < 4; ++i) {
    Stream* s = driver_.CuStreamCreate(c);
    driver_.CuLaunchKernel(s, &k);
  }
  // Immediately after the synchronous dispatch cascade:
  EXPECT_LE(engine_.NumRunningGrants(), 2);
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(engine_.NumRunningGrants(), 0);
}

TEST_F(LithosBackendTest, PredictorLearnsFromExecutions) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(3), 0.9, 0.5, engine_.spec());

  RunKernels(s, &k, 1);
  OperatorKey key;
  key.queue_id = s->id();
  key.ordinal = 0;
  key.signature = k.LaunchSignature();
  EXPECT_TRUE(backend->predictor().HasSeen(key));

  ExecConditions cond;
  cond.tpcs = 54;
  cond.freq_mhz = engine_.spec().max_mhz;
  const DurationNs pred = backend->predictor().Predict(key, cond);
  const DurationNs truth = k.LatencyNs(engine_.spec(), 54, engine_.spec().max_mhz);
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(truth),
              static_cast<double>(truth) * 0.25);
}

TEST_F(LithosBackendTest, RightSizingShrinksAllocations) {
  LithosConfig cfg;
  cfg.enable_rightsizing = true;
  Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // A kernel with a hard serial floor: l(t) = small/t + big, so right-sizing
  // should collapse the allocation to very few TPCs.
  const KernelDesc k = MakeKernel("serial", 100000, FromMillis(2), 0.2, 0.5, engine_.spec(), 64);

  // Warm up the model (full run + probe run + fitted runs).
  RunKernels(s, &k, 6);
  engine_.ResetStats();
  const double before = sim_.Now();
  RunKernels(s, &k, 4);
  const auto& stats = engine_.Stats();
  const double elapsed_s = ToSeconds(static_cast<DurationNs>(sim_.Now() - before));
  const double avg_tpcs = stats.allocated_tpc_seconds.at(c->id) / elapsed_s;
  // 80% serial: the slip bound admits a small fraction of the device.
  EXPECT_LT(avg_tpcs, 20.0);
}

TEST_F(LithosBackendTest, DvfsLowersClockForMemoryBoundStream) {
  LithosConfig cfg;
  cfg.enable_dvfs = true;
  cfg.dvfs_learning_batches = 1;
  Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // Memory-bound kernel (sensitivity 0).
  const KernelDesc k = MakeKernel("mem", 100000, FromMillis(5), 0.9, 0.0, engine_.spec(), 64);

  // Several batches (marker-delimited) over multiple DVFS periods.
  for (int batch = 0; batch < 10; ++batch) {
    RunKernels(s, &k, 4);
    sim_.RunUntil(sim_.Now() + FromMillis(200));
  }
  EXPECT_LT(engine_.CurrentFrequencyMhz(), engine_.spec().max_mhz);
}

}  // namespace
}  // namespace lithos
