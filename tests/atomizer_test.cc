// Tests for the Kernel Atomizer (paper §4.4): the block-range partition
// invariant of Algorithm 1, the short-kernel and wave-floor guards, the
// prelude cost model, and the adaptive atom-duration control.
#include <gtest/gtest.h>

#include "src/core/kernel_atomizer.h"

namespace lithos {
namespace {

KernelDesc Kernel(uint32_t blocks, uint32_t tpb = 256) {
  KernelDesc k;
  k.name = "k";
  k.grid_x = blocks;
  k.threads_per_block = tpb;
  return k;
}

class AtomizerTest : public ::testing::Test {
 protected:
  AtomizerTest() : spec_(GpuSpec::A100()), atomizer_(config_) {}

  LithosConfig config_;
  GpuSpec spec_;
  KernelAtomizer atomizer_;
};

TEST_F(AtomizerTest, ShortKernelNotAtomized) {
  const KernelDesc k = Kernel(5000);
  const AtomPlan plan = atomizer_.Plan(k, FromMicros(500), 54, spec_);
  EXPECT_FALSE(plan.atomized);
  ASSERT_EQ(plan.NumAtoms(), 1u);
  EXPECT_EQ(plan.atoms[0].block_lo, 0u);
  EXPECT_EQ(plan.atoms[0].block_hi, 5000u);
}

TEST_F(AtomizerTest, SingleBlockKernelNeverAtomized) {
  const KernelDesc k = Kernel(1);
  const AtomPlan plan = atomizer_.Plan(k, FromMillis(30), 54, spec_);
  EXPECT_FALSE(plan.atomized);
}

TEST_F(AtomizerTest, LongKernelSplitsByAtomDuration) {
  const KernelDesc k = Kernel(100000);
  // 8ms predicted with 1ms atoms on a small allocation: 8 atoms.
  const AtomPlan plan = atomizer_.Plan(k, FromMillis(8), 4, spec_);
  EXPECT_TRUE(plan.atomized);
  EXPECT_EQ(plan.NumAtoms(), 8u);
}

TEST_F(AtomizerTest, AtomCountCapped) {
  const KernelDesc k = Kernel(1000000);
  const AtomPlan plan = atomizer_.Plan(k, FromSeconds(10), 1, spec_);
  EXPECT_LE(static_cast<int>(plan.NumAtoms()), KernelAtomizer::kMaxAtomsPerKernel);
}

TEST_F(AtomizerTest, WaveFloorLimitsSplit) {
  // 320 blocks at 16 blocks/TPC on 54 granted TPCs: one wave is 864 blocks,
  // so the kernel cannot be split at all without starving the allocation.
  const KernelDesc k = Kernel(320);
  const AtomPlan plan = atomizer_.Plan(k, FromMillis(10), 54, spec_);
  EXPECT_FALSE(plan.atomized);

  // The same kernel on 2 TPCs (wave = 32 blocks) splits fine.
  const AtomPlan small = atomizer_.Plan(k, FromMillis(10), 2, spec_);
  EXPECT_TRUE(small.atomized);
  EXPECT_LE(small.NumAtoms(), 10u);  // 320/32 = 10 wave-sized atoms max
}

TEST_F(AtomizerTest, DisabledByConfig) {
  LithosConfig cfg;
  cfg.enable_atomization = false;
  KernelAtomizer atomizer(cfg);
  const AtomPlan plan = atomizer.Plan(Kernel(100000), FromMillis(50), 4, spec_);
  EXPECT_FALSE(plan.atomized);
}

TEST_F(AtomizerTest, OverheadModelChargesPreludeAndEarlyExit) {
  const KernelDesc k = Kernel(10000);
  const DurationNs ovh = atomizer_.AtomOverheadNs(k, 1000);
  // prelude + 9000 skipped blocks * early-exit tax
  const DurationNs expected =
      KernelAtomizer::kPreludeLaunchOverhead +
      static_cast<DurationNs>(KernelAtomizer::kEarlyExitNsPerBlock * 9000);
  EXPECT_EQ(ovh, expected);
}

TEST_F(AtomizerTest, AdaptiveAtomDurationDoublesOnHighOverhead) {
  const KernelDesc k = Kernel(100000);
  const uint64_t sig = k.LaunchSignature();
  const DurationNs base = atomizer_.EffectiveAtomDuration(sig);
  // 30% overhead: way above the 10% bound.
  atomizer_.RecordOverhead(sig, FromMillis(7), FromMillis(3));
  EXPECT_EQ(atomizer_.EffectiveAtomDuration(sig), 2 * base);
  // Low overhead afterwards: no further change.
  atomizer_.RecordOverhead(sig, FromMillis(10), FromMicros(10));
  EXPECT_EQ(atomizer_.EffectiveAtomDuration(sig), 2 * base);
}

TEST_F(AtomizerTest, AdaptiveScaleIsPerKernel) {
  const KernelDesc a = Kernel(1000);
  const KernelDesc b = Kernel(2000);
  atomizer_.RecordOverhead(a.LaunchSignature(), FromMillis(1), FromMillis(1));
  EXPECT_GT(atomizer_.EffectiveAtomDuration(a.LaunchSignature()),
            atomizer_.EffectiveAtomDuration(b.LaunchSignature()));
}

// Property (Algorithm 1 correctness): for any blocks/duration/allocation, the
// atom ranges are non-empty, contiguous, non-overlapping, and cover [0, B)
// exactly once.
// GoogleTest names each case after the raw bytes of its parameter, so every
// field is 8 bytes wide: a padded struct would put uninitialised padding into
// the test names and they would change from build to build.
struct AtomCase {
  uint64_t blocks;
  double predicted_ms;
  int64_t granted;
};
static_assert(sizeof(AtomCase) == 24, "AtomCase must have no padding");

class AtomPartitionTest : public ::testing::TestWithParam<AtomCase> {};

TEST_P(AtomPartitionTest, RangesPartitionGrid) {
  const AtomCase& c = GetParam();
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  KernelAtomizer atomizer(cfg);
  const KernelDesc k = Kernel(static_cast<uint32_t>(c.blocks));
  const AtomPlan plan =
      atomizer.Plan(k, FromMillis(c.predicted_ms), static_cast<int>(c.granted), spec);

  ASSERT_GE(plan.NumAtoms(), 1u);
  uint32_t expect_lo = 0;
  for (const Atom& atom : plan.atoms) {
    ASSERT_EQ(atom.block_lo, expect_lo);
    ASSERT_GT(atom.block_hi, atom.block_lo);  // non-empty
    expect_lo = atom.block_hi;
  }
  ASSERT_EQ(expect_lo, c.blocks);  // full coverage, no overlap by construction

  // Atom sizes are balanced within one block.
  uint32_t mn = UINT32_MAX, mx = 0;
  for (const Atom& atom : plan.atoms) {
    mn = std::min(mn, atom.NumBlocks());
    mx = std::max(mx, atom.NumBlocks());
  }
  EXPECT_LE(mx - mn, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AtomPartitionTest,
    ::testing::Values(AtomCase{1, 0.1, 54}, AtomCase{2, 100, 1}, AtomCase{63, 5, 1},
                      AtomCase{64, 8, 2}, AtomCase{1000, 20, 4}, AtomCase{3360, 12, 11},
                      AtomCase{100000, 500, 54}, AtomCase{7, 1000, 1},
                      AtomCase{999983, 64, 27}));

}  // namespace
}  // namespace lithos
