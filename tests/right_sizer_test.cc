// Tests for hardware right-sizing (paper §4.5): the occupancy filter, the
// latency-slip bound over the fitted curve, and exploration behaviour before
// the curve is known.
#include <gtest/gtest.h>

#include "src/core/right_sizer.h"

namespace lithos {
namespace {

class RightSizerTest : public ::testing::Test {
 protected:
  RightSizerTest() : spec_(GpuSpec::A100()) {
    config_.enable_rightsizing = true;
    predictor_ = std::make_unique<LatencyPredictor>(spec_);
    sizer_ = std::make_unique<RightSizer>(spec_, config_, predictor_.get());
  }

  // Feeds the predictor the ground truth l(t) = m/t + b at several points.
  void Teach(const OperatorKey& key, double m_ms, double b_ms,
             std::initializer_list<double> tpcs) {
    for (double t : tpcs) {
      ExecConditions c;
      c.tpcs = t;
      c.freq_mhz = spec_.max_mhz;
      predictor_->Record(key, c,
                         static_cast<DurationNs>(FromMillis(m_ms) / t + FromMillis(b_ms)));
    }
  }

  GpuSpec spec_;
  LithosConfig config_;
  std::unique_ptr<LatencyPredictor> predictor_;
  std::unique_ptr<RightSizer> sizer_;
};

TEST_F(RightSizerTest, DisabledReturnsAvailable) {
  LithosConfig off;
  off.enable_rightsizing = false;
  RightSizer sizer(spec_, off, predictor_.get());
  const KernelDesc k = MakeKernel("k", 64, FromMillis(1), 0.9, 0.5, spec_);
  EXPECT_EQ(sizer.ChooseTpcs(OperatorKey{1, 0, 1}, k, 54), 54);
}

TEST_F(RightSizerTest, OccupancyFilterBoundsSmallKernels) {
  // 32 blocks at 16 blocks/TPC: at most 2 useful TPCs, whatever the model.
  const KernelDesc k = MakeKernel("k", 32, FromMillis(1), 0.9, 0.5, spec_);
  EXPECT_EQ(sizer_->OccupancyUpperBound(k), 2);
  EXPECT_LE(sizer_->ChooseTpcs(OperatorKey{1, 0, 1}, k, 54), 2);
}

TEST_F(RightSizerTest, UnseenKernelRunsAtFilteredFull) {
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(5), 0.95, 0.8, spec_);
  EXPECT_EQ(sizer_->ChooseTpcs(OperatorKey{1, 0, 2}, k, 54), 54);
}

TEST_F(RightSizerTest, SingleObservationTriggersProbe) {
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(5), 0.95, 0.8, spec_);
  const OperatorKey key{1, 0, 3};
  Teach(key, 54, 1, {54});
  const int probe = sizer_->ChooseTpcs(key, k, 54);
  EXPECT_EQ(probe, 27);  // probe_factor = 0.5
}

TEST_F(RightSizerTest, ModelPicksMinimalTpcsWithinSlip) {
  // l(t) = 54ms/t + 1ms: l(54) = 2ms; k = 1.1 allows 2.2ms; need
  // t >= 54 / (2.2 - 1) = 45.
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 0.95, 0.8, spec_);
  const OperatorKey key{1, 0, 4};
  Teach(key, 54, 1, {54, 1, 27});
  const int chosen = sizer_->ChooseTpcs(key, k, 54);
  EXPECT_EQ(chosen, 45);
}

TEST_F(RightSizerTest, FlatKernelShrinksToOne) {
  // Serial kernel: l(t) = 0/t + 5ms — any allocation within slip; choose 1.
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(5), 0.0, 0.3, spec_);
  const OperatorKey key{1, 0, 5};
  Teach(key, 0.0001, 5, {54, 1});
  EXPECT_EQ(sizer_->ChooseTpcs(key, k, 54), 1);
}

TEST_F(RightSizerTest, PerfectlyParallelKernelKeepsMost) {
  // l(t) = 54ms/t: slip 1.1 needs t >= 54/1.1 = 49.1 -> 50.
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(1), 1.0, 0.9, spec_);
  const OperatorKey key{1, 0, 6};
  Teach(key, 54, 0, {54, 1});
  const int chosen = sizer_->ChooseTpcs(key, k, 54);
  EXPECT_GE(chosen, 49);
  EXPECT_LE(chosen, 54);
}

TEST_F(RightSizerTest, NeverExceedsAvailable) {
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 0.95, 0.8, spec_);
  const OperatorKey key{1, 0, 7};
  Teach(key, 54, 1, {54, 1});
  EXPECT_LE(sizer_->ChooseTpcs(key, k, 10), 10);
}

// Property: for any learned curve, the chosen allocation's predicted latency
// respects the slip bound relative to the full allocation (the paper's
// guarantee), across slip values.
struct SlipCase {
  double slip;
  double m_ms;
  double b_ms;
};

class SlipBoundTest : public ::testing::TestWithParam<SlipCase> {};

TEST_P(SlipBoundTest, ChosenLatencyWithinSlip) {
  const SlipCase& c = GetParam();
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  cfg.enable_rightsizing = true;
  cfg.rightsizing_slip = c.slip;
  LatencyPredictor predictor(spec);
  RightSizer sizer(spec, cfg, &predictor);

  const OperatorKey key{1, 0, 99};
  for (double t : {1.0, 2.0, 9.0, 27.0, 54.0}) {
    ExecConditions cond;
    cond.tpcs = t;
    cond.freq_mhz = spec.max_mhz;
    predictor.Record(key, cond,
                     static_cast<DurationNs>(FromMillis(c.m_ms) / t + FromMillis(c.b_ms)));
  }

  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 0.95, 0.8, spec);
  const int chosen = sizer.ChooseTpcs(key, k, 54);
  ASSERT_GE(chosen, 1);
  ASSERT_LE(chosen, 54);

  const double l_chosen = FromMillis(c.m_ms) / chosen + FromMillis(c.b_ms);
  const double l_full = FromMillis(c.m_ms) / 54 + FromMillis(c.b_ms);
  EXPECT_LE(l_chosen, c.slip * l_full * 1.02);  // 2% numeric tolerance
}

INSTANTIATE_TEST_SUITE_P(Curves, SlipBoundTest,
                         ::testing::Values(SlipCase{1.05, 54, 1}, SlipCase{1.1, 54, 1},
                                           SlipCase{1.25, 54, 1}, SlipCase{1.5, 54, 1},
                                           SlipCase{1.1, 10, 5}, SlipCase{1.1, 100, 0.1},
                                           SlipCase{1.2, 0.5, 8}));

}  // namespace
}  // namespace lithos
