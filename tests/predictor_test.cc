// Tests for the online latency predictor (paper §4.7): conservative linear
// scaling for single observations, curve fitting across allocations,
// frequency-sensitivity learning, operator identity, and the misprediction
// accounting used in §7.4.
#include <gtest/gtest.h>

#include "src/core/latency_predictor.h"

namespace lithos {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  PredictorTest() : spec_(GpuSpec::A100()), predictor_(spec_) {}

  static OperatorKey Key(int queue, uint32_t ordinal, uint64_t sig = 0xabc) {
    return OperatorKey{queue, ordinal, sig};
  }

  ExecConditions Cond(double tpcs, int freq = 0, double frac = 1.0) {
    ExecConditions c;
    c.tpcs = tpcs;
    c.freq_mhz = freq == 0 ? spec_.max_mhz : freq;
    c.block_fraction = frac;
    return c;
  }

  GpuSpec spec_;
  LatencyPredictor predictor_;
};

TEST_F(PredictorTest, UnseenOperatorUsesDefault) {
  const DurationNs pred = predictor_.Predict(Key(1, 0), Cond(54));
  EXPECT_EQ(pred, LatencyPredictor::kDefaultLatency);
  EXPECT_FALSE(predictor_.HasSeen(Key(1, 0)));
}

TEST_F(PredictorTest, UnseenOperatorFallsBackToQueueMean) {
  predictor_.Record(Key(1, 0), Cond(54), FromMillis(4));
  // A different operator on the same queue inherits the queue prior.
  const DurationNs pred = predictor_.Predict(Key(1, 1), Cond(54));
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(FromMillis(4)),
              static_cast<double>(FromMillis(4)) * 0.05);
}

TEST_F(PredictorTest, RepeatObservationConverges) {
  const OperatorKey key = Key(1, 3);
  for (int i = 0; i < 20; ++i) {
    predictor_.Record(key, Cond(54), FromMicros(250));
  }
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(54))),
              static_cast<double>(FromMicros(250)), FromMicros(5));
}

TEST_F(PredictorTest, ConservativeLinearScalingFromSingleAllocation) {
  // Paper: "if an atom was previously executed with a TPC allocation of
  // 100%, it fits a linear trend to estimate the duration when given half".
  const OperatorKey key = Key(2, 0);
  predictor_.Record(key, Cond(54), FromMillis(1));
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(27))),
              static_cast<double>(FromMillis(2)), FromMillis(2) * 0.05);
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(13.5))),
              static_cast<double>(FromMillis(4)), FromMillis(4) * 0.05);
}

TEST_F(PredictorTest, FitsInverseCurveWithTwoAllocations) {
  // Ground truth: l(t) = 54ms/t + 1ms.
  const OperatorKey key = Key(3, 0);
  auto truth = [](double t) {
    return static_cast<DurationNs>(FromMillis(54) / t + FromMillis(1));
  };
  predictor_.Record(key, Cond(54), truth(54));
  predictor_.Record(key, Cond(1), truth(1));
  EXPECT_EQ(predictor_.DistinctTpcPoints(key), 2);

  // Interpolation at 27 TPCs: 3ms. The linear assumption would give 2x the
  // full-device latency (4ms); the fit does better.
  const DurationNs pred = predictor_.Predict(key, Cond(27));
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(truth(27)), FromMicros(100));
}

TEST_F(PredictorTest, GetScalingFitExposesCoefficients) {
  const OperatorKey key = Key(3, 1);
  predictor_.Record(key, Cond(54), static_cast<DurationNs>(FromMillis(54) / 54 + FromMillis(2)));
  ScalingFit fit;
  EXPECT_FALSE(predictor_.GetScalingFit(key, &fit));  // one point only
  predictor_.Record(key, Cond(1), static_cast<DurationNs>(FromMillis(54) + FromMillis(2)));
  ASSERT_TRUE(predictor_.GetScalingFit(key, &fit));
  EXPECT_NEAR(fit.m, static_cast<double>(FromMillis(54)), FromMillis(54) * 0.05);
  EXPECT_NEAR(fit.b, static_cast<double>(FromMillis(2)), FromMillis(2) * 0.1);
}

TEST_F(PredictorTest, BlockFractionScalesPrediction) {
  const OperatorKey key = Key(4, 0);
  predictor_.Record(key, Cond(54), FromMillis(10));
  const DurationNs half = predictor_.Predict(key, Cond(54, 0, 0.5));
  EXPECT_NEAR(static_cast<double>(half), static_cast<double>(FromMillis(5)),
              FromMillis(5) * 0.05);
}

TEST_F(PredictorTest, AtomObservationsCanonicaliseByFraction) {
  const OperatorKey key = Key(4, 1);
  // Observe quarter-grid atoms taking 1ms each; the whole kernel should be
  // predicted near 4ms.
  for (int i = 0; i < 8; ++i) {
    predictor_.Record(key, Cond(54, 0, 0.25), FromMillis(1));
  }
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(54))),
              static_cast<double>(FromMillis(4)), FromMillis(4) * 0.05);
}

TEST_F(PredictorTest, LearnsFrequencySensitivity) {
  const OperatorKey key = Key(5, 0);
  // Memory-bound ground truth: latency does not change with frequency.
  predictor_.Record(key, Cond(54, spec_.max_mhz), FromMillis(2));
  EXPECT_LT(predictor_.FreqSensitivity(key), 0);  // unknown yet
  predictor_.Record(key, Cond(54, 705), FromMillis(2));
  EXPECT_NEAR(predictor_.FreqSensitivity(key), 0.0, 0.05);

  // Compute-bound operator: half clock, double latency.
  const OperatorKey ckey = Key(5, 1);
  predictor_.Record(ckey, Cond(54, spec_.max_mhz), FromMillis(2));
  predictor_.Record(ckey, Cond(54, 705), FromMillis(4));
  EXPECT_NEAR(predictor_.FreqSensitivity(ckey), 1.0, 0.05);
}

TEST_F(PredictorTest, DistinctOperatorsDoNotAlias) {
  // Same signature, different ordinal: the paper's Conv-reused-across-layers
  // pitfall.
  predictor_.Record(Key(6, 0, 0x11), Cond(54), FromMillis(1));
  predictor_.Record(Key(6, 1, 0x11), Cond(54), FromMillis(9));
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(Key(6, 0, 0x11), Cond(54))),
              static_cast<double>(FromMillis(1)), FromMillis(1) * 0.1);
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(Key(6, 1, 0x11), Cond(54))),
              static_cast<double>(FromMillis(9)), FromMillis(9) * 0.1);
}

TEST_F(PredictorTest, MispredictionAccounting) {
  const OperatorKey key = Key(7, 0);
  // Error below 50us: not a misprediction.
  predictor_.Record(key, Cond(54), FromMicros(100), /*predicted=*/FromMicros(120));
  // Error above 50us: misprediction.
  predictor_.Record(key, Cond(54), FromMicros(100), /*predicted=*/FromMicros(400));
  // No prediction supplied: not counted at all.
  predictor_.Record(key, Cond(54), FromMicros(100));

  predictor_.FinalizeStats();
  const PredictionStats& stats = predictor_.stats();
  EXPECT_EQ(stats.predictions, 2u);
  EXPECT_EQ(stats.mispredictions, 1u);
  EXPECT_NEAR(stats.MispredictionRate(), 0.5, 1e-9);
  EXPECT_NEAR(stats.abs_error_us.Max(), 300.0, 1.0);

  predictor_.ResetStats();
  EXPECT_EQ(predictor_.stats().predictions, 0u);
}

// Property: predictions are always positive and monotonically non-increasing
// in the TPC allocation once a model exists.
class PredictorMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PredictorMonotoneTest, NonIncreasingInTpcs) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  const OperatorKey key{1, 0, 42};
  const int points = GetParam();
  for (int i = 0; i < points; ++i) {
    const double t = 1 + i * 53.0 / std::max(1, points - 1);
    ExecConditions c;
    c.tpcs = t;
    c.freq_mhz = spec.max_mhz;
    predictor.Record(key, c, static_cast<DurationNs>(FromMillis(10) / t + FromMicros(200)));
  }
  DurationNs prev = kTimeInfinity;
  for (int t = 1; t <= 54; ++t) {
    ExecConditions c;
    c.tpcs = t;
    c.freq_mhz = spec.max_mhz;
    const DurationNs p = predictor.Predict(key, c);
    ASSERT_GT(p, 0);
    ASSERT_LE(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(PointCounts, PredictorMonotoneTest, ::testing::Values(1, 2, 3, 5, 10));

}  // namespace
}  // namespace lithos
