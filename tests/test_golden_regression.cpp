// Golden regression pins: exact work counters and error counts for fixed
// seeds. These values were captured from a verified build; any change to
// the PRNG streams, the channel/noise generation, the QR, or the traversal
// logic will move them. A failure here is not necessarily a bug — but it IS
// a reproducibility break that must be a conscious, documented decision
// (every number in EXPERIMENTS.md depends on these streams).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sd {
namespace {

TEST(GoldenRegression, BestFs10x10Qam4) {
  // The paper-form full level product, whose flop count the device models
  // and the figures' CPU column use.
  const SystemConfig sys{10, 10, Modulation::kQam4};
  ExperimentRunner runner(sys, 20, 12345);
  DecoderSpec spec;
  spec.sd.level_gemm = LevelGemm::kFull;
  auto det = make_detector(sys, spec);
  const SweepPoint p = runner.run_point(*det, 8.0);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_expanded * 20 + 0.5), 4901u);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_generated * 20 + 0.5),
            19604u);
  EXPECT_NEAR(p.ber, 0.0375, 1e-12);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_flops * 20 + 0.5), 6961152u);
}

TEST(GoldenRegression, BestFs10x10Qam4DefaultRow0) {
  // The default Best-FS forms only row 0 of each level product: the same
  // tree and answers as the full product above, a k-th of the flops.
  const SystemConfig sys{10, 10, Modulation::kQam4};
  ExperimentRunner runner(sys, 20, 12345);
  auto det = make_detector(sys, DecoderSpec{});
  const SweepPoint p = runner.run_point(*det, 8.0);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_expanded * 20 + 0.5), 4901u);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_generated * 20 + 0.5),
            19604u);
  EXPECT_NEAR(p.ber, 0.0375, 1e-12);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_flops * 20 + 0.5), 1001024u);
}

TEST(GoldenRegression, BestFs6x6Qam16) {
  const SystemConfig sys{6, 6, Modulation::kQam16};
  ExperimentRunner runner(sys, 10, 777);
  auto det = make_detector(sys, DecoderSpec{});
  const SweepPoint p = runner.run_point(*det, 10.0);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_expanded * 10 + 0.5), 3238u);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_generated * 10 + 0.5),
            51808u);
  EXPECT_NEAR(p.ber, 0.1958333333, 1e-9);
}

TEST(GoldenRegression, FpgaSimulated8x8) {
  const SystemConfig sys{8, 8, Modulation::kQam4};
  DecoderSpec spec;
  spec.device = TargetDevice::kFpgaOptimized;
  ExperimentRunner runner(sys, 5, 42);
  auto det = make_detector(sys, spec);
  const SweepPoint p = runner.run_point(*det, 8.0);
  EXPECT_EQ(static_cast<std::uint64_t>(p.mean_nodes_expanded * 5 + 0.5), 196u);
  // Simulated device time is cycle-exact, hence pinnable to sub-ns.
  EXPECT_NEAR(p.mean_seconds * 1e6, 19.982, 1e-3);
}

TEST(GoldenRegression, TraversalIdentityAcrossImplementations) {
  // The golden counts above must be produced identically by the scalar
  // Best-FS and the SE-DFS implementation (same traversal).
  const SystemConfig sys{10, 10, Modulation::kQam4};
  ExperimentRunner runner(sys, 20, 12345);
  DecoderSpec scalar_spec;
  scalar_spec.strategy = Strategy::kBestFsScalar;
  DecoderSpec dfs_spec;
  dfs_spec.strategy = Strategy::kDfs;
  auto scalar_det = make_detector(sys, scalar_spec);
  auto dfs_det = make_detector(sys, dfs_spec);
  const SweepPoint ps = runner.run_point(*scalar_det, 8.0);
  const SweepPoint pd = runner.run_point(*dfs_det, 8.0);
  EXPECT_EQ(static_cast<std::uint64_t>(ps.mean_nodes_expanded * 20 + 0.5),
            4901u);
  EXPECT_EQ(static_cast<std::uint64_t>(pd.mean_nodes_expanded * 20 + 0.5),
            4901u);
  EXPECT_NEAR(ps.ber, 0.0375, 1e-12);
  EXPECT_NEAR(pd.ber, 0.0375, 1e-12);
}

}  // namespace
}  // namespace sd
