#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "decode/fsd.hpp"
#include "decode/kbest.hpp"
#include "decode/ml.hpp"
#include "mimo/scenario.hpp"

namespace sd {
namespace {

Trial make_trial(index_t m, Modulation mod, double snr, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = m;
  sc.num_rx = m;
  sc.modulation = mod;
  sc.snr_db = snr;
  sc.seed = seed;
  Scenario s(sc);
  return s.next();
}

TEST(Fsd, FullExpansionOfAllLevelsIsMl) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdOptions opts;
  opts.full_levels = 4;
  opts.sorted_qr = false;
  FsdDetector fsd(c, opts);
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam4, 6.0, seed);
    EXPECT_EQ(fsd.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(Fsd, DeterministicComplexityIndependentOfSnr) {
  // FSD's selling point: fixed node count regardless of noise.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c, FsdOptions{2, true});
  const Trial lo = make_trial(8, Modulation::kQam4, 2.0, 1);
  const Trial hi = make_trial(8, Modulation::kQam4, 20.0, 2);
  EXPECT_EQ(fsd.decode(lo.h, lo.y, lo.sigma2).stats.nodes_expanded,
            fsd.decode(hi.h, hi.y, hi.sigma2).stats.nodes_expanded);
  EXPECT_EQ(fsd.decode(lo.h, lo.y, lo.sigma2).stats.leaves_reached, 16u);
}

TEST(Fsd, RecoversNoiselessTransmission) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  FsdDetector fsd(c, FsdOptions{1, true});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(8, Modulation::kQam16, 300.0, seed);
    EXPECT_EQ(fsd.decode(t.h, t.y, t.sigma2).indices, t.tx.indices);
  }
}

TEST(Fsd, RejectsBadOptions) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  EXPECT_THROW(FsdDetector(c, FsdOptions{0, true}), invalid_argument_error);
}

TEST(Fsd, MetricNeverBeatsMl) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c, FsdOptions{1, true});
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(5, Modulation::kQam4, 6.0, seed);
    const double fsd_metric = fsd.decode(t.h, t.y, t.sigma2).metric;
    const double ml_metric = ml.decode(t.h, t.y, t.sigma2).metric;
    EXPECT_GE(fsd_metric, ml_metric - 1e-3 * (1 + ml_metric));
  }
}

// A NaN or overflowing received vector makes every path distance NaN or Inf,
// so no path ever beats the initial incumbent. The detector must still
// answer with a full, in-range index vector instead of reading an empty one.
void expect_defined_answer(const DecodeResult& r, index_t m, index_t order) {
  ASSERT_EQ(r.indices.size(), static_cast<usize>(m));
  ASSERT_EQ(r.symbols.size(), static_cast<usize>(m));
  for (const index_t idx : r.indices) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, order);
  }
}

TEST(Fsd, NanReceivedVectorGivesFullAnswer) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c);
  Trial t = make_trial(8, Modulation::kQam4, 10.0, 3);
  t.y[0] = cplx{std::numeric_limits<real>::quiet_NaN(), 0};
  const DecodeResult r = fsd.decode(t.h, t.y, t.sigma2);
  expect_defined_answer(r, 8, c.order());
  EXPECT_TRUE(std::isnan(r.metric));
}

TEST(Fsd, OverflowingReceivedVectorGivesFullAnswer) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  FsdDetector fsd(c);
  Trial t = make_trial(8, Modulation::kQam4, 10.0, 4);
  for (cplx& v : t.y) v *= real{1e30};
  const DecodeResult r = fsd.decode(t.h, t.y, t.sigma2);
  expect_defined_answer(r, 8, c.order());
  EXPECT_FALSE(std::isfinite(r.metric));
}

TEST(KBest, FullWidthEqualsMl) {
  // K >= |Omega|^M keeps every path, which is exhaustive ML.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  KBestDetector kbest(c, KBestOptions{256, false});
  MlDetector ml(c);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trial t = make_trial(4, Modulation::kQam4, 4.0, seed);
    EXPECT_EQ(kbest.decode(t.h, t.y, t.sigma2).indices,
              ml.decode(t.h, t.y, t.sigma2).indices)
        << "seed " << seed;
  }
}

TEST(KBest, WiderBeamNeverWorsensMetric) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  KBestDetector narrow(c, KBestOptions{2, true});
  KBestDetector wide(c, KBestOptions{32, true});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam16, 8.0, seed);
    const double m_narrow = narrow.decode(t.h, t.y, t.sigma2).metric;
    const double m_wide = wide.decode(t.h, t.y, t.sigma2).metric;
    EXPECT_LE(m_wide, m_narrow + 1e-3 * (1 + m_narrow)) << "seed " << seed;
  }
}

TEST(KBest, FrontierRespectsK) {
  const Constellation& c = Constellation::get(Modulation::kQam16);
  KBestDetector kbest(c, KBestOptions{8, true});
  const Trial t = make_trial(8, Modulation::kQam16, 8.0, 3);
  const DecodeResult r = kbest.decode(t.h, t.y, t.sigma2);
  EXPECT_LE(r.stats.peak_list_size, 8u);
  EXPECT_EQ(r.stats.leaves_reached, 8u);
}

TEST(KBest, RejectsZeroK) {
  const Constellation& c = Constellation::get(Modulation::kQam4);
  EXPECT_THROW(KBestDetector(c, KBestOptions{0, true}), invalid_argument_error);
}

TEST(KBest, K1IsSuccessiveInterferenceCancellation) {
  // K = 1 keeps only the Babai path; still a valid (if weak) detector.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  KBestDetector kbest(c, KBestOptions{1, false});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trial t = make_trial(6, Modulation::kQam4, 300.0, seed);
    EXPECT_EQ(kbest.decode(t.h, t.y, t.sigma2).indices, t.tx.indices);
  }
}

}  // namespace
}  // namespace sd
