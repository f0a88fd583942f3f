// The lockstep BFS engine's two edge rules, on both datapaths:
//  - the retry rule answers frames whose noise-scaled radius is zero or far
//    too small to grow by doubling (sigma2 = 0 or 1e-30), solo, wide and
//    served;
//  - a wide batch mixing every way a frame leaves the lockstep (empty-sphere
//    retry, int16 -> float fallback, operand-budget peel, a foreign
//    dimension) stays bit-identical to sequential decode_with() per frame.
#include "decode/sd_gemm_bfs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spec_parse.hpp"
#include "decode/ml.hpp"
#include "mimo/scenario.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace sd {
namespace {

constexpr index_t kM = 8;

std::vector<Trial> qpsk_trials(usize n, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.num_tx = kM;
  sc.num_rx = kM;
  sc.modulation = Modulation::kQam4;
  sc.snr_db = 12.0;
  sc.seed = seed;
  Scenario s(sc);
  std::vector<Trial> trials;
  for (usize i = 0; i < n; ++i) trials.push_back(s.next());
  return trials;
}

SdGemmBfsDetector make_bfs(bool quantized, BfsOptions opts = {}) {
  opts.quantized = quantized;
  return SdGemmBfsDetector(Constellation::get(Modulation::kQam4), opts);
}

TEST(BfsZeroNoise, FloatAnswersWithTheMlSolution) {
  // Radius 0 never grows by doubling and 1e-30 would need more doublings
  // than the cap allows; both end in one unbounded attempt, which at 8x8
  // QPSK (4^8 < max_frontier) is exhaustive, hence ML.
  const Constellation& c = Constellation::get(Modulation::kQam4);
  MlDetector ml(c);
  SdGemmBfsDetector bfs = make_bfs(false);
  for (const double sigma2 : {0.0, 1e-30}) {
    for (const Trial& t : qpsk_trials(4, 11)) {
      const DecodeResult expect = ml.decode(t.h, t.y, t.sigma2);
      const DecodeResult got = bfs.decode(t.h, t.y, sigma2);
      EXPECT_EQ(got.indices, expect.indices) << "sigma2=" << sigma2;
      EXPECT_TRUE(std::isfinite(got.metric)) << "sigma2=" << sigma2;
    }
  }
}

TEST(BfsZeroNoise, Int16AnswersSoloAndInsideAWideBatch) {
  SdGemmBfsDetector bfs = make_bfs(true);
  const std::vector<Trial> trials = qpsk_trials(3, 12);
  for (const double sigma2 : {0.0, 1e-30}) {
    std::vector<ChannelHandle> channels;
    std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
    for (const Trial& t : trials) {
      channels.emplace_back(t.h);
      preps.push_back(bfs.preprocess(channels.back()));
    }
    // The middle frame carries ordinary noise, so the batch mixes frames the
    // retry rule must rescue with one that never needs it.
    std::vector<DecodeResult> wide(trials.size());
    std::vector<Detector::WideItem> items;
    for (usize i = 0; i < trials.size(); ++i) {
      items.push_back({preps[i].get(), trials[i].y,
                       i == 1 ? trials[i].sigma2 : sigma2, &wide[i]});
    }
    bfs.decode_wide(items);
    for (usize i = 0; i < trials.size(); ++i) {
      const DecodeResult solo = bfs.decode(trials[i].h, trials[i].y,
                                           items[i].sigma2);
      const DecodeResult* answers[] = {&solo, &wide[i]};
      for (const DecodeResult* r : answers) {
        EXPECT_EQ(r->indices.size(), static_cast<usize>(kM))
            << "sigma2=" << sigma2 << " frame " << i;
        EXPECT_TRUE(std::isfinite(r->metric))
            << "sigma2=" << sigma2 << " frame " << i;
      }
      EXPECT_EQ(wide[i].indices, solo.indices);
    }
  }
}

TEST(BfsZeroNoise, ServerCompletesAZeroNoiseFrame) {
  for (const char* spec : {"bfs", "bfs:precision=int16"}) {
    std::mutex mu;
    std::vector<serve::FrameResult> results;
    serve::DetectionServer srv(SystemConfig{kM, kM, Modulation::kQam4},
                               parse_decoder_spec(spec), {},
                               [&](const serve::FrameResult& r) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 results.push_back(r);
                               });
    const Trial t = qpsk_trials(1, 13).front();
    serve::FrameRequest f;
    f.channel = ChannelHandle(t.h);
    f.y = t.y;
    f.sigma2 = 0.0;
    ASSERT_EQ(srv.submit(std::move(f)), serve::SubmitStatus::kAccepted);
    srv.drain();
    ASSERT_EQ(results.size(), 1u) << spec;
    EXPECT_EQ(results[0].status, serve::FrameStatus::kCompleted) << spec;
    EXPECT_EQ(results[0].result.indices.size(), static_cast<usize>(kM));
  }
}

void expect_bit_identical(const DecodeResult& a, const DecodeResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.indices, b.indices) << what;
  EXPECT_EQ(a.symbols, b.symbols) << what;
  EXPECT_EQ(a.metric, b.metric) << what;
  // Every work counter except the measured *_seconds wall times.
  const DecodeStats& x = a.stats;
  const DecodeStats& y = b.stats;
  EXPECT_EQ(x.nodes_expanded, y.nodes_expanded) << what;
  EXPECT_EQ(x.nodes_generated, y.nodes_generated) << what;
  EXPECT_EQ(x.nodes_pruned, y.nodes_pruned) << what;
  EXPECT_EQ(x.leaves_reached, y.leaves_reached) << what;
  EXPECT_EQ(x.radius_updates, y.radius_updates) << what;
  EXPECT_EQ(x.gemm_calls, y.gemm_calls) << what;
  EXPECT_EQ(x.flops, y.flops) << what;
  EXPECT_EQ(x.bytes_touched, y.bytes_touched) << what;
  EXPECT_EQ(x.tree_levels, y.tree_levels) << what;
  EXPECT_EQ(x.peak_list_size, y.peak_list_size) << what;
  EXPECT_EQ(x.quant_saturations, y.quant_saturations) << what;
  EXPECT_EQ(x.quant_overflows, y.quant_overflows) << what;
  EXPECT_EQ(x.quant_requants, y.quant_requants) << what;
  EXPECT_EQ(x.quant_fallbacks, y.quant_fallbacks) << what;
}

class BfsEngineMix : public ::testing::TestWithParam<bool> {};

TEST_P(BfsEngineMix, WideMatchesSequentialAcrossEveryPeel) {
  const bool quantized = GetParam();
  BfsOptions opts;
  opts.max_frontier = 8;          // a few fused frames blow the budget
  opts.base.radius_alpha = 0.05;  // small spheres: empty-sphere retries
  SdGemmBfsDetector seq = make_bfs(quantized, opts);
  SdGemmBfsDetector wide = make_bfs(quantized, opts);

  // Seven 6x6 frames (three sharing one channel), one of them scaled far
  // outside the constellation's image so int16 saturates and falls back,
  // plus one 4x4 frame that cannot share the 6x6 passes.
  constexpr usize kFrames = 8;
  std::vector<ChannelHandle> channels;
  std::vector<CVec> ys;
  for (usize i = 0; i < kFrames; ++i) {
    const index_t m = i == 5 ? 4 : 6;
    channels.emplace_back(
        testing::random_cmat(m, m, i < 3 ? 7000 : 7000 + i));
    ys.push_back(testing::random_cvec(m, 7100 + i));
  }
  for (cplx& v : ys[3]) v *= real{1e6};
  std::vector<std::shared_ptr<const PreprocessedChannel>> preps;
  for (const ChannelHandle& ch : channels) preps.push_back(seq.preprocess(ch));

  std::vector<DecodeResult> expect(kFrames);
  bool retried = false;
  for (usize i = 0; i < kFrames; ++i) {
    seq.decode_with(*preps[i], ys[i], 1.0, expect[i]);
    // More level GEMMs than levels means more than one attempt.
    retried |= i != 3 && expect[i].stats.gemm_calls >
                             expect[i].stats.tree_levels;
  }
  ASSERT_TRUE(retried) << "no frame exercised the empty-sphere retry";
  if (quantized) {
    ASSERT_EQ(expect[3].stats.quant_fallbacks, 1u)
        << "the scaled frame must exercise the int16 -> float fallback";
  }

  std::vector<DecodeResult> got(kFrames);
  std::vector<Detector::WideItem> items;
  for (usize i = 0; i < kFrames; ++i) {
    items.push_back({preps[i].get(), ys[i], 1.0, &got[i]});
  }
  wide.decode_wide(items);
  for (usize i = 0; i < kFrames; ++i) {
    expect_bit_identical(expect[i], got[i], "frame " + std::to_string(i));
  }
  EXPECT_EQ(wide.last_truncated(), seq.last_truncated());
}

INSTANTIATE_TEST_SUITE_P(Datapaths, BfsEngineMix, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Int16" : "Float";
                         });

}  // namespace
}  // namespace sd
