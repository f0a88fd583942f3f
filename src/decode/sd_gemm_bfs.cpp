#include "decode/sd_gemm_bfs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/gemm.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

/// Quantized frontier entry: MST node id plus its exact int32 Q(2f) PD.
struct QuantNode {
  NodeId id;
  std::int32_t pd;
};

/// Failed attempts that double the radius before the retry rule gives up on
/// growing it and runs one unbounded attempt.
constexpr int kMaxDoublings = 64;

}  // namespace

/// Per-frame engine state. Each frame keeps its own Meta State Table,
/// frontier and triangular system (ybar AND R may differ per frame), so
/// NodeIds, truncation cuts and stats evolve exactly as in a solo decode.
struct SdGemmBfsDetector::FusedFrame {
  PreprocessScratch prep;
  Preprocessed pre;
  std::optional<MetaStateTable> mst_storage;
  std::vector<ScratchNode> frontier, next;  ///< Float datapath
  std::vector<QuantNode> qfrontier, qnext;  ///< Int16 datapath
  std::vector<std::int16_t> qsyms;  ///< constellation under this frame's spec
  std::vector<index_t> path, best_path, layered;
  const void* key = nullptr;  ///< frames with equal keys share an R block
  const quant::QuantChannelPrep* qprep = nullptr;
  DecodeResult* out = nullptr;
  double sigma2 = 0.0;
  double radius_sq = 0.0;
  std::int32_t radius_q = 0;
  index_t m = 0;
  index_t depth = 0;  ///< level the frame's next pass starts at
  int attempt = 0;
  usize block = 0;    ///< index of this frame's A block at the level
  Stage stage = Stage::kDone;
  bool active = false;  ///< member of the running pass
  bool truncated = false;
};

/// fp32 datapath: complex level GEMM, float PDs against the double radius.
struct SdGemmBfsDetector::Float {
  using Node = ScratchNode;
  static constexpr Stage kStage = Stage::kFloat;
  SdGemmBfsDetector& d;

  static std::vector<Node>& frontier(FusedFrame& fr) { return fr.frontier; }
  static std::vector<Node>& next(FusedFrame& fr) { return fr.next; }
  void begin(FusedFrame&) const {}
  void begin_attempt(FusedFrame&) const {}
  static bool saturated(const FusedFrame&) { return false; }

  // In LevelGemm::kRow0 mode only row 0 of the product is formed — the only
  // row the PD recursion reads — which is bit-identical to row 0 of the full
  // product; flop/byte charges then reflect the smaller product.
  index_t rows(index_t k) const {
    return d.opts_.base.level_gemm == LevelGemm::kRow0 ? 1 : k;
  }
  void shape(index_t zr, index_t a_cols, index_t k, index_t cols) const {
    d.a_stack_.reshape(zr, a_cols);
    d.s_mat_.reshape(k, cols);
    d.z_.reshape(zr, cols);
  }
  // A block: rows a..a+zr of R from column a, the lower triangle written as
  // explicit zeros since reshape() recycles storage.
  void pack_a(const FusedFrame& fr, index_t base, index_t a, index_t k,
              index_t zr) const {
    for (index_t r2 = 0; r2 < zr; ++r2) {
      for (index_t t = 0; t < r2; ++t) d.a_stack_(r2, base + t) = cplx{0, 0};
      for (index_t t = r2; t < k; ++t) {
        d.a_stack_(r2, base + t) = fr.pre.r(a + r2, a + t);
      }
    }
  }
  // One node's p children: row 0 is every candidate symbol, rows 1..k-1 the
  // node's path, broadcast across the p columns.
  void pack_s(const FusedFrame& fr, index_t col, index_t depth,
              index_t k) const {
    const Constellation& c = *d.c_;
    for (index_t s = 0; s < c.order(); ++s) d.s_mat_(0, col + s) = c.point(s);
    for (index_t t = 1; t < k; ++t) {
      const cplx sym = c.point(fr.path[static_cast<usize>(depth - t)]);
      for (index_t s = 0; s < c.order(); ++s) d.s_mat_(t, col + s) = sym;
    }
  }
  // A lone frame takes the plain kernel; column independence makes the
  // grouped product bit-identical to it per frame.
  void product(index_t k) const {
    if (d.groups_.size() == 1) {
      gemm(Op::kNone, cplx{1, 0}, d.a_stack_, d.s_mat_, cplx{0, 0}, d.z_,
           d.gemm_ws_);
    } else {
      gemm_grouped(cplx{1, 0}, d.a_stack_, k, d.s_mat_, cplx{0, 0}, d.z_,
                   d.groups_, d.gemm_ws_);
    }
  }
  static void charge(DecodeStats& stats, index_t zr, index_t cols, index_t k) {
    stats.flops += gemm_flops(zr, cols, k);
    stats.bytes_touched +=
        sizeof(cplx) * (static_cast<std::uint64_t>(zr) * k +
                        static_cast<std::uint64_t>(k) * cols +
                        static_cast<std::uint64_t>(zr) * cols);
  }
  // One frame's view of a level: what its child loop reads, held in
  // registers rather than re-read through the frame and the detector.
  struct Level {
    cplx target;
    const cplx* z;  ///< row 0 of the level product
    double radius_sq;
    real child_pd(index_t col, real parent, DecodeStats&) const {
      return parent + norm2(target - z[col]);
    }
    bool outside(real pd) const {
      return static_cast<double>(pd) >= radius_sq;
    }
    static real mst_pd(real pd) { return pd; }
  };
  Level level(const FusedFrame& fr, index_t a, DecodeStats&) const {
    return {fr.pre.ybar[static_cast<usize>(a)], &d.z_(0, 0), fr.radius_sq};
  }
  static double metric(real pd, const FusedFrame&) {
    return static_cast<double>(pd);
  }
};

/// Fixed-point datapath calibrated to the FPGA's arithmetic: int16 level
/// GEMMs against the prep's quantized R planes, exact int32 PDs compared
/// against a scale-aware integer radius, saturating requantize between
/// levels. Reported PDs/metrics are dequantized (DESIGN.md §15).
struct SdGemmBfsDetector::Int16 {
  using Node = QuantNode;
  static constexpr Stage kStage = Stage::kInt16;
  SdGemmBfsDetector& d;

  static std::vector<Node>& frontier(FusedFrame& fr) { return fr.qfrontier; }
  static std::vector<Node>& next(FusedFrame& fr) { return fr.qnext; }
  // The constellation as interleaved (re, im) Q(f) pairs — once per decode,
  // since the scale is per channel.
  void begin(FusedFrame& fr) const {
    SD_CHECK(fr.qprep != nullptr && fr.qprep->valid(),
             "quantized search needs a calibrated channel prep");
    const quant::QuantSpec& spec = fr.qprep->spec;
    std::uint64_t& clamps = fr.out->stats.quant_saturations;
    fr.qsyms.clear();
    for (index_t i = 0; i < d.c_->order(); ++i) {
      const cplx s = d.c_->point(i);
      fr.qsyms.push_back(quant::quantize_sat(s.real(), spec, clamps));
      fr.qsyms.push_back(quant::quantize_sat(s.imag(), spec, clamps));
    }
  }
  // The float radius in the Q(2f) domain, rounded UP so the integer sphere
  // never prunes a candidate the float radius would keep at this scale.
  // Saturation (counted as an overflow) means Q(2f) cannot express a sphere
  // this large.
  void begin_attempt(FusedFrame& fr) const {
    const double scale = static_cast<double>(fr.qprep->spec.scale);
    const double scaled = std::ceil(fr.radius_sq * scale * scale);
    if (scaled < static_cast<double>(quant::kQuantPdMax)) {
      fr.radius_q = static_cast<std::int32_t>(scaled);
    } else {
      ++fr.out->stats.quant_overflows;
      fr.radius_q = quant::kQuantPdMax;
    }
  }
  // An empty sphere already as large as Q(2f) can express is a quantization
  // floor, not a radius problem: the frame re-runs on the float datapath.
  static bool saturated(const FusedFrame& fr) {
    return fr.radius_q >= quant::kQuantPdMax;
  }

  // Always row 0 only: the PD recursion consumes nothing but the new
  // level's residual, and 1 x k by k x cols is the madd kernel's shape.
  static index_t rows(index_t) { return 1; }
  void shape(index_t, index_t a_cols, index_t k, index_t cols) const {
    d.qa_re_.reshape(1, a_cols);
    d.qa_im_.reshape(1, a_cols);
    d.qs_ri_.reshape(k, 2 * cols);
    d.qz_re_.reshape(1, cols);
    d.qz_im_.reshape(1, cols);
  }
  void pack_a(const FusedFrame& fr, index_t base, index_t a, index_t k,
              index_t) const {
    for (index_t t = 0; t < k; ++t) {
      d.qa_re_(0, base + t) = fr.qprep->r_re(a, a + t);
      d.qa_im_(0, base + t) = fr.qprep->r_im(a, a + t);
    }
  }
  void pack_s(const FusedFrame& fr, index_t col, index_t depth,
              index_t k) const {
    const index_t p = d.c_->order();
    std::copy(fr.qsyms.begin(), fr.qsyms.end(), &d.qs_ri_(0, 2 * col));
    for (index_t t = 1; t < k; ++t) {
      const usize si =
          2 * static_cast<usize>(fr.path[static_cast<usize>(depth - t)]);
      const std::int16_t sr = fr.qsyms[si];
      const std::int16_t sim = fr.qsyms[si + 1];
      std::int16_t* row = &d.qs_ri_(t, 2 * col);
      for (index_t s = 0; s < p; ++s) {
        row[2 * s] = sr;
        row[2 * s + 1] = sim;
      }
    }
  }
  void product(index_t k) const {
    if (d.groups_.size() == 1) {
      quant::qgemm_level(d.qa_re_, d.qa_im_, d.qs_ri_, d.qz_re_, d.qz_im_);
    } else {
      quant::qgemm_level_grouped(d.qa_re_, d.qa_im_, k, d.qs_ri_, d.qz_re_,
                                 d.qz_im_, d.groups_);
    }
  }
  // flops are charged MAC-equivalent (same complex MAC count as the float
  // product of this shape); bytes reflect the narrow operands.
  static void charge(DecodeStats& stats, index_t, index_t cols, index_t k) {
    stats.flops += gemm_flops(1, cols, k);
    stats.bytes_touched += quant::qgemm_bytes(1, cols, k);
    stats.quant_requants += static_cast<std::uint64_t>(cols);
  }
  struct Level {
    std::int32_t t_re, t_im;  ///< quantized target, shifted to Q(2f)
    int frac_bits;
    const std::int32_t* z_re;  ///< the exact Q(2f) level product
    const std::int32_t* z_im;
    std::int32_t radius_q;
    double inv_scale2;
    // Residual in exact Q(2f), then the saturating requantize to Q(f) — the
    // between-levels narrowing — and an exact int32 PD.
    std::int32_t child_pd(index_t col, std::int32_t parent,
                          DecodeStats& stats) const {
      const std::int16_t rqr = quant::requantize_sat(
          t_re - z_re[col], frac_bits, stats.quant_saturations);
      const std::int16_t rqi = quant::requantize_sat(
          t_im - z_im[col], frac_bits, stats.quant_saturations);
      const std::int32_t inc = static_cast<std::int32_t>(rqr) * rqr +
                               static_cast<std::int32_t>(rqi) * rqi;
      return quant::pd_add_sat(parent, inc, stats.quant_overflows);
    }
    bool outside(std::int32_t pd) const { return pd >= radius_q; }
    // The MST records the dequantized PD so path/metric reporting stays in
    // the float domain; the search itself compares ints.
    real mst_pd(std::int32_t pd) const {
      return static_cast<real>(static_cast<double>(pd) * inv_scale2);
    }
  };
  Level level(const FusedFrame& fr, index_t a, DecodeStats& stats) const {
    const cplx t = fr.pre.ybar[static_cast<usize>(a)];
    const quant::QuantSpec& spec = fr.qprep->spec;
    const auto shifted = [&](real v) {
      return static_cast<std::int32_t>(
                 quant::quantize_sat(v, spec, stats.quant_saturations))
             << spec.frac_bits;
    };
    return {shifted(t.real()), shifted(t.imag()), spec.frac_bits,
            &d.qz_re_(0, 0), &d.qz_im_(0, 0), fr.radius_q, spec.inv_scale2};
  }
  static double metric(std::int32_t pd, const FusedFrame& fr) {
    return static_cast<double>(pd) * fr.qprep->spec.inv_scale2;
  }
};

SdGemmBfsDetector::SdGemmBfsDetector(const Constellation& constellation,
                                     BfsOptions options)
    : c_(&constellation), opts_(options) {
  // BFS cannot prune without a finite radius; an unbounded sphere would make
  // the frontier exactly |Omega|^level, i.e. exhaustive ML.
  if (opts_.base.radius_policy == RadiusPolicy::kInfinite) {
    opts_.base.radius_policy = RadiusPolicy::kNoiseScaled;
  }
}

SdGemmBfsDetector::~SdGemmBfsDetector() = default;

void SdGemmBfsDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                    double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  if (fused_.empty()) fused_.push_back(std::make_unique<FusedFrame>());
  FusedFrame& fr = *fused_[0];
  preprocess_into(h, y, opts_.base.sorted_qr, fr.prep, fr.pre);
  if (opts_.quantized) {
    // Same calibration+quantization code as build_channel_prep's quant
    // kinds, on the same R bytes — so decode_into and decode_with agree
    // bit-for-bit on the quantized path too.
    quant::quantize_channel_prep(fr.pre.r, qlocal_);
  }
  frames_.clear();
  admit(fr, &fr, &qlocal_, sigma2, out);
  run();
  truncated_ = fr.truncated;
}

void SdGemmBfsDetector::decode_with(const PreprocessedChannel& prep,
                                    std::span<const cplx> y, double sigma2,
                                    DecodeResult& out) {
  WideItem item{&prep, y, sigma2, &out};
  decode_wide({&item, 1});
}

void SdGemmBfsDetector::decode_wide(std::span<WideItem> items) {
  if (items.empty()) return;
  SD_TRACE_SPAN("decode");
  while (fused_.size() < items.size()) {
    fused_.push_back(std::make_unique<FusedFrame>());
  }
  // Frames carrying a foreign prep kind take the one-shot fallback first:
  // it runs through decode_into, which borrows frame slot 0.
  for (usize i = 0; i < items.size(); ++i) {
    const WideItem& item = items[i];
    SD_CHECK(item.prep != nullptr, "wide item missing a prepared channel");
    SD_CHECK(item.out != nullptr, "wide item missing an output slot");
    if (item.prep->kind == prep_kind()) continue;
    Detector::decode_with(*item.prep, item.y, item.sigma2, *item.out);
    fused_[i]->truncated = truncated_;
  }
  frames_.clear();
  for (usize i = 0; i < items.size(); ++i) {
    const WideItem& item = items[i];
    FusedFrame& fr = *fused_[i];
    if (item.prep->kind != prep_kind()) continue;
    preprocess_with_channel(*item.prep, item.y, fr.prep, fr.pre);
    admit(fr, item.prep, &item.prep->qprep, item.sigma2, *item.out);
  }
  run();
  // Match a sequential loop's view: report the batch's LAST frame.
  truncated_ = fused_[items.size() - 1]->truncated;
}

void SdGemmBfsDetector::admit(FusedFrame& fr, const void* block_key,
                              const quant::QuantChannelPrep* qprep,
                              double sigma2, DecodeResult& out) {
  frames_.push_back(&fr);
  out.reset();
  out.stats.preprocess_seconds = fr.pre.seconds;
  fr.key = block_key;
  fr.qprep = qprep;
  fr.out = &out;
  fr.sigma2 = sigma2;
  fr.m = fr.pre.r.rows();
  if (opts_.quantized) {
    begin<Int16>(fr);
  } else {
    begin<Float>(fr);
  }
}

void SdGemmBfsDetector::run() {
  if (opts_.quantized) bfs_lockstep<Int16>();
  bfs_lockstep<Float>();  // also every int16 frame that fell back
}

template <class D>
void SdGemmBfsDetector::begin(FusedFrame& fr) {
  fr.stage = D::kStage;
  fr.truncated = false;
  fr.out->stats.tree_levels = static_cast<std::uint64_t>(fr.m);
  fr.path.assign(static_cast<usize>(fr.m), 0);
  fr.best_path.assign(static_cast<usize>(fr.m), 0);
  fr.radius_sq = initial_radius_sq(opts_.base, fr.sigma2, fr.m);
  fr.attempt = 0;
  D{*this}.begin(fr);
  begin_attempt<D>(fr);
}

template <class D>
void SdGemmBfsDetector::begin_attempt(FusedFrame& fr) {
  D{*this}.begin_attempt(fr);
  if (!fr.mst_storage || fr.mst_storage->levels() != fr.m) {
    fr.mst_storage.emplace(fr.m, 4096);
  }
  fr.mst_storage->reset();
  D::frontier(fr).clear();
  D::frontier(fr).push_back(typename D::Node{kRootId, 0});
  fr.depth = 0;
}

template <class D>
void SdGemmBfsDetector::retry(FusedFrame& fr) {
  if (D::saturated(fr)) {
    // Re-run the frame on the float datapath; the int16 stats are dropped.
    const double prep_seconds = fr.out->stats.preprocess_seconds;
    fr.out->reset();
    fr.out->stats.preprocess_seconds = prep_seconds;
    fr.out->stats.quant_fallbacks = 1;
    begin<Float>(fr);
    return;
  }
  // Empty sphere: double the radius and re-run the whole BFS, the failed
  // attempts' work still charged. A zero radius never grows and a tiny one
  // would outlast the cap, so those get one unbounded attempt (work capped
  // by max_frontier; on int16 the radius saturates, hence the fallback).
  if (fr.radius_sq > 0.0 && fr.attempt < kMaxDoublings) {
    fr.radius_sq *= 2.0;
  } else {
    SD_ASSERT(fr.radius_sq != std::numeric_limits<double>::infinity());
    fr.radius_sq = std::numeric_limits<double>::infinity();
  }
  ++fr.attempt;
  begin_attempt<D>(fr);
}

template <class D>
void SdGemmBfsDetector::harvest(FusedFrame& fr) {
  // Leaf-level survivors: the minimum-PD one is the solution.
  const std::vector<typename D::Node>& leaves = D::frontier(fr);
  const auto best = std::min_element(
      leaves.begin(), leaves.end(),
      [](const auto& x, const auto& y2) { return x.pd < y2.pd; });
  fr.out->stats.leaves_reached += leaves.size();
  ++fr.out->stats.radius_updates;
  fr.mst_storage->path_symbols(best->id, fr.best_path);
  fr.layered.assign(fr.best_path.rbegin(), fr.best_path.rend());  // by layer
  to_antenna_order_into(fr.pre, fr.layered, fr.out->indices);
  fr.out->metric = D::metric(best->pd, fr);
  materialize_symbols(*c_, *fr.out);
  fr.stage = Stage::kDone;
}

template <class D>
void SdGemmBfsDetector::bfs_lockstep() {
  using Node = typename D::Node;
  D dp{*this};
  const index_t p = c_->order();
  // Cap on the stacked tree-state width: the widest operand a SOLO decode
  // forms (a full frontier's children). Exceeding it peels frames off the
  // pass, from the END of the batch, so fused memory stays bounded.
  const usize col_budget = opts_.max_frontier * static_cast<usize>(p);

  for (;;) {
    // One pass: every waiting frame at the first waiting frame's dimension
    // and start level runs the levels together. Retried, peeled and
    // mismatched frames wait for a later pass.
    const auto lead = std::find_if(
        frames_.begin(), frames_.end(),
        [](const FusedFrame* fr) { return fr->stage == D::kStage; });
    if (lead == frames_.end()) return;
    const index_t m = (*lead)->m;
    const index_t d0 = (*lead)->depth;
    for (FusedFrame* fr : frames_) {
      fr->active = fr->stage == D::kStage && fr->m == m && fr->depth == d0;
    }

    Timer timer;
    for (index_t depth = d0;; ++depth) {
      usize active_count = 0;
      usize total_cols = 0;
      for (FusedFrame* frp : frames_) {
        FusedFrame& fr = *frp;
        if (!fr.active) continue;
        if (D::frontier(fr).empty() || depth == m) {
          fr.active = false;
          fr.out->stats.search_seconds += timer.elapsed_seconds();
          if (D::frontier(fr).empty()) {
            retry<D>(fr);
          } else {
            harvest<D>(fr);
          }
          continue;
        }
        ++active_count;
        total_cols += D::frontier(fr).size() * static_cast<usize>(p);
      }
      for (auto it = frames_.rbegin();
           it != frames_.rend() && total_cols > col_budget && active_count > 1;
           ++it) {
        FusedFrame& fr = **it;
        if (!fr.active) continue;
        total_cols -= D::frontier(fr).size() * static_cast<usize>(p);
        fr.active = false;
        fr.depth = depth;  // resumes here in a later pass
        fr.out->stats.search_seconds += timer.elapsed_seconds();
        --active_count;
      }
      if (active_count == 0) break;

      // One level = one GEMM: z = R[a:m, a:m] * S, where S packs the
      // candidate tree-state blocks of every frontier node's every child —
      // the large level-wide matrix product that [1] maps onto the GPU. Row 0
      // carries the new level's contribution (the PD increment).
      const index_t a = m - 1 - depth;
      const index_t k = m - a;
      const index_t zr = dp.rows(k);

      // Stacked A: one R row-block per DISTINCT prep among the active
      // frames, side by side in first-appearance order. Same-channel frames
      // share a block; i.i.d. traffic gets one block per frame.
      blocks_.clear();
      for (FusedFrame* frp : frames_) {
        FusedFrame& fr = *frp;
        if (!fr.active) continue;
        usize g = 0;
        while (g < blocks_.size() && blocks_[g]->key != fr.key) ++g;
        if (g == blocks_.size()) blocks_.push_back(&fr);
        fr.block = g;
      }
      dp.shape(zr, static_cast<index_t>(blocks_.size()) * k, k,
               static_cast<index_t>(total_cols));
      for (usize g = 0; g < blocks_.size(); ++g) {
        dp.pack_a(*blocks_[g], static_cast<index_t>(g) * k, a, k, zr);
      }

      // One stacked tree-state operand: frame j's segment is exactly the S
      // it would build solo, and column independence of the kernels
      // (DESIGN.md §12/§14) makes its product bit-identical to the solo one.
      groups_.clear();
      usize col_off = 0;
      for (FusedFrame* frp : frames_) {
        FusedFrame& fr = *frp;
        if (!fr.active) continue;
        const std::vector<Node>& frontier = D::frontier(fr);
        for (usize ni = 0; ni < frontier.size(); ++ni) {
          if (frontier[ni].id != kRootId) {
            fr.mst_storage->path_symbols(frontier[ni].id, fr.path);
          }
          const usize col = col_off + ni * static_cast<usize>(p);
          dp.pack_s(fr, static_cast<index_t>(col), depth, k);
        }
        const index_t cols = static_cast<index_t>(frontier.size()) * p;
        groups_.push_back(GemmGroup{static_cast<index_t>(fr.block) * k,
                                    static_cast<index_t>(col_off), cols});
        col_off += static_cast<usize>(cols);
      }
      dp.product(k);

      // Per-frame consume: prune / insert / truncate with the frame's own
      // MST and stats. Stats are charged as-if-solo (each frame "sees" its
      // own product), so fused and sequential DecodeStats match exactly.
      col_off = 0;
      for (FusedFrame* frp : frames_) {
        FusedFrame& fr = *frp;
        if (!fr.active) continue;
        DecodeStats& stats = fr.out->stats;
        std::vector<Node>& frontier = D::frontier(fr);
        std::vector<Node>& next = D::next(fr);
        const usize f = frontier.size();
        const index_t cols = static_cast<index_t>(f) * p;
        ++stats.gemm_calls;
        D::charge(stats, zr, cols, k);
        stats.nodes_expanded += f;
        stats.nodes_generated += static_cast<std::uint64_t>(cols);

        MetaStateTable& mst = *fr.mst_storage;
        const typename D::Level lv = dp.level(fr, a, stats);
        next.clear();
        for (usize ni = 0; ni < f; ++ni) {
          const index_t base_col =
              static_cast<index_t>(col_off + ni * static_cast<usize>(p));
          for (index_t c = 0; c < p; ++c) {
            const auto pd = lv.child_pd(base_col + c, frontier[ni].pd, stats);
            if (lv.outside(pd)) {
              ++stats.nodes_pruned;
              continue;
            }
            const NodeId id = mst.insert(
                depth, MstNode{frontier[ni].id, c, lv.mst_pd(pd)});
            next.push_back(Node{id, pd});
          }
        }

        if (next.size() > opts_.max_frontier) {
          // Memory guard: keep the best max_frontier nodes — the BER-costing
          // heuristic GPU implementations fall back on.
          //
          // Determinism contract: the cut must be a TOTAL order. A pd-only
          // comparator lets the selection resolve PD ties (common for the
          // symmetric constellations) in stdlib-dependent order. The NodeId
          // tie-break is total (ids are unique) and reproducible (ids are
          // assigned in frontier order, itself deterministic by induction).
          // partial_sort rather than nth_element so the surviving frontier's
          // ORDER is pinned too: the next level assigns NodeIds in frontier
          // order, and those ids feed the next cut's key. On int16 the PDs
          // are exact, so ties are genuine value ties.
          fr.truncated = true;
          std::partial_sort(
              next.begin(),
              next.begin() + static_cast<std::ptrdiff_t>(opts_.max_frontier),
              next.end(), [](const Node& x, const Node& y2) {
                return x.pd < y2.pd || (x.pd == y2.pd && x.id < y2.id);
              });
          stats.nodes_pruned += next.size() - opts_.max_frontier;
          next.resize(opts_.max_frontier);
        }
        frontier.swap(next);
        stats.peak_list_size =
            std::max<std::uint64_t>(stats.peak_list_size, frontier.size());
        col_off += f * static_cast<usize>(p);
      }
    }
  }
}

}  // namespace sd
