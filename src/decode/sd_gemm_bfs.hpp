// GEMM-based sphere decoder with Breadth-First (level-synchronous) search —
// the algorithm of Arfaoui et al. [1], which the paper reproduces on an
// NVIDIA A100 as its GPU comparison point (Fig. 11).
//
// All nodes of a tree level are expanded together and their children are
// evaluated in ONE large GEMM per level (R row-block times the level's whole
// tree-state matrix), which is what makes the strategy GPU-friendly. The
// price is pruning quality: the radius cannot shrink until the leaf level is
// reached, so the frontier — and the GEMM volume — grows far beyond what the
// Best-FS decoder touches. The node/GEMM counts recorded here are exact and
// feed the A100 timing model.
//
// One engine, bfs_lockstep<Datapath>, runs every decode: a solo decode is a
// width-1 batch, and the fp32 and int16 datapaths are compile-time policies
// over the same level loop (DESIGN.md §12, §14, §15).
#pragma once

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/mst.hpp"
#include "decode/sphere_common.hpp"
#include "quant/quant_gemm.hpp"

namespace sd {

struct BfsOptions {
  /// The BFS keeps the paper-form full level product: it is the GPU model's
  /// (Fig. 11) workload, and the wide/int16 paths are pinned against it.
  SdOptions base = {.radius_policy = RadiusPolicy::kNoiseScaled,
                    .radius_alpha = 2.0,
                    .level_gemm = LevelGemm::kFull};
  /// Frontier cap (memory guard). When the surviving set of a level exceeds
  /// it, only the best `max_frontier` nodes are kept — the "heuristic to
  /// limit the search space" that GPU implementations resort to (§IV-F),
  /// potentially costing BER. Exceeding the cap is reported in the stats.
  usize max_frontier = 1u << 18;
  /// Run the fixed-point (int16 storage / int32 PD) datapath calibrated to
  /// the FPGA's arithmetic: int16 level GEMMs, exact integer PD comparisons,
  /// scale-aware radius, saturating requantize between levels (DESIGN.md
  /// §15). Falls back to the float search per frame when the quantized
  /// radius saturates without finding a leaf.
  bool quantized = false;
};

class SdGemmBfsDetector final : public Detector {
 public:
  explicit SdGemmBfsDetector(const Constellation& constellation,
                             BfsOptions options = {});
  ~SdGemmBfsDetector() override;  // FusedFrame is an incomplete type here

  [[nodiscard]] std::string_view name() const override {
    return opts_.quantized ? "SD-GEMM-BFS-i16" : "SD-GEMM-BFS";
  }

  [[nodiscard]] const BfsOptions& options() const noexcept { return opts_; }

  /// Allocation-free in steady state (the scratch and `out` reach their
  /// high-water capacity and are then recycled).
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  /// The quantized variant requests the matching quant kind — the same float
  /// factorization plus the int16-calibrated R planes — which occupies its
  /// own (fingerprint, kind) cache slot, so quantized and float lanes never
  /// collide on one fingerprint.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    if (opts_.quantized) {
      return opts_.base.sorted_qr ? PrepKind::kQrSortedQuant
                                  : PrepKind::kQrPlainQuant;
    }
    return opts_.base.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Decode against a cached factorization; bit-identical to decode_into().
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// Fused multi-frame decode: the frames run the level-synchronous search
  /// in LOCKSTEP, each level issuing ONE grouped block-diagonal product over
  /// the distinct R blocks of the frames' preps (frames sharing a prep share
  /// a block; DESIGN.md §12, §14). Frames whose prep kind does not match
  /// take the one-shot fallback up front; frames that need a radius retry,
  /// exceed the fused operand budget or differ in dimension finish in later
  /// engine passes. Per-frame results and stats stay bit-identical to
  /// sequential decode_with() calls.
  void decode_wide(std::span<WideItem> items) override;

  /// True if the last decode had to truncate a frontier (BER no longer
  /// guaranteed ML-optimal). After decode_wide() this reports the LAST
  /// frame of the batch, matching a sequential loop over the frames.
  [[nodiscard]] bool last_truncated() const noexcept { return truncated_; }

 private:
  struct FusedFrame;  // per-frame lockstep state (sd_gemm_bfs.cpp)
  struct Float;       // datapath policies (sd_gemm_bfs.cpp)
  struct Int16;

  /// Which engine instantiation a frame waits for.
  enum class Stage : std::uint8_t { kDone, kInt16, kFloat };

  /// Adds a frame (preprocessed into its own scratch) to frames_.
  void admit(FusedFrame& fr, const void* block_key,
             const quant::QuantChannelPrep* qprep, double sigma2,
             DecodeResult& out);
  /// Runs frames_ to completion on both datapaths.
  void run();
  /// The lockstep engine: every frame of frames_ waiting for datapath D.
  template <class D> void bfs_lockstep();
  template <class D> void begin(FusedFrame& fr);
  template <class D> void begin_attempt(FusedFrame& fr);
  template <class D> void retry(FusedFrame& fr);
  template <class D> void harvest(FusedFrame& fr);

  const Constellation* c_;
  BfsOptions opts_;
  std::vector<std::unique_ptr<FusedFrame>> fused_;  ///< pooled across calls
  std::vector<FusedFrame*> frames_;  ///< the frames of the running call

  // Level operands shared by the frames of a pass (recycled like
  // DecodeScratch: reshape keeps the high-water allocation).
  CMat a_stack_, s_mat_, z_;
  GemmWorkspace gemm_ws_;
  quant::I16Mat qa_re_, qa_im_;  ///< stacked int16 A planes
  quant::I16Mat qs_ri_;          ///< interleaved tree-state operand
  quant::I32Mat qz_re_, qz_im_;  ///< exact Q(2f) level products
  std::vector<GemmGroup> groups_;           ///< per-level grouped-GEMM map
  std::vector<const FusedFrame*> blocks_;  ///< A-block source per block
  quant::QuantChannelPrep qlocal_;  ///< decode_into-path calibration
  bool truncated_ = false;
};

}  // namespace sd
