// K-Best (breadth-limited) detector.
//
// A fixed-width variant of breadth-first tree search: every level keeps only
// the K lowest-PD nodes. Deterministic complexity like FSD, better BER
// shaping via the survivor sort. Included as the classic complexity/BER
// trade-off ablation against the exact sphere decoders.
#pragma once

#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

struct KBestOptions {
  usize k = 16;            ///< survivors kept per level
  bool sorted_qr = true;
};

class KBestDetector final : public Detector {
 public:
  explicit KBestDetector(const Constellation& constellation,
                         KBestOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "K-Best"; }

  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (SQRD by default) is cacheable.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Decode against a cached factorization; bit-identical to decode().
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

 private:
  /// The breadth-limited search on an already-prepared triangular system.
  void search(const Preprocessed& pre, DecodeResult& result) const;

  const Constellation* c_;
  KBestOptions opts_;
  PreprocessScratch prep_scratch_;
  Preprocessed pre_;
};

}  // namespace sd
