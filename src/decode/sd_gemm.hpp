// The paper's primary contribution (CPU reference implementation):
// a GEMM-based sphere decoder with Best-First-Search tree traversal.
//
// Structure follows the paper's Algorithm 1 + §III:
//  - Phase 1 (Branching): a popped node generates P = |Ω| children, one per
//    constellation symbol of the next transmit antenna.
//  - Phase 2 (Evaluation): the children's partial distances are computed in
//    one batched matrix product — the corresponding row block of R times the
//    children's tree-state matrix — followed by a norm against ybar. This is
//    the BLAS-2 -> BLAS-3 refactoring adopted from Arfaoui et al. [1]. By
//    default only row 0 of that product — the row the PD reads — is formed,
//    bit-identically (LevelGemm, sphere_common.hpp).
//  - Phase 3 (Pruning): children outside the sphere radius are cut; survivors
//    are sorted by PD and inserted into the tree list so the best child is
//    popped first (LIFO), which is the Best-FS strategy adopted from
//    Geosphere [14]. Reaching a leaf shrinks the radius (Alg. 1 line 8).
//
// The search tree lives in a Meta State Table, exactly as on the FPGA.
#pragma once

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/mst.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

class SdGemmDetector final : public Detector {
 public:
  explicit SdGemmDetector(const Constellation& constellation,
                          SdOptions options = {});

  [[nodiscard]] std::string_view name() const override {
    return opts_.gemm_eval ? "SD-GEMM-BestFS" : "SD-Scalar-BestFS";
  }

  [[nodiscard]] const SdOptions& options() const noexcept { return opts_; }

  /// Allocation-free in steady state (the scratch and `out` reach their
  /// high-water capacity and are then recycled).
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  /// Decode against a cached factorization; allocation-free in steady state
  /// and bit-identical to decode_into() on the same channel.
  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// Runs the tree search on an already-preprocessed triangular system.
  /// Exposed so the FPGA pipeline simulator can drive the identical search
  /// while charging hardware cycles. Stats are accumulated into `result`.
  void search(const Preprocessed& pre, double sigma2, DecodeResult& result);

 private:
  const Constellation* c_;
  SdOptions opts_;
  DecodeScratch scratch_;
};

}  // namespace sd
