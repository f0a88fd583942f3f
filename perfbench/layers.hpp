// Single-layer passes of the traced run: bare decode, channel preparation,
// wire encode/decode and wide decode, each timed around calls into the
// module's public functions.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Bare single-thread decode of every pool frame: build_channel_prep once
/// per coherence block, decode_with per frame. Checks every answer against
/// the pool's reference (mismatches land in `failed`).
struct DecodePass {
  std::vector<double> frame_us;  ///< per frame: decode_with, plus the block's
                                 ///< prep on its first frame
  double decode_us_total = 0.0;  ///< decode_with only
  double prep_us_total = 0.0;
  usize channels = 0;
  // Exact work counters summed over the pool (DecodeStats).
  std::uint64_t nodes = 0, flops = 0, bytes = 0, gemm_calls = 0;
  std::uint64_t neumann_terms = 0, neumann_fallbacks = 0;
  std::uint64_t quant_fallbacks = 0, quant_saturations = 0;
  usize failed = 0;
};
[[nodiscard]] DecodePass decode_pass(const Workload& w, const Pool& pool);

/// decode_wide over the pool in groups of `width` frames, each frame with
/// its own block's prep. Returns microseconds per frame; mismatches against
/// the reference are added to `failed`.
[[nodiscard]] double wide_pass(const Workload& w, const Pool& pool, usize width,
                               usize& failed);

/// encode_frame plus WireDecoder feed/next over the pool, with the served
/// channel-elision policy. Returns microseconds per frame; a frame that does
/// not round-trip is added to `failed`.
[[nodiscard]] double wire_pass(const Workload& w, const Pool& pool,
                               usize& failed);

}  // namespace perfbench
