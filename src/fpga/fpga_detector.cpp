#include "fpga/fpga_detector.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace sd {

FpgaDetector::FpgaDetector(const Constellation& constellation,
                           FpgaConfig config, SdOptions search_options)
    : c_(&constellation), opts_(search_options), pipeline_(config) {
  SD_CHECK(constellation.modulation() == config.modulation,
           "constellation/design modulation mismatch (the paper synthesizes "
           "one design per modulation)");
}

void FpgaDetector::decode_into(const CMat& h, std::span<const cplx> y,
                               double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  const Preprocessed pre = sd::preprocess(h, y, opts_.sorted_qr);
  last_ = pipeline_.run(pre, *c_, sigma2, opts_);
  out = last_.result;
  out.stats.preprocess_seconds = pre.seconds;
  // Simulated device latency (see header note).
  out.stats.search_seconds = last_.total_seconds;
}

}  // namespace sd
