// Multi-PE sphere decoding (the paper's §V future-work extension).
//
// The search tree is partitioned at a configurable split depth into
// |Omega|^split_depth nearly independent sub-trees, processed by a pool of
// worker threads ("Processing Entities"). Sub-trees are dealt out best-first
// (sorted by their root PD), which front-loads radius shrinkage. Workers
// share the sphere radius — the one coupling point Nikitopoulos et al. [4]
// identify — but only at round barriers: each round hands every worker one
// sub-tree, and the radius published between rounds is the minimum of the
// workers' bests. The work every worker does is therefore a function of the
// input and the worker count alone, so node counts are reproducible.
#pragma once

#include <utility>

#include "decode/decode_scratch.hpp"
#include "decode/detector.hpp"
#include "decode/sphere_common.hpp"

namespace sd {

struct ParallelSdOptions {
  SdOptions base = {};
  unsigned num_threads = 0;   ///< 0 = std::thread::hardware_concurrency()
  index_t split_depth = 1;    ///< tree depth at which sub-trees are cut
};

class ParallelSdDetector final : public Detector {
 public:
  explicit ParallelSdDetector(const Constellation& constellation,
                              ParallelSdOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "SD-MultiPE"; }

  /// One-frame decode through the sub-tree engine (a width-1 wide decode).
  /// Preprocessing and partition scratch are reused across calls; the
  /// per-decode worker threads still allocate.
  void decode_into(const CMat& h, std::span<const cplx> y, double sigma2,
                   DecodeResult& out) override;

  /// Channel-split phase: the QR (plain or SQRD per options) is cacheable.
  /// Workers read the shared prep strictly read-only (exercised under TSan
  /// by tests/test_channel_prep.cpp).
  [[nodiscard]] PrepKind prep_kind() const noexcept override {
    return opts_.base.sorted_qr ? PrepKind::kQrSorted : PrepKind::kQrPlain;
  }

  void decode_with(const PreprocessedChannel& prep, std::span<const cplx> y,
                   double sigma2, DecodeResult& out) override;

  /// Cross-channel wide decode (DESIGN.md §16): every frame's sub-tree
  /// partition is flattened into ONE work-unit list, interleaved round-robin
  /// across frames in each frame's best-first rank order, and dealt out in
  /// rounds of W units (unit j -> worker j mod W). Per-frame radii are
  /// published only at the round barriers, folded in worker order, and the
  /// per-(worker, frame) bests are reduced after the join in worker order.
  /// Indices and metric are bit-identical to sequential decode_with() for
  /// any worker count; every DecodeStats counter depends only on the inputs
  /// and the worker count.
  void decode_wide(std::span<WideItem> items) override;

 private:
  /// Per-worker ("Processing Entity") reusable traversal state. Workers
  /// index their own slot, so slots are touched by one thread at a time;
  /// the buffers persist across decodes.
  struct PeScratch {
    struct Level {
      std::vector<ScratchChild> ordered;
      usize next = 0;
    };
    std::vector<index_t> path;
    std::vector<Level> levels;
  };

  /// Per-frame state: the preprocessed system plus this frame's flat
  /// sub-tree partition. Slots persist across calls so the partition
  /// buffers are recycled.
  struct WideSlot {
    Preprocessed pre;
    std::vector<index_t> prefix_flat;
    std::vector<real> prefix_pd;
    std::vector<usize> order;
    usize count = 0;
    index_t split = 0;
    double sigma2 = 0.0;
    DecodeResult* out = nullptr;
  };

  /// One worker's best leaf for one frame so far, and the work it spent on
  /// that frame. Written only by its worker; read at barriers and the join.
  struct WorkerBest {
    double pd = std::numeric_limits<double>::infinity();
    std::vector<index_t> path;
    DecodeStats stats;
  };

  /// Resets `out` and binds it to frame slot `si` (growing the slot list).
  WideSlot& open_slot(usize si, double sigma2, DecodeResult& out);

  /// The sub-tree engine: partitions, searches and reduces frame slots
  /// [0, nslots), whose `pre` must already be filled, into their outputs.
  void search_slots(usize nslots);

  /// Depth-first search of work unit `unit` by worker `wi`.
  void search_unit(unsigned wi, usize unit, usize nslots);

  /// Partition phase: enumerates the |Omega|^split prefixes of `pre` into
  /// `flat` (count x split, row-major) with PDs in `pd` and the best-first
  /// sort permutation in `order`. Returns the sub-tree count and accumulates
  /// partition-phase node counters into `stats`.
  usize partition_prefixes(const Preprocessed& pre, index_t split,
                           std::vector<index_t>& flat, std::vector<real>& pd,
                           std::vector<usize>& order, DecodeStats& stats);

  const Constellation* c_;
  ParallelSdOptions opts_;
  PreprocessScratch prep_scratch_;
  std::vector<index_t> layered_;

  // Partition ping-pong scratch (the final generation lands in the slot).
  std::vector<index_t> prefix_flat_next_;
  std::vector<real> prefix_pd_next_;

  std::vector<PeScratch> workers_;
  std::vector<WideSlot> wide_slots_;
  /// The interleaved (frame slot, best-first rank) work units.
  std::vector<std::pair<usize, usize>> wide_units_;
  std::vector<WorkerBest> bests_;  ///< worker-major: [wi * nslots + si]
  std::vector<double> radii_;      ///< per-frame radius published at barriers
};

}  // namespace sd
