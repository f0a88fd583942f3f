#include "decode/kbest.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace sd {

namespace {

struct PathNode {
  std::vector<index_t> path;  ///< symbols for depths 0..depth
  real pd = 0;
};

}  // namespace

KBestDetector::KBestDetector(const Constellation& constellation,
                             KBestOptions options)
    : c_(&constellation), opts_(options) {
  SD_CHECK(opts_.k >= 1, "K must be at least 1");
}

void KBestDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                double /*sigma2*/, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  out.reset();
  const Preprocessed pre = sd::preprocess(h, y, opts_.sorted_qr);
  out.stats.preprocess_seconds = pre.seconds;
  search(pre, out);
}

void KBestDetector::decode_with(const PreprocessedChannel& prep,
                                std::span<const cplx> y, double sigma2,
                                DecodeResult& out) {
  if (prep.kind != prep_kind()) {
    Detector::decode_with(prep, y, sigma2, out);
    return;
  }
  SD_TRACE_SPAN("decode");
  out.reset();
  preprocess_with_channel(prep, y, prep_scratch_, pre_);
  out.stats.preprocess_seconds = pre_.seconds;
  search(pre_, out);
}

void KBestDetector::search(const Preprocessed& pre,
                           DecodeResult& result) const {
  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  result.stats.tree_levels = static_cast<std::uint64_t>(m);

  Timer timer;

  std::vector<PathNode> frontier{PathNode{{}, real{0}}};
  std::vector<PathNode> children;

  for (index_t depth = 0; depth < m; ++depth) {
    const index_t a = m - 1 - depth;
    children.clear();
    children.reserve(frontier.size() * static_cast<usize>(p));
    for (const PathNode& node : frontier) {
      ++result.stats.nodes_expanded;
      result.stats.nodes_generated += static_cast<std::uint64_t>(p);
      cplx interference{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        interference +=
            pre.r(a, a + t) * c_->point(node.path[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      const cplx raa = pre.r(a, a);
      for (index_t sym = 0; sym < p; ++sym) {
        PathNode child;
        child.path = node.path;
        child.path.push_back(sym);
        child.pd = node.pd + norm2(b - raa * c_->point(sym));
        children.push_back(std::move(child));
      }
    }
    if (children.size() > opts_.k) {
      std::nth_element(children.begin(),
                       children.begin() + static_cast<std::ptrdiff_t>(opts_.k),
                       children.end(), [](const PathNode& x, const PathNode& y2) {
                         return x.pd < y2.pd;
                       });
      result.stats.nodes_pruned += children.size() - opts_.k;
      children.resize(opts_.k);
    }
    result.stats.sort_ops += children.size();
    frontier.swap(children);
    result.stats.peak_list_size =
        std::max<std::uint64_t>(result.stats.peak_list_size, frontier.size());
  }

  const auto best_it = std::min_element(
      frontier.begin(), frontier.end(),
      [](const PathNode& x, const PathNode& y2) { return x.pd < y2.pd; });
  result.stats.leaves_reached = frontier.size();

  std::vector<index_t> layered(static_cast<usize>(m));
  for (index_t d = 0; d < m; ++d) {
    layered[static_cast<usize>(m - 1 - d)] = best_it->path[static_cast<usize>(d)];
  }
  result.indices = to_antenna_order(pre, layered);
  result.metric = static_cast<double>(best_it->pd);
  result.stats.search_seconds = timer.elapsed_seconds();
  materialize_symbols(*c_, result);
}

}  // namespace sd
