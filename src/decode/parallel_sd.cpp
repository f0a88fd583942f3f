#include "decode/parallel_sd.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace sd {

ParallelSdDetector::ParallelSdDetector(const Constellation& constellation,
                                       ParallelSdOptions options)
    : c_(&constellation), opts_(options) {
  SD_CHECK(opts_.split_depth >= 1, "split depth must be at least 1");
  // A finite initial radius could leave every sub-tree empty, and the
  // retry-with-larger-radius dance is not worth the synchronization cost
  // here; the first dealt sub-tree (best prefix) pins the radius fast.
  opts_.base.radius_policy = RadiusPolicy::kInfinite;
}

void ParallelSdDetector::decode_into(const CMat& h, std::span<const cplx> y,
                                     double sigma2, DecodeResult& out) {
  SD_TRACE_SPAN("decode");
  WideSlot& slot = open_slot(0, sigma2, out);
  preprocess_into(h, y, opts_.base.sorted_qr, prep_scratch_, slot.pre);
  search_slots(1);
}

void ParallelSdDetector::decode_with(const PreprocessedChannel& prep,
                                     std::span<const cplx> y, double sigma2,
                                     DecodeResult& out) {
  if (prep.kind != prep_kind()) {
    Detector::decode_with(prep, y, sigma2, out);
    return;
  }
  SD_TRACE_SPAN("decode");
  WideSlot& slot = open_slot(0, sigma2, out);
  preprocess_with_channel(prep, y, prep_scratch_, slot.pre);
  search_slots(1);
}

void ParallelSdDetector::decode_wide(std::span<WideItem> items) {
  SD_TRACE_SPAN("decode.wide");
  // Items whose prep kind doesn't match ours can't join the fused partition;
  // they take the one-shot fallback decode_with applies. They run first, as
  // that fallback goes through the engine's slot 0 itself.
  for (WideItem& it : items) {
    if (it.prep != nullptr && it.out != nullptr &&
        it.prep->kind != prep_kind()) {
      Detector::decode_with(*it.prep, it.y, it.sigma2, *it.out);
    }
  }
  usize nslots = 0;
  for (WideItem& it : items) {
    if (it.prep == nullptr || it.out == nullptr ||
        it.prep->kind != prep_kind()) {
      continue;
    }
    WideSlot& slot = open_slot(nslots++, it.sigma2, *it.out);
    preprocess_with_channel(*it.prep, it.y, prep_scratch_, slot.pre);
  }
  if (nslots > 0) search_slots(nslots);
}

ParallelSdDetector::WideSlot& ParallelSdDetector::open_slot(
    usize si, double sigma2, DecodeResult& out) {
  if (wide_slots_.size() <= si) wide_slots_.resize(si + 1);
  WideSlot& slot = wide_slots_[si];
  slot.sigma2 = sigma2;
  slot.out = &out;
  out.reset();
  return slot;
}

void ParallelSdDetector::search_slots(usize nslots) {
  SD_TRACE_SPAN("decode.search");
  Timer timer;

  // --- Per-frame sub-tree partition (sequential: the ping-pong buffers are
  // shared).
  usize max_count = 0;
  for (usize si = 0; si < nslots; ++si) {
    WideSlot& slot = wide_slots_[si];
    DecodeStats& stats = slot.out->stats;
    stats.preprocess_seconds = slot.pre.seconds;
    const index_t m = slot.pre.r.rows();
    stats.tree_levels = static_cast<std::uint64_t>(m);
    slot.split = std::min(opts_.split_depth, m - 1);
    slot.count = partition_prefixes(slot.pre, slot.split, slot.prefix_flat,
                                    slot.prefix_pd, slot.order, stats);
    max_count = std::max(max_count, slot.count);
  }

  // --- Deterministic work-unit list: round-robin across frames in each
  // frame's best-first rank order, so every frame's most promising sub-trees
  // run first (front-loading radius shrinkage for ALL frames) and the list
  // itself is a pure function of the inputs.
  wide_units_.clear();
  for (usize rank = 0; rank < max_count; ++rank) {
    for (usize si = 0; si < nslots; ++si) {
      if (rank < wide_slots_[si].count) wide_units_.emplace_back(si, rank);
    }
  }
  const usize units = wide_units_.size();

  // Workers past the unit count would get no unit under j mod W, so capping
  // W there changes nothing but the number of threads spawned.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned requested =
      opts_.num_threads > 0 ? opts_.num_threads : std::max(1u, hw);
  const auto num_workers =
      static_cast<unsigned>(std::min<usize>(requested, units));
  const usize w = num_workers;
  if (workers_.size() < w) workers_.resize(w);
  bests_.resize(w * nslots);
  for (WorkerBest& b : bests_) {
    b.pd = std::numeric_limits<double>::infinity();
    b.stats = DecodeStats{};
  }
  radii_.resize(nslots);
  for (usize si = 0; si < nslots; ++si) {
    radii_[si] = initial_radius_sq(opts_.base, wide_slots_[si].sigma2,
                                   wide_slots_[si].pre.r.rows());
  }

  // --- Rounds: round r hands unit r*W + wi to worker wi (the static
  // j mod W assignment). Radii move only in the barrier's completion step,
  // which runs while every worker is parked: each frame's radius becomes the
  // minimum of the worker bests, folded in worker order. Inside a round a
  // worker prunes against that published radius and its own best, so what
  // it expands never depends on how the other workers are scheduled.
  auto publish = [this, nslots, w]() noexcept {
    for (usize si = 0; si < nslots; ++si) {
      for (usize wi = 0; wi < w; ++wi) {
        radii_[si] = std::min(radii_[si], bests_[wi * nslots + si].pd);
      }
    }
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(w), publish);
  const usize rounds = (units + w - 1) / w;
  auto worker = [&](unsigned wi) {
    SD_TRACE_SPAN("psd.worker");
    for (usize r = 0; r < rounds; ++r) {
      const usize j = r * w + wi;
      if (j < units) search_unit(wi, j, nslots);
      sync.arrive_and_wait();
    }
  };
  // The calling thread is worker 0; a one-worker decode spawns nothing.
  std::vector<std::thread> pool;
  pool.reserve(w - 1);
  for (unsigned t = 1; t < num_workers; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& t : pool) t.join();

  // --- Deterministic reduction: per frame, fold worker-local bests in
  // worker order 0..W-1 with a strict '<'. Every worker's candidate set is
  // fixed by the static unit assignment, so the winner — and thus indices
  // and metric — is bit-identical to sequential decode_with for any W.
  const double wall = timer.elapsed_seconds();
  for (usize si = 0; si < nslots; ++si) {
    WideSlot& slot = wide_slots_[si];
    DecodeResult& out = *slot.out;
    double best_pd = std::numeric_limits<double>::infinity();
    const std::vector<index_t>* best_path = nullptr;
    for (usize wi = 0; wi < w; ++wi) {
      const WorkerBest& b = bests_[wi * nslots + si];
      out.stats.nodes_expanded += b.stats.nodes_expanded;
      out.stats.nodes_generated += b.stats.nodes_generated;
      out.stats.nodes_pruned += b.stats.nodes_pruned;
      out.stats.leaves_reached += b.stats.leaves_reached;
      out.stats.radius_updates += b.stats.radius_updates;
      if (b.pd < best_pd) {
        best_pd = b.pd;
        best_path = &b.path;
      }
    }
    SD_ASSERT(best_path != nullptr);  // infinite radius guarantees a leaf

    const index_t m = slot.pre.r.rows();
    layered_.resize(static_cast<usize>(m));
    for (index_t d = 0; d < m; ++d) {
      layered_[static_cast<usize>(m - 1 - d)] =
          (*best_path)[static_cast<usize>(d)];
    }
    to_antenna_order_into(slot.pre, layered_, out.indices);
    out.metric = best_pd;
    // Frames finish together at the join, so each is charged the fused wall
    // time; the dispatch layer amortizes the shared service across the run.
    out.stats.search_seconds = wall;
    materialize_symbols(*c_, out);
    slot.out = nullptr;
  }
}

void ParallelSdDetector::search_unit(unsigned wi, usize unit, usize nslots) {
  const auto [si, rank] = wide_units_[unit];
  const WideSlot& slot = wide_slots_[si];
  WorkerBest& best = bests_[static_cast<usize>(wi) * nslots + si];
  DecodeStats& local = best.stats;
  PeScratch& pe = workers_[wi];
  const Preprocessed& pre = slot.pre;
  const index_t m = pre.r.rows();
  const index_t p = c_->order();
  const index_t split = slot.split;
  const usize stride = static_cast<usize>(split);
  // The radius published at the last barrier, tightened by this worker's
  // own leaves for the frame since.
  double radius_sq = std::min(radii_[si], best.pd);

  std::vector<index_t>& path = pe.path;
  path.assign(static_cast<usize>(m), 0);
  if (pe.levels.size() < static_cast<usize>(m)) {
    pe.levels.resize(static_cast<usize>(m));
  }

  auto enter_depth = [&](index_t d, real parent_pd) {
    const index_t a = m - 1 - d;
    ++local.nodes_expanded;
    local.nodes_generated += static_cast<std::uint64_t>(p);
    cplx interference{0, 0};
    for (index_t t = 1; t <= d; ++t) {
      interference +=
          pre.r(a, a + t) * c_->point(path[static_cast<usize>(d - t)]);
    }
    const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
    PeScratch::Level& lvl = pe.levels[static_cast<usize>(d)];
    lvl.ordered.clear();
    lvl.next = 0;
    for (index_t sym = 0; sym < p; ++sym) {
      lvl.ordered.push_back(ScratchChild{
          sym, parent_pd + norm2(b - pre.r(a, a) * c_->point(sym))});
    }
    std::sort(lvl.ordered.begin(), lvl.ordered.end(),
              [](const ScratchChild& x, const ScratchChild& y2) {
                return x.pd < y2.pd;
              });
  };

  const usize subtree = slot.order[rank];
  const real subtree_pd = slot.prefix_pd[subtree];
  if (static_cast<double>(subtree_pd) >= radius_sq) {
    ++local.nodes_pruned;
    return;
  }
  const index_t* prefix = slot.prefix_flat.data() + subtree * stride;
  std::copy(prefix, prefix + stride, path.begin());

  index_t depth = split;
  enter_depth(depth, subtree_pd);
  while (depth >= split) {
    PeScratch::Level& lvl = pe.levels[static_cast<usize>(depth)];
    if (lvl.next >= lvl.ordered.size()) {
      --depth;
      continue;
    }
    const ScratchChild child = lvl.ordered[lvl.next++];
    if (static_cast<double>(child.pd) >= radius_sq) {
      local.nodes_pruned +=
          static_cast<std::uint64_t>(lvl.ordered.size() - lvl.next + 1);
      lvl.next = lvl.ordered.size();
      --depth;
      continue;
    }
    path[static_cast<usize>(depth)] = child.symbol;
    if (depth == m - 1) {
      // Every leaf that passes the radius test improves this worker's best;
      // the other workers see it at the next barrier.
      ++local.leaves_reached;
      best.pd = static_cast<double>(child.pd);
      best.path = path;
      radius_sq = best.pd;
      ++local.radius_updates;
      continue;
    }
    ++depth;
    enter_depth(depth, child.pd);
  }
}

usize ParallelSdDetector::partition_prefixes(const Preprocessed& pre,
                                             index_t split,
                                             std::vector<index_t>& flat,
                                             std::vector<real>& pd,
                                             std::vector<usize>& order,
                                             DecodeStats& stats) {
  const index_t m = pre.r.rows();
  const index_t p = c_->order();

  // Partitioning phase (the "offline" step in [4]): enumerate all prefixes
  // down to the split depth with their PDs. Prefixes are stored flat —
  // depth-d prefixes occupy rows of width d in `flat` — so the whole phase
  // recycles detector-owned buffers instead of allocating one vector per
  // sub-tree. The `_next_` members serve as ping-pong scratch; the swap
  // dance always leaves the final generation in the caller's buffers.
  std::vector<index_t>& cur = flat;
  std::vector<index_t>& nxt = prefix_flat_next_;
  std::vector<real>& cur_pd = pd;
  std::vector<real>& nxt_pd = prefix_pd_next_;
  cur.clear();
  cur_pd.assign(1, real{0});  // the root: one empty prefix, PD 0
  usize count = 1;
  for (index_t depth = 0; depth < split; ++depth) {
    const index_t a = m - 1 - depth;
    const usize width = static_cast<usize>(depth);  // current prefix length
    nxt.resize(count * static_cast<usize>(p) * (width + 1));
    nxt_pd.resize(count * static_cast<usize>(p));
    for (usize si = 0; si < count; ++si) {
      const index_t* prefix = cur.data() + si * width;
      cplx interference{0, 0};
      for (index_t t = 1; t <= depth; ++t) {
        interference +=
            pre.r(a, a + t) *
            c_->point(prefix[static_cast<usize>(depth - t)]);
      }
      const cplx b = pre.ybar[static_cast<usize>(a)] - interference;
      for (index_t sym = 0; sym < p; ++sym) {
        const usize ci = si * static_cast<usize>(p) + static_cast<usize>(sym);
        index_t* dst = nxt.data() + ci * (width + 1);
        std::copy(prefix, prefix + width, dst);
        dst[width] = sym;
        nxt_pd[ci] =
            cur_pd[si] + norm2(b - pre.r(a, a) * c_->point(sym));
      }
      stats.nodes_generated += static_cast<std::uint64_t>(p);
      ++stats.nodes_expanded;
    }
    cur.swap(nxt);
    cur_pd.swap(nxt_pd);
    count *= static_cast<usize>(p);
  }
  // Best-first dispatch order: promising sub-trees shrink the radius early.
  order.resize(count);
  std::iota(order.begin(), order.end(), usize{0});
  std::sort(order.begin(), order.end(),
            [&](usize x, usize y2) { return cur_pd[x] < cur_pd[y2]; });
  return count;
}

}  // namespace sd
