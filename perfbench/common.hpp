// Shared vocabulary of the served-path benchmark: workloads, the seeded
// frame pool with its reference answers, per-frame sample statistics, and
// the span recorder of the traced binary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sphere_decoder.hpp"
#include "decode/channel_prep.hpp"
#include "decode/detector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using sd::index_t;
using sd::usize;

/// One traffic mix. Every workload runs closed loop: one client keeps
/// `window` frames in flight on one connection.
struct Workload {
  std::string name;
  sd::SystemConfig system;  ///< num_rx may exceed num_tx (massive MIMO)
  double snr_db = 0.0;
  usize coherence = 1;      ///< frames per channel realization
  std::string detector;     ///< detector spec, as the server parses it
  unsigned lanes = 1;
  usize window = 1;
  usize pool_frames = 0;    ///< distinct seeded frames, cycled when sending
  usize warmup_frames = 0;  ///< frames of the warm-up pass in set-up
};

/// Looks a workload up by name; throws std::invalid_argument if unknown.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Seeded frames plus, for every frame, the bare decode of a detector built
/// from the workload's spec in this process: the answer the served path must
/// reproduce bit for bit.
struct Pool {
  double sigma2 = 0.0;
  std::vector<sd::ChannelHandle> channels;  ///< one per coherence block
  std::vector<sd::CVec> y;
  std::vector<std::vector<index_t>> truth;  ///< transmitted symbol indices
  std::vector<std::vector<index_t>> ref;    ///< reference detected indices

  [[nodiscard]] usize size() const noexcept { return y.size(); }
};

/// Generates `frames` seeded frames (frames rounded up to whole coherence
/// blocks) and their reference answers.
[[nodiscard]] Pool make_pool(const Workload& w, std::uint64_t seed,
                             usize frames);

/// Symbol errors of `indices` against the frame's ground truth.
[[nodiscard]] usize symbol_errors(const std::vector<index_t>& indices,
                                  const std::vector<index_t>& truth);

/// Quantile of unsorted samples, linear interpolation between order
/// statistics (q in [0, 1]). Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Named metric values of one run, printed as a JSON object.
using Metrics = std::map<std::string, double>;

/// Process resident set in bytes (/proc/self/statm).
[[nodiscard]] double rss_bytes();
/// CPU seconds of the whole process / of the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-phase diagnostics: never used to rescale a metric, only recorded so a
/// run from a slow phase of a shared host can be recognised.
struct HostSample {
  std::uint64_t steal = 0, total = 0;  ///< /proc/stat jiffies, all CPUs
  long nivcsw = 0;                     ///< involuntary context switches
};
[[nodiscard]] HostSample host_sample();
/// Steal jiffies over total jiffies between two samples.
[[nodiscard]] double steal_share(const HostSample& a, const HostSample& b);
/// Wall milliseconds of a fixed single-thread arithmetic loop.
[[nodiscard]] double calibration_ms();

/// In-memory span log of the traced binary. Spans are recorded from the
/// benchmark's own code around calls into the program's modules, kept in a
/// buffer reserved up front, and written once at exit. Spans of one frame
/// share its pool index; a child names the span that caused it. Only the
/// driving thread records. In the untraced binary every call is a no-op.
class Spans {
 public:
  struct Span {
    const char* name = nullptr;  ///< static string
    std::uint32_t id = 0;
    std::uint32_t parent = 0;    ///< 0 = root
    std::uint64_t frame = 0;     ///< pool frame the span served
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  static Spans& instance();
  [[nodiscard]] static constexpr bool enabled() noexcept {
#if PERFBENCH_TRACED
    return true;
#else
    return false;
#endif
  }

  void reserve(usize n) { spans_.reserve(n); }
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  /// Id for a span about to start (0 when tracing is compiled out).
  [[nodiscard]] std::uint32_t open() noexcept {
    return enabled() ? ++last_id_ : 0;
  }
  /// Stores a finished span; counts it as dropped once the reserved buffer
  /// is full, so recording never reallocates.
  void record(const Span& span) noexcept;
  [[nodiscard]] usize size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Count, mean duration and mean self time (duration minus the time its
  /// child spans cover) of every span named `name`, in microseconds.
  struct Summary {
    usize count = 0;
    double mean_us = 0.0;
    double mean_self_us = 0.0;
  };
  [[nodiscard]] Summary summary(const std::string& name) const;
  /// Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Spans() : epoch_(Clock::now()) {}
  std::vector<Span> spans_;
  std::uint32_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point epoch_;
};

/// RAII span over one call; reads no clock in the untraced binary.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t frame, std::uint32_t parent = 0)
      : name_(name), frame_(frame), parent_(parent) {
    if constexpr (Spans::enabled()) {
      Spans& s = Spans::instance();
      id_ = s.open();
      start_ = s.now_ns();
    }
  }
  ~SpanScope() {
    if constexpr (Spans::enabled()) {
      Spans& s = Spans::instance();
      s.record({name_, id_, parent_, frame_, start_, s.now_ns()});
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t frame_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace perfbench
