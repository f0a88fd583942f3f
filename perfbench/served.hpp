// The served path under closed-loop load: a UDS stack (IngressServer ->
// ShardedServer -> dispatch lanes -> detector) driven by one client thread
// over one connection, and the same frames served in-process through
// DetectionServer::submit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dispatch/dispatcher.hpp"
#include "net/client.hpp"
#include "net/ingress.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Server options a workload runs with: its lane count, pops as wide as its
/// window, everything else at the served defaults.
[[nodiscard]] sd::serve::ServerOptions server_options(const Workload& w);

/// Checks every answer against the pool's reference and counts symbol
/// errors against ground truth. `corrupt_at` (1-based, 0 = never) flips one
/// index of that answered frame before the check, to prove the check fires.
class AnswerCheck {
 public:
  AnswerCheck(const Pool& pool, std::uint64_t corrupt_at)
      : pool_(pool), corrupt_at_(corrupt_at) {}

  /// Counts the frame as failed unless it was answered kCompleted
  /// (`completed`) with the reference indices.
  void check(usize frame, bool completed, const std::vector<index_t>& indices);

  [[nodiscard]] std::uint64_t answered() const noexcept { return answered_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t symbol_errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t symbols() const noexcept { return symbols_; }
  /// Zeroes the symbol-error tally (failures keep counting).
  void reset_ser() noexcept { errors_ = symbols_ = 0; }

 private:
  const Pool& pool_;
  std::uint64_t corrupt_at_;
  std::uint64_t answered_ = 0, failed_ = 0, errors_ = 0, symbols_ = 0;
};

/// Per-frame latency samples in a buffer sized and touched before the first
/// resident-memory sample, so recording allocates nothing.
class LatencyLog {
 public:
  explicit LatencyLog(usize capacity) : ns_(capacity, 0) {}
  [[nodiscard]] bool full() const noexcept { return n_ == ns_.size(); }
  void add(std::int64_t ns) noexcept {
    if (!full())
      ns_[n_++] = static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
  }
  /// Quantile of the recorded samples, in microseconds.
  [[nodiscard]] double quantile_us(double q) const;

 private:
  std::vector<std::uint32_t> ns_;
  usize n_ = 0;
};

/// Outcome of one closed-loop pass.
struct Pass {
  usize sent = 0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;   ///< the driving thread's own CPU time
  double process_cpu_s = 0.0;  ///< whole-process CPU time
};

/// One server stack reachable over a Unix-domain socket, plus the client
/// connection that drives it.
class UdsStack {
 public:
  UdsStack(const Workload& w, const std::string& socket_path);
  ~UdsStack();
  UdsStack(const UdsStack&) = delete;
  UdsStack& operator=(const UdsStack&) = delete;

  /// Sends pool frames from `first` (cycling) closed loop with the
  /// workload's window until `count` frames were sent (count > 0) or
  /// `seconds` passed (count == 0), then waits for every answer.
  Pass drive(const Pool& pool, usize first, usize count, double seconds,
             AnswerCheck& check, LatencyLog* log);

  [[nodiscard]] sd::net::NetStats net_stats() const { return ingress_.stats(); }

 private:
  const Workload& w_;
  sd::net::ShardedServer shards_;
  sd::net::IngressServer ingress_;
  std::unique_ptr<sd::net::NetClient> client_;
  std::uint64_t next_id_ = 0;
};

/// Per-frame record of an in-process pass.
struct InprocFrame {
  double latency_us = 0.0;     ///< submit call -> completion callback
  double queue_wait_us = 0.0;  ///< FrameResult::queue_wait_s
  double service_us = 0.0;     ///< FrameResult::service_s
};

struct InprocResult {
  double server_cpu_s = 0.0;  ///< process minus driving-thread CPU, measured pass
  std::vector<InprocFrame> frames;
  sd::dispatch::DispatchStats before, after;  ///< around the measured pass
  std::uint64_t allocations = 0, alloc_bytes = 0;
};

/// Serves a warm-up pass, then exactly one pass over the pool, in-process
/// through DetectionServer::submit with the workload's window.
[[nodiscard]] InprocResult serve_inprocess(const Workload& w, const Pool& pool,
                                           AnswerCheck& check);

}  // namespace perfbench
