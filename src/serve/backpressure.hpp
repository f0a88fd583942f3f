// Backpressure vocabulary of the serving runtime's lane queues.
//
// A lane queue is the admission-control point: when the detector pool falls
// behind the arrival rate, the configured policy decides whether producers
// wait (closed-loop senders), get an immediate rejection (load shedding at
// the edge), or displace the stalest queued frame (fresh data is worth more
// than stale data under a real-time budget). Every push either enters the
// queue, is rejected, or hands the displaced frame back to the caller, so no
// frame is ever lost silently. The queues themselves live in the dispatch
// lanes (src/dispatch/backend.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sd::serve {

/// What push() does when the queue is at capacity.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,       ///< wait for space (closed-loop producers)
  kReject,      ///< fail the push immediately (shed load at the edge)
  kDropOldest,  ///< displace the stalest queued item to admit the new one
};

[[nodiscard]] constexpr std::string_view backpressure_policy_name(
    BackpressurePolicy p) noexcept {
  switch (p) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kReject: return "reject";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

/// Parses "block" / "reject" / "drop-oldest"; throws on anything else.
[[nodiscard]] inline BackpressurePolicy parse_backpressure_policy(
    std::string_view text) {
  if (text == "block") return BackpressurePolicy::kBlock;
  if (text == "reject") return BackpressurePolicy::kReject;
  if (text == "drop-oldest") return BackpressurePolicy::kDropOldest;
  throw invalid_argument_error("unknown backpressure policy '" +
                               std::string(text) +
                               "' (block, reject, drop-oldest)");
}

/// Outcome of a push under the queue's policy.
enum class PushStatus : std::uint8_t {
  kAccepted,         ///< item enqueued (possibly after blocking)
  kRejected,         ///< kReject policy and the queue was full
  kDisplacedOldest,  ///< item enqueued; the oldest item was handed back
  kClosed,           ///< queue already closed; item not enqueued
};

}  // namespace sd::serve
