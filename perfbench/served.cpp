#include "served.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "core/spec_parse.hpp"
#include "obs/alloc_count.hpp"

namespace perfbench {

namespace {

/// In-flight slots, indexed by frame id. Closed loop keeps at most `window`
/// frames outstanding, so a slot is always free again long before reuse.
constexpr usize kSlots = 4096;

struct Slot {
  usize frame = 0;
  std::int64_t sent_ns = 0;
  std::uint32_t span = 0;
  bool busy = false;
};

}  // namespace

sd::serve::ServerOptions server_options(const Workload& w) {
  sd::serve::ServerOptions o;
  o.num_workers = w.lanes;
  o.batch_size = w.window;
  return o;
}

void AnswerCheck::check(usize frame, bool completed,
                        const std::vector<index_t>& indices) {
  ++answered_;
  const std::vector<index_t>* seen = &indices;
  std::vector<index_t> corrupted;
  if (answered_ == corrupt_at_ && !indices.empty()) {
    corrupted = indices;
    corrupted[0] ^= 1;
    seen = &corrupted;
  }
  errors_ += perfbench::symbol_errors(*seen, pool_.truth[frame]);
  symbols_ += pool_.truth[frame].size();
  if (!completed || *seen != pool_.ref[frame]) ++failed_;
}

double LatencyLog::quantile_us(double q) const {
  std::vector<double> us(n_);
  for (usize i = 0; i < n_; ++i) us[i] = 1e-3 * static_cast<double>(ns_[i]);
  return quantile(std::move(us), q);
}

namespace {

sd::net::ShardedServerOptions sharded_options(const Workload& w) {
  sd::net::ShardedServerOptions o;
  o.num_shards = 1;
  o.server = server_options(w);
  return o;
}

sd::net::IngressOptions ingress_options(const std::string& socket_path) {
  sd::net::IngressOptions o;
  o.uds_path = socket_path;
  return o;
}

}  // namespace

UdsStack::UdsStack(const Workload& w, const std::string& socket_path)
    : w_(w),
      shards_(w.system, sd::parse_decoder_spec(w.detector), sharded_options(w)),
      ingress_(shards_, ingress_options(socket_path)) {
  ingress_.start();
  client_.reset(new sd::net::NetClient(
      sd::net::NetClient::connect_uds(socket_path)));
}

UdsStack::~UdsStack() {
  client_.reset();
  ingress_.stop();
  shards_.drain();
}

Pass UdsStack::drive(const Pool& pool, usize first, usize count,
                     double seconds, AnswerCheck& check, LatencyLog* log) {
  std::vector<Slot> slots(kSlots);
  sd::net::WireFrame wf;
  wf.sigma2 = pool.sigma2;
  sd::net::WireResponse resp;
  Spans& spans = Spans::instance();

  Pass pass;
  usize next = first % pool.size();
  usize outstanding = 0;
  const auto send_one = [&] {
    const usize i = next;
    next = (next + 1) % pool.size();
    const sd::ChannelHandle& ch = pool.channels[i / w_.coherence];
    wf.frame_id = next_id_++;
    wf.channel_fp = ch.fingerprint();
    // The first frame of a coherence block carries H; the rest reference it
    // by fingerprint from the connection's channel cache.
    wf.has_channel = i % w_.coherence == 0;
    if (wf.has_channel) wf.h = ch.matrix();
    wf.y = pool.y[i];
    Slot& s = slots[wf.frame_id % kSlots];
    if (s.busy) throw std::runtime_error("in-flight slot reused");
    s.busy = true;
    s.frame = i;
    s.span = spans.open();
    s.sent_ns = spans.now_ns();
    {
      SpanScope span("net.send", i, s.span);
      if (!client_->send(wf)) throw std::runtime_error("server closed");
    }
    ++outstanding;
    ++pass.sent;
  };

  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s(), tcpu0 = thread_cpu_s();
  const auto more = [&] {
    if (count > 0) return pass.sent < count;
    return seconds_since(t0) < seconds && !(log != nullptr && log->full());
  };
  while (outstanding < w_.window && more()) send_one();
  while (outstanding > 0) {
    const std::int64_t recv_ns = spans.now_ns();
    if (!client_->recv(resp)) throw std::runtime_error("server closed");
    const std::int64_t done = spans.now_ns();
    Slot& s = slots[resp.frame_id % kSlots];
    if (!s.busy) throw std::runtime_error("response for an unknown frame");
    s.busy = false;
    --outstanding;
    if (log != nullptr) log->add(done - s.sent_ns);
    if constexpr (Spans::enabled()) {
      spans.record({"net.recv", spans.open(), s.span, s.frame, recv_ns, done});
      spans.record({"frame", s.span, 0, s.frame, s.sent_ns, done});
    }
    check.check(s.frame,
                resp.status == sd::net::WireFrameStatus::kCompleted,
                resp.indices);
    if (more()) send_one();
  }
  pass.wall_s = seconds_since(t0);
  pass.process_cpu_s = process_cpu_s() - cpu0;
  pass.client_cpu_s = thread_cpu_s() - tcpu0;
  return pass;
}

InprocResult serve_inprocess(const Workload& w, const Pool& pool,
                             AnswerCheck& check) {
  struct Done {
    std::uint64_t id = 0;
    std::int64_t done_ns = 0;
    double queue_wait_s = 0.0, service_s = 0.0;
  };
  InprocResult res;
  std::vector<Slot> slots(kSlots);
  std::mutex mu;
  std::condition_variable cv;
  // Completions not yet consumed by the driving thread: a ring sized like
  // the slots, so the callback never allocates.
  std::vector<Done> done(kSlots);  // guarded by mu
  usize done_head = 0, done_tail = 0;  // guarded by mu

  // Runs on lane threads: record and check under the lock, nothing else.
  const auto on_complete = [&](const sd::serve::FrameResult& r) {
    const std::int64_t t = Spans::instance().now_ns();
    std::lock_guard<std::mutex> lock(mu);
    check.check(slots[r.id % kSlots].frame,
                r.status == sd::serve::FrameStatus::kCompleted,
                r.result.indices);
    done[done_tail++ % kSlots] = {r.id, t, r.queue_wait_s, r.service_s};
    cv.notify_one();
  };
  sd::serve::DetectionServer server(w.system,
                                    sd::parse_decoder_spec(w.detector),
                                    server_options(w), on_complete);
  Spans& spans = Spans::instance();

  // One closed-loop pass of `count` frames starting at pool frame `first`.
  std::uint64_t next_id = 0;
  const auto pass = [&](usize first, usize count, bool record) {
    usize sent = 0, outstanding = 0;
    const auto submit_one = [&] {
      const usize i = (first + sent) % pool.size();
      const std::uint64_t id = next_id++;
      Slot& s = slots[id % kSlots];
      if (s.busy) throw std::runtime_error("in-flight slot reused");
      sd::serve::FrameRequest f;
      f.id = id;
      f.channel = pool.channels[i / w.coherence];
      f.y = pool.y[i];
      f.sigma2 = pool.sigma2;
      {
        std::lock_guard<std::mutex> lock(mu);
        s.busy = true;
        s.frame = i;
        s.span = spans.open();
        s.sent_ns = spans.now_ns();
      }
      {
        SpanScope span("serve.submit", i, s.span);
        if (server.submit(std::move(f)) != sd::serve::SubmitStatus::kAccepted)
          throw std::runtime_error("in-process submit refused");
      }
      ++sent;
      ++outstanding;
    };
    while (outstanding < w.window && sent < count) submit_one();
    while (outstanding > 0) {
      Done d;
      Slot s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done_head != done_tail; });
        d = done[done_head++ % kSlots];
        s = slots[d.id % kSlots];
        slots[d.id % kSlots].busy = false;
      }
      --outstanding;
      if (record) {
        res.frames.push_back({1e-3 * static_cast<double>(d.done_ns - s.sent_ns),
                              1e6 * d.queue_wait_s, 1e6 * d.service_s});
      }
      if constexpr (Spans::enabled())
        spans.record({"serve.frame", s.span, 0, s.frame, s.sent_ns, d.done_ns});
      if (sent < count) submit_one();
    }
  };

  pass(0, w.warmup_frames, false);
  res.frames.reserve(pool.size());
  {
    SpanScope span("dispatch.stats", 0);
    res.before = server.dispatcher().stats();
  }
  const sd::obs::AllocCounts a0 = sd::obs::alloc_counts();
  const double cpu0 = process_cpu_s(), tcpu0 = thread_cpu_s();
  pass(w.warmup_frames, pool.size(), true);
  res.server_cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - tcpu0);
  const sd::obs::AllocCounts a1 = sd::obs::alloc_counts();
  {
    SpanScope span("dispatch.stats", 0);
    res.after = server.dispatcher().stats();
  }
  res.allocations = a1.allocations - a0.allocations;
  res.alloc_bytes = a1.bytes - a0.bytes;
  server.drain();
  return res;
}

}  // namespace perfbench
