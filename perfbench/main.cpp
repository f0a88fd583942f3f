// Served-path benchmark binary. run.py builds and drives it; it can also be
// run by hand:
//
//   perfbench        --mode e2e    --workload iid_10x10 --seed 1 --seconds 10
//   perfbench_traced --mode layers --workload iid_10x10 --seed 1 --seconds 10
//
// e2e    brings the UDS stack up and warms it several times (set-up time is
//        the median), serves seeded frames closed loop for --seconds, and
//        reports the end-to-end metrics.
// layers times each layer from outside: bare decode, wire codec, wide
//        decode, the in-process server, and the traced UDS stack.
//
// Prints one JSON line {"attempted", "failed", "metrics", "info"}; exits 1
// if any answer differed from the reference decode.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "obs/alloc_count.hpp"
#include "obs/json.hpp"
#include "served.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string mode = "e2e";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string socket;     ///< UDS path (relative paths resolve to the cwd)
  std::string trace_out;  ///< span file of the traced binary
  usize pool = 0;         ///< 0 = the workload's pool size
  usize setup_reps = 7;
  std::uint64_t corrupt_at = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--mode") a.mode = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--socket") a.socket = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--pool") a.pool = std::stoull(v);
    else if (k == "--setup-reps") a.setup_reps = std::stoull(v);
    else if (k == "--corrupt-at") a.corrupt_at = std::stoull(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.socket.empty() || a.setup_reps == 0)
    throw std::invalid_argument("need --workload and --socket");
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Pins the process (every thread it will start) to the highest CPU it may
/// run on, and returns that CPU. On a shared VM, waking a thread on another,
/// idle vCPU costs a hypervisor round trip whose latency follows the load of
/// other tenants; on one CPU every hand-off is a local context switch.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0)
    throw std::runtime_error("sched_setaffinity failed");
  return cpu;
}

void print(const Metrics& metrics, const Metrics& info, std::uint64_t attempted,
           std::uint64_t failed) {
  sd::obs::JsonWriter out;
  out.begin_object()
      .key("attempted").value(attempted)
      .key("failed").value(failed)
      .key("compiler").value(PERFBENCH_COMPILER);
  for (const auto& [key, values] : {std::pair{"metrics", &metrics},
                                    std::pair{"info", &info}}) {
    out.key(key).begin_object();
    for (const auto& [name, value] : *values) {
      if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
      out.key(name).value(value);
    }
    out.end_object();
  }
  std::printf("%s\n", out.end_object().take().c_str());
}

/// Room for every latency sample of a timed phase: no served path answers
/// 200k frames per second on one core.
usize latency_capacity(double seconds) {
  return static_cast<usize>(std::ceil(std::max(seconds, 1.0))) * 200'000;
}

/// Closed-loop UDS service. Set-up is timed `setup_reps` times, from building
/// a stack to the end of its warm-up pass, and the median is reported; the
/// first stack also serves the timed phase.
int run_e2e(const Args& a, const Workload& w) {
  const Pool pool = make_pool(w, a.seed, a.pool > 0 ? a.pool : w.pool_frames);
  AnswerCheck check(pool, a.corrupt_at);
  LatencyLog log(latency_capacity(a.seconds));
  const usize warm = std::min(w.warmup_frames, pool.size());
  Metrics m, info;
  info["host.calib_ms"] = calibration_ms();

  std::vector<double> setup_s;
  const auto bring_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto stack = std::make_unique<UdsStack>(w, a.socket);
    stack->drive(pool, 0, warm, 0.0, check, nullptr);
    setup_s.push_back(seconds_since(t0));
    return stack;
  };

  const double rss0 = rss_bytes();
  {
    const auto stack = bring_up();
    check.reset_ser();
    const HostSample h0 = host_sample();
    const Pass p = stack->drive(pool, warm, 0, a.seconds, check, &log);
    const HostSample h1 = host_sample();
    m["rss_growth_mb"] = 1e-6 * (rss_bytes() - rss0);
    const auto n = static_cast<double>(p.sent);
    m["latency_p50_us"] = log.quantile_us(0.5);
    m["cpu_us_per_frame"] = 1e6 * (p.process_cpu_s - p.client_cpu_s) / n;
    m["ser"] = ratio(static_cast<double>(check.symbol_errors()),
                     static_cast<double>(check.symbols()));
    info["client.latency_p99_us"] = log.quantile_us(0.99);
    info["client.frames_per_s"] = n / p.wall_s;
    info["client.frames"] = n;
    info["host.steal_share"] = steal_share(h0, h1);
    info["host.nivcsw_per_frame"] =
        static_cast<double>(h1.nivcsw - h0.nivcsw) / n;
  }
  while (setup_s.size() < a.setup_reps) bring_up();
  m["setup_s"] = quantile(setup_s, 0.5);
  const auto attempted = static_cast<double>(check.answered());
  m["answered_ratio"] =
      ratio(attempted - static_cast<double>(check.failed()), attempted);
  print(m, info, check.answered(), check.failed());
  return check.failed() == 0 ? 0 : 1;
}

/// Per-layer split, every layer timed from outside around calls into its
/// module. Quantiles come from per-frame samples only.
int run_layers(const Args& a, const Workload& w) {
  if (!sd::obs::alloc_counting_available())
    throw std::runtime_error("layers mode needs the allocation-counting build");
  const Pool pool = make_pool(w, a.seed, a.pool > 0 ? a.pool : w.pool_frames);
  AnswerCheck check(pool, a.corrupt_at);
  LatencyLog log(latency_capacity(a.seconds));
  Spans::instance().reserve(usize{1} << 20);
  const usize warm = std::min(w.warmup_frames, pool.size());
  const auto n = static_cast<double>(pool.size());
  Metrics m;
  m["host.calib_ms"] = calibration_ms();
  usize failed = 0, attempted = 0;

  // decode / linalg: bare single-thread decode.
  const DecodePass dp = decode_pass(w, pool);
  failed += dp.failed;
  attempted += pool.size();
  const double decode_p50 = quantile(dp.frame_us, 0.5);
  m["decode.p50_us"] = decode_p50;
  m["decode.us_per_frame"] = dp.decode_us_total / n;
  m["decode.prep_us_per_channel"] =
      dp.prep_us_total / static_cast<double>(dp.channels);
  m["decode.nodes_per_frame"] = static_cast<double>(dp.nodes) / n;
  m["decode.flops_per_frame"] = static_cast<double>(dp.flops) / n;
  m["decode.bytes_per_frame"] = static_cast<double>(dp.bytes) / n;
  m["decode.gemm_calls_per_frame"] = static_cast<double>(dp.gemm_calls) / n;
  m["decode.ns_per_node"] =
      ratio(1e3 * dp.decode_us_total, static_cast<double>(dp.nodes));
  m["decode.neumann_terms_per_frame"] =
      static_cast<double>(dp.neumann_terms) / n;
  m["decode.neumann_fallback_ratio"] =
      static_cast<double>(dp.neumann_fallbacks) / n;
  m["quant.fallback_ratio"] = static_cast<double>(dp.quant_fallbacks) / n;
  m["quant.saturations_per_frame"] =
      static_cast<double>(dp.quant_saturations) / n;

  // net: wire codec alone.
  m["net.wire_us_per_frame"] = wire_pass(w, pool, failed);
  attempted += pool.size();

  // serve / dispatch: the same frames in-process.
  const InprocResult ip = serve_inprocess(w, pool, check);
  std::vector<double> lat, qwait, service;
  for (const InprocFrame& f : ip.frames) {
    lat.push_back(f.latency_us);
    qwait.push_back(f.queue_wait_us);
    service.push_back(f.service_us);
  }
  const double inproc_p50 = quantile(lat, 0.5);
  m["serve.latency_p50_us"] = inproc_p50;
  m["serve.overhead_us"] = inproc_p50 - decode_p50;
  m["serve.queue_wait_us_p50"] = quantile(qwait, 0.5);
  m["serve.service_us_p50"] = quantile(service, 0.5);
  m["serve.allocs_per_frame"] = static_cast<double>(ip.allocations) / n;
  m["serve.alloc_bytes_per_frame"] = static_cast<double>(ip.alloc_bytes) / n;
  m["serve.cpu_us_per_frame"] = 1e6 * ip.server_cpu_s / n;
  const auto d = [&](std::uint64_t sd::dispatch::DispatchStats::*f) {
    return static_cast<double>(ip.after.*f - ip.before.*f);
  };
  using DS = sd::dispatch::DispatchStats;
  const double runs = d(&DS::fused_runs) + n - d(&DS::fused_frames);
  m["dispatch.fused_width_mean"] = n / runs;
  m["dispatch.former_gathered_per_frame"] = d(&DS::former_gathered) / n;
  m["dispatch.steals_per_frame"] = d(&DS::steals) / n;
  m["dispatch.prep_hits"] = d(&DS::prep_hits);
  m["dispatch.prep_misses"] = d(&DS::prep_misses);
  m["dispatch.prep_hit_ratio"] =
      ratio(d(&DS::prep_hits), d(&DS::prep_hits) + d(&DS::prep_misses));
  m["dispatch.degraded_ratio"] =
      (d(&DS::degraded_kbest) + d(&DS::degraded_mmse) +
       d(&DS::degraded_linear)) / n;

  // decode: the fused wide path at the width the server formed.
  const auto width = static_cast<usize>(
      std::max(1.0, std::round(m["dispatch.fused_width_mean"])));
  m["decode.wide_width"] = static_cast<double>(width);
  m["decode.wide_us_per_frame"] = wide_pass(w, pool, width, failed);
  attempted += pool.size();

  // net: the traced UDS stack, same frames and options.
  {
    UdsStack stack(w, a.socket);
    stack.drive(pool, 0, warm, 0.0, check, nullptr);
    const HostSample h0 = host_sample();
    const Pass p = stack.drive(pool, warm, 0, a.seconds, check, &log);
    const HostSample h1 = host_sample();
    const auto frames = static_cast<double>(p.sent);
    const double uds_p50 = log.quantile_us(0.5);
    m["client.latency_p50_us"] = uds_p50;
    m["client.latency_p99_us"] = log.quantile_us(0.99);
    m["client.frames_per_s"] = frames / p.wall_s;
    m["client.cpu_us_per_frame"] =
        1e6 * (p.process_cpu_s - p.client_cpu_s) / frames;
    m["net.transport_us"] = uds_p50 - inproc_p50;
    const sd::net::NetStats ns = stack.net_stats();
    m["net.bytes_per_frame"] =
        ratio(static_cast<double>(ns.bytes_rx + ns.bytes_tx),
              static_cast<double>(ns.frames_rx));
    m["net.channel_inline_ratio"] =
        ratio(static_cast<double>(ns.channel_cache_misses),
              static_cast<double>(ns.channel_cache_hits +
                                  ns.channel_cache_misses));
    m["host.steal_share"] = steal_share(h0, h1);
    m["host.nivcsw_per_frame"] =
        static_cast<double>(h1.nivcsw - h0.nivcsw) / frames;
  }
  attempted += check.answered();
  failed += check.failed();

  Spans& spans = Spans::instance();
  m["trace.spans"] = static_cast<double>(spans.size());
  m["trace.spans_dropped"] = static_cast<double>(spans.dropped());
  m["net.send_us"] = spans.summary("net.send").mean_us;
  m["client.frame_self_us"] = spans.summary("frame").mean_self_us;
  if (!a.trace_out.empty() && !spans.write(a.trace_out))
    throw std::runtime_error("cannot write " + a.trace_out);
  print(m, {}, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse(argc, argv);
    const perfbench::Workload& w = perfbench::find_workload(a.workload);
    perfbench::pin_to_one_cpu();
    return a.mode == "layers" ? perfbench::run_layers(a, w)
                              : perfbench::run_e2e(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
