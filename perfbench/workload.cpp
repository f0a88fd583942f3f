// Workload table, seeded frame pools with reference answers, and the small
// measurement utilities every phase shares.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "core/spec_parse.hpp"
#include "mimo/scenario.hpp"

namespace perfbench {

namespace {

// Pool sizes are chosen so a run's symbol-error count is large enough for
// `ser` to repeat across seeds, and warm-up passes take tens of
// milliseconds of program work.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"coherent_8x8", {8, 8, sd::Modulation::kQam4}, 12.0, 16, "sphere", 1, 1,
       65536, 1024},
      {"iid_10x10", {10, 10, sd::Modulation::kQam4}, 8.0, 1, "sphere", 1, 1,
       8192, 256},
      {"wide_int16", {10, 10, sd::Modulation::kQam4}, 10.0, 16,
       "bfs:precision=int16", 2, 8, 16384, 1024},
      {"massive_128x8", {8, 128, sd::Modulation::kQam16}, 0.0, 32,
       "mmse-neumann:k=3", 1, 1, 16384, 1024},
  };
  return table;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Pool make_pool(const Workload& w, std::uint64_t seed, usize frames) {
  sd::ScenarioConfig sc;
  sc.num_tx = w.system.num_tx;
  sc.num_rx = w.system.num_rx;
  sc.modulation = w.system.modulation;
  sc.snr_db = w.snr_db;
  sc.seed = seed;
  sc.coherence_block = w.coherence;
  sd::Scenario scenario(sc);

  const usize blocks = std::max<usize>(1, (frames + w.coherence - 1) /
                                              w.coherence);
  const usize n = blocks * w.coherence;
  Pool pool;
  pool.sigma2 = scenario.sigma2();
  pool.channels.reserve(blocks);
  pool.y.reserve(n);
  pool.truth.reserve(n);
  pool.ref.resize(n);
  for (usize i = 0; i < n; ++i) {
    sd::Trial t = scenario.next();
    if (i % w.coherence == 0) pool.channels.emplace_back(std::move(t.h));
    pool.y.push_back(std::move(t.y));
    pool.truth.push_back(std::move(t.tx.indices));
  }

  const auto det = sd::make_detector(w.system, sd::parse_decoder_spec(w.detector));
  sd::DecodeResult out;
  for (usize i = 0; i < n; ++i) {
    det->decode_into(pool.channels[i / w.coherence].matrix(), pool.y[i],
                     pool.sigma2, out);
    pool.ref[i] = out.indices;
  }
  return pool;
}

usize symbol_errors(const std::vector<index_t>& indices,
                    const std::vector<index_t>& truth) {
  usize errors = 0;
  for (usize k = 0; k < truth.size(); ++k)
    errors += (k >= indices.size() || indices[k] != truth[k]) ? 1 : 0;
  return errors;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double rss_bytes() {
  std::ifstream in("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  in >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

HostSample host_sample() {
  HostSample s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    s.total += v;
    if (field == 7) s.steal = v;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.nivcsw = ru.ru_nivcsw;
  return s;
}

double steal_share(const HostSample& a, const HostSample& b) {
  const std::uint64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double calibration_ms() {
  const Clock::time_point t0 = Clock::now();
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  const double ms = 1e3 * seconds_since(t0);
  // Using the result keeps the compiler from dropping the loop.
  if (!std::isfinite(x)) throw std::runtime_error("calibration loop overflowed");
  return ms;
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

void Spans::record(const Span& span) noexcept {
  if (spans_.size() < spans_.capacity()) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

Spans::Summary Spans::summary(const std::string& name) const {
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const Span& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  Summary out;
  double total = 0.0, self = 0.0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    total += dur;
    self += dur - (it == child_ns.end() ? 0.0 : static_cast<double>(it->second));
    ++out.count;
  }
  if (out.count > 0) {
    out.mean_us = 1e-3 * total / static_cast<double>(out.count);
    out.mean_self_us = 1e-3 * self / static_cast<double>(out.count);
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                  "\"frame\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, 1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.id,
                  s.parent, static_cast<unsigned long long>(s.frame));
    out << buf;
  }
  out << "],\"dropped\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
