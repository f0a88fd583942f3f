#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "core/spec_parse.hpp"
#include "net/wire.hpp"

namespace perfbench {

namespace {

std::unique_ptr<sd::Detector> make(const Workload& w) {
  return sd::make_detector(w.system, sd::parse_decoder_spec(w.detector));
}

double us_between(std::int64_t a, std::int64_t b) {
  return 1e-3 * static_cast<double>(b - a);
}

}  // namespace

DecodePass decode_pass(const Workload& w, const Pool& pool) {
  const auto det = make(w);
  Spans& spans = Spans::instance();
  DecodePass out;
  out.frame_us.reserve(pool.size());
  std::shared_ptr<const sd::PreprocessedChannel> prep;
  sd::DecodeResult r;
  for (usize i = 0; i < pool.size(); ++i) {
    double prep_us = 0.0;
    if (i % w.coherence == 0) {
      SpanScope span("decode.build_prep", i);
      const std::int64_t t0 = spans.now_ns();
      prep = sd::build_channel_prep(pool.channels[i / w.coherence],
                                    det->prep_kind());
      prep_us = us_between(t0, spans.now_ns());
      out.prep_us_total += prep_us;
      ++out.channels;
    }
    double us = 0.0;
    {
      SpanScope span("decode.decode_with", i);
      const std::int64_t t0 = spans.now_ns();
      det->decode_with(*prep, pool.y[i], pool.sigma2, r);
      us = us_between(t0, spans.now_ns());
    }
    out.decode_us_total += us;
    out.frame_us.push_back(prep_us + us);
    out.nodes += r.stats.nodes_expanded;
    out.flops += r.stats.flops;
    out.bytes += r.stats.bytes_touched;
    out.gemm_calls += r.stats.gemm_calls;
    out.neumann_terms += r.stats.neumann_terms;
    out.neumann_fallbacks += r.stats.neumann_fallbacks;
    out.quant_fallbacks += r.stats.quant_fallbacks;
    out.quant_saturations += r.stats.quant_saturations;
    if (r.indices != pool.ref[i]) ++out.failed;
  }
  return out;
}

double wide_pass(const Workload& w, const Pool& pool, usize width,
                 usize& failed) {
  const auto det = make(w);
  std::vector<std::shared_ptr<const sd::PreprocessedChannel>> preps;
  preps.reserve(pool.channels.size());
  for (const sd::ChannelHandle& ch : pool.channels)
    preps.push_back(sd::build_channel_prep(ch, det->prep_kind()));

  std::vector<sd::DecodeResult> results(width);
  std::vector<sd::Detector::WideItem> items;
  items.reserve(width);
  double total_us = 0.0;
  Spans& spans = Spans::instance();
  for (usize first = 0; first < pool.size(); first += width) {
    const usize n = std::min(width, pool.size() - first);
    items.clear();
    for (usize k = 0; k < n; ++k) {
      const usize i = first + k;
      items.push_back({preps[i / w.coherence].get(), pool.y[i], pool.sigma2,
                       &results[k]});
    }
    {
      SpanScope span("decode.wide", first);
      const std::int64_t t0 = spans.now_ns();
      det->decode_wide(items);
      total_us += us_between(t0, spans.now_ns());
    }
    for (usize k = 0; k < n; ++k)
      if (results[k].indices != pool.ref[first + k]) ++failed;
  }
  return total_us / static_cast<double>(pool.size());
}

double wire_pass(const Workload& w, const Pool& pool, usize& failed) {
  sd::net::WireDecoder decoder;
  sd::net::WireFrame out;
  sd::net::WireResponse unused;
  sd::net::WireFrame wf;
  wf.sigma2 = pool.sigma2;
  std::vector<std::uint8_t> buf;
  double total_us = 0.0;
  Spans& spans = Spans::instance();
  for (usize i = 0; i < pool.size(); ++i) {
    const sd::ChannelHandle& ch = pool.channels[i / w.coherence];
    wf.frame_id = i;
    wf.channel_fp = ch.fingerprint();
    wf.has_channel = i % w.coherence == 0;
    if (wf.has_channel) wf.h = ch.matrix();
    wf.y = pool.y[i];
    buf.clear();
    sd::net::WireDecoder::Next next;
    const std::int64_t t0 = spans.now_ns();
    {
      SpanScope span("net.encode", i);
      sd::net::encode_frame(wf, buf);
    }
    {
      SpanScope span("net.decode", i);
      decoder.feed(buf.data(), buf.size());
      next = decoder.next(out, unused);
    }
    total_us += us_between(t0, spans.now_ns());
    if (next != sd::net::WireDecoder::Next::kFrame || out.frame_id != i ||
        out.y != pool.y[i])
      ++failed;
  }
  return total_us / static_cast<double>(pool.size());
}

}  // namespace perfbench
