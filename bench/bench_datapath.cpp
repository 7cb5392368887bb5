// Full-stack packet-datapath microbenchmark (the §7 per-packet protocol
// work, measured as real CPU cost rather than simulated time): for each
// packet SDAP encap → PDCP protect (cipher + integrity) → RLC enqueue/pull →
// MAC PDU build → MAC parse → RLC reassembly → PDCP verify/decipher → SDAP
// decap. Reports warm packets/s per payload size, a per-component breakdown,
// and heap allocations per warm packet (the pooled datapath claims zero).
//
//   bench_datapath [--packets N] [--json FILE] [--trace FILE]
//                  [--metrics FILE] [--strict]
//
// `--trace` writes the per-payload measurement phases as a Chrome trace;
// `--metrics` adds an instrumented pass recording per-packet wall time into
// a LatencyHistogram; `--strict` makes any nonzero allocs/packet a hard
// failure (CI's zero-allocation regression gate).
//
// Self-check: every payload must round-trip bit-identically, and the warm
// path must stay allocation-free once buffer pools and queues are warm.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/time.hpp"
#include "mac/mac_pdu.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "phy/modulation.hpp"
#include "phy/transport_block.hpp"
#include "rlc/rlc_entity.hpp"
#include "sdap/qos.hpp"
#include "sdap/sdap_entity.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: measures heap traffic of the warm datapath.
// `noinline` so that GCC does not pair an inlined malloc with a free and
// warn -Wmismatched-new-delete (as in tests/alloc_counter.hpp).

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace u5g {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint8_t kQfi = 5;

/// One node-pair's worth of datapath state, reused across all packets.
struct Datapath {
  explicit Datapath(std::size_t payload)
      : payload_bytes(payload), tb_bytes(payload + 64), pdcp_tx(config()), pdcp_rx(config()),
        rlc_tx(RlcMode::UM), rlc_rx(RlcMode::UM) {
    sdap.configure_flow(kQfi, BearerId{1}, urllc_five_qi());
  }

  static PdcpConfig config() {
    return PdcpConfig{.sn_bits = 12,
                      .integrity_enabled = true,
                      .security = CipherContext{.key = 0x5deece66d2b4a1c9ULL, .bearer = 1,
                                                .downlink = true}};
  }

  /// Push one packet all the way through and back; returns delivered bytes.
  std::size_t pump(std::uint8_t fill) {
    ByteBuffer pkt(payload_bytes, fill);
    sdap.encapsulate(pkt, kQfi);
    pdcp_tx.protect(pkt);
    rlc_tx.enqueue(std::move(pkt), Nanos::zero());

    MacSubPdus sub;
    std::size_t used = 0;
    while (auto pulled = rlc_tx.pull(tb_bytes - used - kMacSubheaderBytes)) {
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub.push_back(MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)});
    }
    ByteBuffer tb = build_mac_pdu(sub, tb_bytes);

    std::size_t delivered = 0;
    auto parsed = parse_mac_pdu(std::move(tb));
    if (!parsed) return 0;
    for (MacSubPdu& sp : *parsed) {
      if (sp.lcid != Lcid::Drb1) continue;
      rlc_rx.receive(std::move(sp.payload), [&](ByteBuffer&& sdu, const PacketMeta&) {
        pdcp_rx.receive(std::move(sdu), [&](ByteBuffer&& plain, const PacketMeta&) {
          (void)sdap.decapsulate(plain);
          if (plain.size() == payload_bytes && plain.bytes()[0] == fill) {
            delivered = plain.size();
          }
        });
      });
    }
    return delivered;
  }

  /// Batched slot execution: push `kBatch` packets through as ONE slot's
  /// worth of work — one protect_batch over all payloads (4-lane cipher and
  /// integrity kernels), one transport block multiplexing all subPDUs (as a
  /// real slot's grant does), one streaming parse, one receive_batch. The
  /// per-batch scratch comes from the slot arena and dies at epoch_reset,
  /// so the warm batched path is as allocation-free as the scalar one.
  static constexpr std::size_t kBatch = 8;

  std::size_t pump_batch(std::uint8_t fill) {
    std::array<ByteBuffer, kBatch> pkts;
    ByteBuffer** ptrs = arena.allocate_array<ByteBuffer*>(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      pkts[i] = ByteBuffer(payload_bytes, static_cast<std::uint8_t>(fill + i));
      sdap.encapsulate(pkts[i], kQfi);
      ptrs[i] = &pkts[i];
    }
    pdcp_tx.protect_batch({ptrs, kBatch});

    const std::size_t batch_tb = kBatch * tb_bytes;
    std::array<MacSubPdu, kBatch> sub;
    std::size_t nsub = 0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      rlc_tx.enqueue(std::move(pkts[i]), Nanos::zero());
    }
    while (auto pulled = rlc_tx.pull(batch_tb - used - kMacSubheaderBytes)) {
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub[nsub].lcid = Lcid::Drb1;
      sub[nsub].payload = std::move(pulled->pdu);
      if (++nsub == kBatch) break;
    }
    ByteBuffer tb = build_mac_pdu({sub.data(), nsub}, used);

    std::array<ByteBuffer, kBatch> staged;
    std::size_t nstaged = 0;
    parse_mac_pdu_to(std::move(tb), [&](ByteBuffer&& payload, const PacketMeta& meta) {
      if (meta.lcid != static_cast<std::uint8_t>(Lcid::Drb1)) return;
      rlc_rx.receive(std::move(payload), [&](ByteBuffer&& sdu, const PacketMeta&) {
        if (nstaged < kBatch) staged[nstaged++] = std::move(sdu);
      });
    });

    std::size_t delivered = 0;
    pdcp_rx.receive_batch({staged.data(), nstaged},
                          [&](ByteBuffer&& plain, const PacketMeta&) {
                            (void)sdap.decapsulate(plain);
                            if (plain.size() == payload_bytes) ++delivered;
                          });
    arena.epoch_reset();
    return delivered;
  }

  std::size_t payload_bytes;
  std::size_t tb_bytes;
  SdapEntity sdap;
  PdcpTx pdcp_tx;
  PdcpRx pdcp_rx;
  RlcTx rlc_tx;
  RlcRx rlc_rx;
  Arena arena;  ///< slot-scoped batch scratch, epoch-reset per batch
};

struct FullStackResult {
  std::size_t payload = 0;
  double packets_per_sec = 0.0;         ///< batched slot execution (headline)
  double scalar_packets_per_sec = 0.0;  ///< one-packet-at-a-time reference
  double allocs_per_packet = 0.0;       ///< batched warm path
  double scalar_allocs_per_packet = 0.0;
  std::size_t allocs = 0;
};

FullStackResult run_full_stack(std::size_t payload, int packets,
                               LatencyHistogram* hist = nullptr) {
  Datapath dp(payload);
  // Warm-up: fill buffer pools, RLC queues, PDCP state and the slot arena
  // past their high-water marks so the measured phases are the steady state.
  for (int i = 0; i < 512; ++i) {
    if (dp.pump(static_cast<std::uint8_t>(i)) == 0) {
      std::fprintf(stderr, "bench_datapath: warm-up packet %d failed to round-trip\n", i);
      std::exit(1);
    }
  }
  for (int i = 0; i < 64; ++i) {
    if (dp.pump_batch(static_cast<std::uint8_t>(i)) != Datapath::kBatch) {
      std::fprintf(stderr, "bench_datapath: warm-up batch %d failed to round-trip\n", i);
      std::exit(1);
    }
  }

  // Scalar reference pass: one packet, one kernel invocation at a time.
  const std::size_t scalar_allocs_before = g_allocs.load();
  const auto s0 = Clock::now();
  std::size_t ok = 0;
  for (int i = 0; i < packets; ++i) {
    ok += dp.pump(static_cast<std::uint8_t>(i | 1)) == payload ? 1u : 0u;
  }
  const double scalar_dt = seconds_since(s0);
  const std::size_t scalar_allocs = g_allocs.load() - scalar_allocs_before;
  if (ok != static_cast<std::size_t>(packets)) {
    std::fprintf(stderr, "bench_datapath: %zu/%d packets failed the round-trip\n",
                 static_cast<std::size_t>(packets) - ok, packets);
    std::exit(1);
  }

  // Batched slot pass (the headline): same packet count, kBatch per slot.
  const int batches = packets / static_cast<int>(Datapath::kBatch);
  const std::size_t allocs_before = g_allocs.load();
  const auto t0 = Clock::now();
  std::size_t bok = 0;
  for (int i = 0; i < batches; ++i) {
    bok += dp.pump_batch(static_cast<std::uint8_t>(i | 1));
  }
  const double dt = seconds_since(t0);
  const std::size_t allocs = g_allocs.load() - allocs_before;
  const auto bpackets = static_cast<std::size_t>(batches) * Datapath::kBatch;
  if (bok != bpackets) {
    std::fprintf(stderr, "bench_datapath: %zu/%zu batched packets failed the round-trip\n",
                 bpackets - bok, bpackets);
    std::exit(1);
  }
  if (hist) {
    // Separately-timed instrumented pass: the throughput loop above stays
    // untouched; this one pays a clock read per packet to fill the histogram.
    const int sample = std::min(packets, 20'000);
    for (int i = 0; i < sample; ++i) {
      const auto s0 = Clock::now();
      dp.pump(static_cast<std::uint8_t>(i | 1));
      hist->record(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - s0).count());
    }
  }
  return {payload,
          static_cast<double>(bpackets) / dt,
          static_cast<double>(packets) / scalar_dt,
          static_cast<double>(allocs) / static_cast<double>(bpackets),
          static_cast<double>(scalar_allocs) / static_cast<double>(packets),
          allocs + scalar_allocs};
}

// ---------------------------------------------------------------------------
// Component micro-loops (per-layer breakdown).

double bench_cipher_mbps(std::size_t n, int iters) {
  ByteBuffer b(n, 0x5A);
  const CipherContext ctx{};
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    apply_keystream(b.bytes(), ctx, static_cast<std::uint32_t>(i));
  }
  const double dt = seconds_since(t0);
  return static_cast<double>(n) * iters / dt / 1e6;
}

double bench_integrity_mbps(std::size_t n, int iters) {
  ByteBuffer b(n, 0x5A);
  const CipherContext ctx{};
  std::uint32_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    sink ^= integrity_tag(b.bytes(), ctx, static_cast<std::uint32_t>(i));
  }
  const double dt = seconds_since(t0);
  if (sink == 0xDEADBEEF) std::printf("~");  // keep the loop alive
  return static_cast<double>(n) * iters / dt / 1e6;
}

double bench_prbs_lookups_per_sec(int iters) {
  const McsEntry m = mcs(19);
  long long sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    sink += prbs_needed(64 + (i & 1023), 4, m, 273);
  }
  const double dt = seconds_since(t0);
  if (sink < 0) std::printf("~");
  return iters / dt;
}

}  // namespace
}  // namespace u5g

int main(int argc, char** argv) {
  using namespace u5g;
  BenchOptions defaults;
  defaults.packets = 200'000;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);
  const int packets = opt.packets > 0 ? opt.packets : 200'000;

  const std::size_t payloads[] = {64, 256, 1250};
  // Literal names: TraceSpan/LatencyHistogram want storage outliving them.
  const char* const phase_name[] = {"full-stack 64 B", "full-stack 256 B", "full-stack 1250 B"};
  const char* const hist_name[] = {"datapath.packet_wall_ns.64", "datapath.packet_wall_ns.256",
                                   "datapath.packet_wall_ns.1250"};
  std::vector<TraceSpan> spans;
  MetricsRegistry metrics;
  std::vector<FullStackResult> results;
  const auto bench_t0 = Clock::now();
  const auto wall = [&] {
    return Nanos{std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - bench_t0)
                     .count()};
  };
  std::printf("bench_datapath — warm full-stack datapath (batched slot vs scalar)\n");
  std::printf("%8s %16s %16s %10s %14s\n", "payload", "batched pkt/s", "scalar pkt/s", "speedup",
              "allocs/packet");
  for (std::size_t pi = 0; pi < 3; ++pi) {
    LatencyHistogram* hist = opt.metrics ? &metrics.histogram(hist_name[pi]) : nullptr;
    const Nanos t_begin = wall();
    results.push_back(run_full_stack(payloads[pi], packets, hist));
    spans.push_back(TraceSpan{phase_name[pi], LatencyCategory::Processing,
                              static_cast<std::int32_t>(pi), t_begin, wall()});
    std::printf("%8zu %16.0f %16.0f %9.2fx %14.3f\n", results.back().payload,
                results.back().packets_per_sec, results.back().scalar_packets_per_sec,
                results.back().packets_per_sec / results.back().scalar_packets_per_sec,
                results.back().allocs_per_packet);
  }

  const double cipher64 = bench_cipher_mbps(64, 2'000'000);
  const double cipher1250 = bench_cipher_mbps(1250, 400'000);
  const double integ64 = bench_integrity_mbps(64, 2'000'000);
  const double integ1250 = bench_integrity_mbps(1250, 400'000);
  const double prbs = bench_prbs_lookups_per_sec(2'000'000);
  std::printf("\ncomponent breakdown:\n");
  std::printf("  pdcp cipher      %8.0f MB/s @64B   %8.0f MB/s @1250B\n", cipher64, cipher1250);
  std::printf("  pdcp integrity   %8.0f MB/s @64B   %8.0f MB/s @1250B\n", integ64, integ1250);
  std::printf("  prbs_needed      %8.2f Mlookups/s\n", prbs / 1e6);

  if (opt.json) {
    std::FILE* f = std::fopen(opt.json->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_datapath: cannot open %s\n", opt.json->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"datapath\",\n  \"packets\": %d,\n  \"full_stack\": [\n",
                 packets);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::fprintf(f,
                   "    {\"payload_bytes\": %zu, \"packets_per_sec\": %.1f, "
                   "\"scalar_packets_per_sec\": %.1f, \"allocs_per_packet\": %.4f, "
                   "\"scalar_allocs_per_packet\": %.4f}%s\n",
                   results[i].payload, results[i].packets_per_sec,
                   results[i].scalar_packets_per_sec, results[i].allocs_per_packet,
                   results[i].scalar_allocs_per_packet, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"cipher_mbps_64\": %.1f,\n  \"cipher_mbps_1250\": %.1f,\n"
                 "  \"integrity_mbps_64\": %.1f,\n  \"integrity_mbps_1250\": %.1f,\n"
                 "  \"prbs_lookups_per_sec\": %.1f\n}\n",
                 cipher64, cipher1250, integ64, integ1250, prbs);
    std::fclose(f);
  }

  if (opt.trace && !write_chrome_trace(*opt.trace, spans, "bench_datapath")) {
    std::fprintf(stderr, "bench_datapath: cannot write %s\n", opt.trace->c_str());
    return 1;
  }
  if (opt.metrics) {
    std::size_t total_allocs = 0;
    for (const FullStackResult& r : results) total_allocs += r.allocs;
    metrics.counter("datapath.packets").set(static_cast<std::uint64_t>(packets) * results.size());
    metrics.counter("datapath.warm_allocs").set(total_allocs);
    if (!metrics.write_json(*opt.metrics)) {
      std::fprintf(stderr, "bench_datapath: cannot write %s\n", opt.metrics->c_str());
      return 1;
    }
  }
  if (opt.strict) {
    for (const FullStackResult& r : results) {
      if (r.allocs_per_packet > 0.0 || r.scalar_allocs_per_packet > 0.0) {
        std::fprintf(stderr,
                     "bench_datapath: --strict: %zu B payload allocated %.3f/packet batched, "
                     "%.3f/packet scalar on the warm path (expected 0)\n",
                     r.payload, r.allocs_per_packet, r.scalar_allocs_per_packet);
        return 1;
      }
    }
    std::printf("\n--strict: warm path allocation-free for all payloads (batched and scalar)\n");
  }
  return 0;
}
