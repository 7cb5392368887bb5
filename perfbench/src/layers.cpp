// Per-layer probes of the traced run. Each one drives a layer's public API
// directly, at the sizes of the workload that layer belongs to, and times
// the calls from outside:
//
//   mac.population   UePopulation::tick on city_1m's PopulationConfig
//   core.e2e         E2eSystem::run_until for stack_mix's cell 0, per slot
//   datapath         SDAP/PDCP/RLC/MAC entity calls at stack_mix's payload
//   phy.lbt          LbtGate::acquire on a replay of stack_mix's cell-0
//                    bursts; the gate ratios from a stack_mix engine run
//   tdd.dynamic      DynamicFormatPolicy::decide on stack_mix's pattern
//   core.latency_model  analyze_worst_case over serve_mix's working set

#include <array>
#include <memory>
#include <cstdio>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/cell.hpp"
#include "core/e2e_system.hpp"
#include "core/latency_model.hpp"
#include "mac/mac_pdu.hpp"
#include "mac/ue_population.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "phy/lbt.hpp"
#include "rlc/rlc_entity.hpp"
#include "sdap/qos.hpp"
#include "sdap/sdap_entity.hpp"
#include "sim/runner.hpp"
#include "tdd/dynamic_format.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace u5g;

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Repeat `body` until `seconds` have passed (at least `min_reps` times).
template <typename Body>
void repeat_for(double seconds, int min_reps, Body&& body) {
  const auto start = Clock::now();
  for (int i = 0; i < min_reps || seconds_since(start) < seconds; ++i) body(i);
}

/// Packets that ended somewhere: delivered, HARQ-dropped (counted per TB),
/// stranded, PDCP-discarded, or still queued in the MAC.
std::uint64_t accounted(const E2eSystem& s) {
  const auto backlog = s.mac_backlog();
  return s.latency_samples_us(Direction::Uplink).count() +
         s.latency_samples_us(Direction::Downlink).count() + s.harq_dropped_tbs() +
         s.stranded_drops() + s.pdcp_discards() + backlog.retx_tbs + backlog.cg_armed +
         backlog.sr_pending;
}

void send(E2eSystem& s, bool uplink, Nanos at, int ue) {
  if (uplink) {
    s.send_uplink_at(at, ue);
  } else {
    s.send_downlink_at(at, ue);
  }
}

// -- mac.population -------------------------------------------------------------

void probe_population(const RunOptions& opt, Result& r) {
  const PopulationConfig cfg = city_population();
  const Nanos slot = kMu2.slot_duration();  // city_1m runs the µ2 URLLC design
  const int slots = opt.smoke ? 40 : 400;
  std::vector<double> ns_per_ue;
  UePopulation::Counters total;
  int pops = 0;
  repeat_for(opt.smoke ? 0.0 : 1.0, opt.smoke ? 2 : 16, [&](int i) {
    UePopulation pop(cfg, slot, splitmix64(opt.seed ^ (0x909ULL + static_cast<std::uint64_t>(i))));
    const auto t0 = Clock::now();
    for (int s = 0; s < slots; ++s) pop.tick(static_cast<std::uint64_t>(s));
    ns_per_ue.push_back(ns_between(t0, Clock::now()) / (static_cast<double>(slots) * pop.size()));
    const auto& c = pop.counters();
    r.check(c.offered == c.delivered + c.harq_drops + c.queue_drops + pop.queued_packets(),
            "population accounting identity");
    if (i < 16) {  // the counts cover a fixed 16 populations: seeded, not timed
      total.offered += c.offered;
      total.delivered += c.delivered;
      total.grants_used += c.grants_used;
      total.queue_drops += c.queue_drops;
      ++pops;
    }
  });
  r.attempted += total.offered;
  r.add("population.tick_ns_per_ue", median(ns_per_ue), "ns");
  r.add("population.offered", static_cast<double>(total.offered), "count");
  r.add("population.grants_used", static_cast<double>(total.grants_used), "count");
  r.add("population.served_ratio", ratio(total.delivered, total.offered), "fraction");
  r.add("population.queue_drops", static_cast<double>(total.queue_drops), "count");
  char buf[160];
  std::snprintf(buf, sizeof buf, "population probe: %d populations x %d UEs x %d slots", pops,
                cfg.background_ues, slots);
  r.note(buf);
}

// -- core.e2e -------------------------------------------------------------------

void probe_e2e(const RunOptions& opt, Result& r) {
  const int rounds = stack_rounds(opt.smoke);
  const Nanos horizon = stack_horizon(rounds);
  const StackConfig cell0 = per_cell_config(stack_config(opt.seed, 16), 0);
  const Nanos slot = cell0.duplex->numerology().slot_duration();
  std::vector<double> step_us, ns_per_event;
  std::uint64_t events = 0, offered = 0, harq = 0, pdcp = 0, delivered = 0;
  std::int64_t unaccounted = 0;  // signed: buckets could also over-count
  repeat_for(opt.smoke ? 0.0 : 1.0, opt.smoke ? 1 : 2, [&](int i) {
    E2eSystem sys(cell0);
    std::uint64_t n = 0;
    stack_traffic(opt.seed, 1, cell0.num_ues, rounds, [&](bool uplink, Nanos at, int, int ue) {
      send(sys, uplink, at, ue);
      ++n;
    });
    const auto t0 = Clock::now();
    for (Nanos t = slot; t <= horizon; t += slot) {
      const auto s0 = Clock::now();
      sys.run_until(t);
      step_us.push_back(ns_between(s0, Clock::now()) / 1e3);
    }
    const double wall_ns = ns_between(t0, Clock::now());
    const std::uint64_t ev = sys.simulator().events_fired();
    ns_per_event.push_back(wall_ns / static_cast<double>(ev));
    // The 10 s drain is not timed: it only settles the loss buckets.
    sys.run_until(horizon + Nanos{10'000'000'000});
    const std::uint64_t got = sys.latency_samples_us(Direction::Uplink).count() +
                              sys.latency_samples_us(Direction::Downlink).count();
    if (i == 0) {
      events = ev;
      offered = n;
      harq = sys.harq_dropped_tbs();
      pdcp = sys.pdcp_discards();
      delivered = got;
      unaccounted = static_cast<std::int64_t>(n) - static_cast<std::int64_t>(accounted(sys));
    } else {
      r.check(ev == events && got == delivered, "e2e probe repetition differs from the first");
    }
    r.attempted += n;
  });
  r.add("e2e.ns_per_event", median(ns_per_event), "ns");
  r.add("e2e.events_per_pkt", static_cast<double>(events) / static_cast<double>(offered), "count");
  r.add("e2e.step_us_p99", quantile(step_us, 0.99), "us");
  r.add("e2e.harq_dropped_tbs", static_cast<double>(harq), "count");
  r.add("e2e.pdcp_discards", static_cast<double>(pdcp), "count");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "e2e probe (stack_mix cell 0, 10 s drain): offered %llu, delivered %llu, "
                "harq TBs %llu, pdcp discards %llu",
                static_cast<unsigned long long>(offered),
                static_cast<unsigned long long>(delivered), static_cast<unsigned long long>(harq),
                static_cast<unsigned long long>(pdcp));
  r.note(buf);

  // e2e.unaccounted_pkts comes from the shape in which the loss buckets miss
  // packets: 16 cells of 8 grant-based UEs on the µ1 testbed stack under
  // stack_mix's LBT and dynamic TDD, 50 UL + 50 DL packets per UE at a 4 ms
  // round, then a 10 s drain. harq_dropped_tbs counts a lost TB once even
  // when it carries several packets (reported, not asserted).
  StackConfig testbed = StackConfig::testbed_grant_based(opt.seed);
  testbed.num_ues = cell0.num_ues;
  testbed.lbt = cell0.lbt;
  testbed.dynamic_tdd = cell0.dynamic_tdd;
  const int cells = opt.smoke ? 2 : 16;
  std::vector<std::unique_ptr<E2eSystem>> sys;
  for (int c = 0; c < cells; ++c) {
    sys.push_back(std::make_unique<E2eSystem>(per_cell_config(testbed, c)));
  }
  std::uint64_t gap_offered = 0;
  stack_traffic(opt.seed, cells, testbed.num_ues, opt.smoke ? 10 : 50,
                [&](bool uplink, Nanos at, int cell, int ue) {
                  send(*sys[static_cast<std::size_t>(cell)], uplink, at, ue);
                  ++gap_offered;
                },
                Nanos{4'000'000});
  auto gap = static_cast<std::int64_t>(gap_offered);
  for (auto& s : sys) {
    s->run_until(Nanos{10'200'000'000});
    gap -= static_cast<std::int64_t>(accounted(*s));
  }
  r.attempted += gap_offered;
  r.add("e2e.unaccounted_pkts", static_cast<double>(gap), "count");
  std::snprintf(buf, sizeof buf,
                "e2e.unaccounted_pkts: %lld of %llu packets in no loss bucket (%d testbed cells, "
                "4 ms round, 10 s drain); stack_mix cell 0 itself: %lld",
                static_cast<long long>(gap), static_cast<unsigned long long>(gap_offered), cells,
                static_cast<long long>(unaccounted));
  r.note(buf);
}

// -- Datapath entities ---------------------------------------------------------

constexpr std::uint8_t kQfi = 5;

PdcpConfig pdcp_config() {
  return PdcpConfig{.sn_bits = 12,
                    .integrity_enabled = true,
                    .security = CipherContext{.key = 0x5deece66d2b4a1c9ULL, .bearer = 1,
                                              .downlink = true}};
}

/// One node pair's entities; each phase pushes a round of packets through
/// one entity call so the clock brackets many calls, not one.
struct DatapathProbe {
  static constexpr std::size_t kRound = 16;
  static constexpr int kPhases = 8;

  explicit DatapathProbe(std::size_t payload)
      : payload_bytes(payload), tb_bytes(payload + 64), pdcp_tx(pdcp_config()),
        pdcp_rx(pdcp_config()), rlc_tx(RlcMode::UM), rlc_rx(RlcMode::UM) {
    sdap.configure_flow(kQfi, BearerId{1}, urllc_five_qi());
  }

  /// One round; adds per-phase ns to `ns`, returns packets delivered intact.
  std::size_t round(std::uint8_t fill, std::array<double, kPhases>& ns) {
    std::array<ByteBuffer, kRound> pkt;
    std::array<ByteBuffer, kRound> tb;
    std::array<ByteBuffer, kRound> rx;
    std::size_t nrx = 0, npdcp = 0, ok = 0;
    for (std::size_t i = 0; i < kRound; ++i) pkt[i] = ByteBuffer(payload_bytes, fill + i);

    auto t = Clock::now();
    const auto lap = [&](int phase) {
      const auto now = Clock::now();
      ns[static_cast<std::size_t>(phase)] += ns_between(t, now);
      t = now;
    };
    for (auto& p : pkt) sdap.encapsulate(p, kQfi);
    lap(0);
    for (auto& p : pkt) pdcp_tx.protect(p);
    lap(1);
    std::array<MacSubPdu, kRound> sub;
    for (std::size_t i = 0; i < kRound; ++i) {
      rlc_tx.enqueue(std::move(pkt[i]), Nanos::zero());
      auto pulled = rlc_tx.pull(tb_bytes - kMacSubheaderBytes);
      if (pulled) sub[i] = MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)};
    }
    lap(2);
    for (std::size_t i = 0; i < kRound; ++i) tb[i] = build_mac_pdu({&sub[i], 1}, tb_bytes);
    lap(3);
    std::array<ByteBuffer, kRound> mac_out;
    std::size_t nmac = 0;
    for (auto& b : tb) {
      parse_mac_pdu_to(std::move(b), [&](ByteBuffer&& payload, const PacketMeta& meta) {
        if (meta.lcid == static_cast<std::uint8_t>(Lcid::Drb1) && nmac < kRound) {
          mac_out[nmac++] = std::move(payload);
        }
      });
    }
    lap(4);
    for (std::size_t i = 0; i < nmac; ++i) {
      rlc_rx.receive(std::move(mac_out[i]), [&](ByteBuffer&& sdu, const PacketMeta&) {
        if (nrx < kRound) rx[nrx++] = std::move(sdu);
      });
    }
    lap(5);
    std::array<ByteBuffer, kRound> plain;
    for (std::size_t i = 0; i < nrx; ++i) {
      pdcp_rx.receive(std::move(rx[i]), [&](ByteBuffer&& p, const PacketMeta&) {
        if (npdcp < kRound) plain[npdcp++] = std::move(p);
      });
    }
    lap(6);
    for (std::size_t i = 0; i < npdcp; ++i) (void)sdap.decapsulate(plain[i]);
    lap(7);
    for (std::size_t i = 0; i < npdcp; ++i) {
      const auto b = plain[i].bytes();
      ok += plain[i].size() == payload_bytes && b[0] == static_cast<std::uint8_t>(fill + i) &&
            b[payload_bytes - 1] == static_cast<std::uint8_t>(fill + i);
    }
    return ok;
  }

  std::size_t payload_bytes;
  std::size_t tb_bytes;
  SdapEntity sdap;
  PdcpTx pdcp_tx;
  PdcpRx pdcp_rx;
  RlcTx rlc_tx;
  RlcRx rlc_rx;
};

void probe_datapath(const RunOptions& opt, Result& r) {
  const std::size_t payload = stack_config(opt.seed, 1).payload_bytes;
  DatapathProbe dp(payload);
  std::array<double, DatapathProbe::kPhases> warm{};
  for (int i = 0; i < 256; ++i) {
    r.check(dp.round(static_cast<std::uint8_t>(i), warm) == DatapathProbe::kRound,
            "datapath round trip corrupted a packet");
  }
  // Per-phase ns per packet, one sample per block of rounds; medians below.
  constexpr int kBlock = 64;
  std::array<std::vector<double>, DatapathProbe::kPhases> per_pkt;
  std::uint64_t packets = 0, allocs = 0;
  repeat_for(opt.smoke ? 0.0 : 1.0, opt.smoke ? 2 : 50, [&](int b) {
    std::array<double, DatapathProbe::kPhases> ns{};
    const std::uint64_t a0 = thread_allocs();
    std::size_t ok = 0;
    for (int i = 0; i < kBlock; ++i) ok += dp.round(static_cast<std::uint8_t>(b * 7 + i), ns);
    allocs += thread_allocs() - a0;
    const double n = static_cast<double>(kBlock * DatapathProbe::kRound);
    packets += kBlock * DatapathProbe::kRound;
    r.check(ok == kBlock * DatapathProbe::kRound, "datapath round trip corrupted a packet");
    for (int p = 0; p < DatapathProbe::kPhases; ++p) per_pkt[p].push_back(ns[p] / n);
  });
  r.attempted += packets;
  static constexpr const char* kNames[DatapathProbe::kPhases] = {
      "sdap.encap_ns", "pdcp.protect_ns", "rlc.tx_ns",   "mac.pdu_build_ns",
      "mac.pdu_parse_ns", "rlc.rx_ns",     "pdcp.receive_ns", "sdap.decap_ns"};
  for (int p = 0; p < DatapathProbe::kPhases; ++p) r.add(kNames[p], median(per_pkt[p]), "ns");
  r.add("datapath.allocs_per_pkt", static_cast<double>(allocs) / static_cast<double>(packets),
        "count");
}

// -- phy.lbt and tdd.dynamic -----------------------------------------------------

void probe_lbt_tdd(const RunOptions& opt, Result& r) {
  const StackConfig cfg = per_cell_config(stack_config(opt.seed, 16), 0);
  const DuplexConfig& duplex = *cfg.duplex;
  const Nanos slot = duplex.numerology().slot_duration();
  const Nanos sym = duplex.numerology().symbol_duration();
  const int rounds = stack_rounds(opt.smoke);

  // A replay of stack_mix cell 0's packets as bursts, to time acquire(): each
  // starts at the first slot of its direction after arrival; UL lasts
  // ul_tx_symbols, DL a slot's data region (12 symbols after the control
  // region). No queueing and no retransmissions, so only the per-direction
  // collision split comes from here; the engine run below gives the ratios
  // of stack_mix itself.
  struct Burst {
    Nanos wanted;
    Nanos duration;
    bool uplink;
  };
  std::vector<Burst> bursts;
  stack_traffic(opt.seed, 1, cfg.num_ues, rounds, [&](bool uplink, Nanos at, int, int) {
    SlotIndex k = at.count() / slot.count() + 1;
    while (uplink ? !duplex.ul_capable(k, kSymbolsPerSlot - 1) : !duplex.dl_capable(k, 2)) ++k;
    const Nanos start = slot * k + (uplink ? Nanos{} : sym * 2);
    bursts.push_back({start, uplink ? sym * cfg.sched.ul_tx_symbols : sym * 12, uplink});
  });
  std::stable_sort(bursts.begin(), bursts.end(),
                   [](const Burst& a, const Burst& b) { return a.wanted < b.wanted; });

  std::vector<double> acquire_ns;
  std::array<std::uint64_t, 2> attempts{}, collided{};
  repeat_for(opt.smoke ? 0.0 : 0.5, opt.smoke ? 1 : 3, [&](int i) {
    LbtGate gate(cfg.lbt, splitmix64(cfg.seed ^ 0x1B7));
    std::array<std::uint64_t, 2> att{}, col{};
    Nanos watermark{};
    const auto t0 = Clock::now();
    for (const Burst& b : bursts) {
      const LbtGate::Access a = gate.acquire(b.wanted, b.duration, watermark);
      watermark = b.wanted;
      gate.on_harq_feedback(a.collided);
      ++att[b.uplink ? 0 : 1];
      col[b.uplink ? 0 : 1] += a.collided ? 1 : 0;
    }
    acquire_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(bursts.size()));
    if (i == 0) {
      attempts = att;
      collided = col;
    } else {
      r.check(col == collided, "LBT probe repetition differs from the first");
    }
    r.attempted += bursts.size();
  });
  const LbtGate::Stats engine = stack_mix_lbt_stats(opt);
  r.attempted += engine.attempts;
  r.add("lbt.acquire_ns", median(acquire_ns), "ns");
  r.add("lbt.deferral_ratio", ratio(engine.deferred, engine.attempts), "fraction");
  r.add("lbt.collision_ratio", ratio(engine.hidden_collisions, engine.attempts), "fraction");
  r.add("lbt.collision_ratio_ul", ratio(collided[0], attempts[0]), "fraction");
  r.add("lbt.collision_ratio_dl", ratio(collided[1], attempts[1]), "fraction");

  // DynamicFormatPolicy::decide over seeded queue states.
  const int slots = opt.smoke ? 2'000 : 200'000;
  std::vector<TddQueueState> states(static_cast<std::size_t>(slots));
  Rng rng(splitmix64(opt.seed ^ 0x7DD));
  for (TddQueueState& q : states) {
    // Mostly one packet in flight per direction; excess backlog is rare.
    const auto count = [&rng](double p1, double p2) {
      return static_cast<std::uint32_t>(rng.bernoulli(p1)) +
             static_cast<std::uint32_t>(rng.bernoulli(p2));
    };
    q.sr_pending = count(0.3, 0.002);
    q.ul_retx_tbs = count(0.002, 0.0);
    q.ul_queued_sdus = count(0.3, 0.002);
    q.dl_queued_sdus = count(0.3, 0.002);
    q.dl_inflight_tbs = count(0.3, 0.002);
  }
  std::vector<double> decide_ns;
  std::uint64_t upgraded = 0;
  repeat_for(opt.smoke ? 0.0 : 0.3, opt.smoke ? 1 : 3, [&](int i) {
    DynamicFormatPolicy policy(duplex, cfg.dynamic_tdd);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int k = 0; k < slots; ++k) {
      sink += policy.decide(k, states[static_cast<std::size_t>(k)]).added_dl;
    }
    decide_ns.push_back(ns_between(t0, Clock::now()) / slots);
    if (i == 0) upgraded = policy.upgraded_slots();
    r.check(policy.upgraded_slots() == upgraded && sink != ~0ULL,
            "dynamic TDD decisions differ between repetitions");
    r.attempted += static_cast<std::uint64_t>(slots);
  });
  r.add("tdd.decide_ns", median(decide_ns), "ns");
  r.add("tdd.upgraded_ratio", static_cast<double>(upgraded) / slots, "fraction");
}

// -- core.latency_model ----------------------------------------------------------

void probe_latency_model(const RunOptions& opt, Result& r) {
  const std::vector<FeasibilityQuery> ws = serve_working_set();
  std::vector<double> call_us;
  std::vector<WorstCaseResult> first;
  repeat_for(opt.smoke ? 0.0 : 0.5, opt.smoke ? 1 : 3, [&](int i) {
    for (std::size_t n = 0; n < ws.size(); ++n) {
      const FeasibilityQuery& q = ws[n];
      const auto t0 = Clock::now();
      const WorstCaseResult w = analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
      call_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      if (i == 0) {
        first.push_back(w);
      } else {
        r.check(w.worst == first[n].worst && w.mean == first[n].mean,
                "analyze_worst_case is not deterministic");
      }
      ++r.attempted;
    }
  });
  r.add("latency_model.worst_case_us", median(call_us), "us");
}

}  // namespace

void probe_layers(const RunOptions& opt, Result& r) {
  probe_population(opt, r);
  probe_e2e(opt, r);
  probe_datapath(opt, r);
  probe_lbt_tdd(opt, r);
  probe_latency_model(opt, r);
}

}  // namespace perfbench
