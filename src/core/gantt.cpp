#include "core/gantt.hpp"

#include <algorithm>
#include <cstdio>

namespace u5g {

namespace {

char category_glyph(LatencyCategory c) {
  switch (c) {
    case LatencyCategory::Protocol: return '=';
    case LatencyCategory::Processing: return '#';
    case LatencyCategory::Radio: return '~';
    case LatencyCategory::ChannelAccess: return '!';
  }
  return '?';
}

/// Time axis: maps [t0, t1] onto [0, columns).
struct Axis {
  Nanos t0;
  Nanos t1;
  int columns;

  [[nodiscard]] int col(Nanos t) const {
    if (t <= t0) return 0;
    if (t >= t1) return columns - 1;
    const double frac =
        static_cast<double>((t - t0).count()) / static_cast<double>((t1 - t0).count());
    return std::min(columns - 1, static_cast<int>(frac * columns));
  }
};

std::string slot_track(const DuplexConfig& cfg, const Axis& ax) {
  const SlotClock clk = cfg.clock();
  std::string row(static_cast<std::size_t>(ax.columns), ' ');
  // Columns run forward in time: fetch a slot's masks once, on entering it.
  SlotIndex mask_slot = clk.slot_at(ax.t0) - 1;
  SlotMasks m;
  for (int c = 0; c < ax.columns; ++c) {
    const Nanos t =
        ax.t0 + (ax.t1 - ax.t0) * c / ax.columns + (ax.t1 - ax.t0) / (2 * ax.columns);
    const SlotIndex slot = clk.slot_at(t);
    if (slot != mask_slot) {
      mask_slot = slot;
      m = cfg.slot_masks(slot);
    }
    const int sym = clk.symbol_at(t);
    const bool d = (m.dl >> sym) & 1u;
    const bool u = (m.ul >> sym) & 1u;
    row[static_cast<std::size_t>(c)] = d && u ? 'X' : d ? 'D' : u ? 'U' : '-';
  }
  // Mark slot boundaries.
  std::string ticks(static_cast<std::size_t>(ax.columns), ' ');
  for (SlotIndex s = clk.slot_at(ax.t0); clk.slot_start(s) <= ax.t1; ++s) {
    const Nanos b = clk.slot_start(s);
    if (b >= ax.t0) ticks[static_cast<std::size_t>(ax.col(b))] = '|';
  }
  return "  slots  " + ticks + "\n         " + row + "\n";
}

std::string step_rows(const Timeline& tl, const Axis& ax) {
  std::string out;
  for (const TimelineStep& s : tl.steps) {
    const int a = ax.col(s.start);
    const int b = std::max(a, ax.col(s.end) - (s.end >= ax.t1 ? 0 : 0));
    std::string row(static_cast<std::size_t>(ax.columns), ' ');
    for (int c = a; c <= b && c < ax.columns; ++c) {
      row[static_cast<std::size_t>(c)] = category_glyph(s.category);
    }
    char label[64];
    std::snprintf(label, sizeof label, "%-8.8s ",
                  s.label.substr(0, s.label.find(' ')).c_str());
    out += "  " + std::string(label) + row + "  " + s.label + " (" +
           to_string(s.duration()) + ")\n";
  }
  return out;
}

std::string legend() {
  return "  legend: '=' protocol wait/air   '#' processing   '~' radio   "
         "track: D/U/X/- per symbol, '|' slot boundary\n";
}

Axis make_axis(const DuplexConfig& cfg, Nanos from, Nanos to, int columns) {
  const SlotClock clk = cfg.clock();
  const Nanos t0 = clk.slot_start(clk.slot_at(from));
  const Nanos t1 = clk.next_slot_boundary(to) == to ? to : clk.next_slot_boundary(to);
  return Axis{t0, std::max(t1, t0 + clk.slot_duration()), columns};
}

}  // namespace

std::string render_gantt(const DuplexConfig& cfg, const Timeline& tl, const GanttOptions& opt) {
  if (!tl.feasible || tl.steps.empty()) return "  (infeasible timeline)\n";
  const Axis ax = make_axis(cfg, tl.arrival, tl.completion, opt.columns);
  std::string out;
  out += "  time     " + to_string(ax.t0) + " .. " + to_string(ax.t1) + "  (latency " +
         to_string(tl.latency()) + ")\n";
  if (opt.show_slot_track) out += slot_track(cfg, ax);
  out += step_rows(tl, ax);
  if (opt.show_legend) out += legend();
  return out;
}

std::string render_gantt(const DuplexConfig& cfg, const PingJourney& j, const GanttOptions& opt) {
  if (!j.uplink.feasible || !j.downlink.feasible) return "  (infeasible journey)\n";
  std::string out;
  out += "== uplink (ping request) ==\n";
  GanttOptions sub = opt;
  sub.show_legend = false;
  out += render_gantt(cfg, j.uplink, sub);
  out += "== core network + host ==\n";
  out += "  gNB->UPF->host " + to_string(j.core_uplink) + ", turnaround " +
         to_string(j.turnaround) + ", host->UPF->gNB " + to_string(j.core_downlink) + "\n";
  out += "== downlink (ping reply) ==\n";
  out += render_gantt(cfg, j.downlink, sub);
  if (opt.show_legend) out += legend();
  out += "round trip: " + to_string(j.rtt) + "\n";
  return out;
}

}  // namespace u5g
