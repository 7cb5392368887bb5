// Every kind of DuplexConfig the analysis accepts, shared by the tests that
// check the slot-mask interface and the searches built on it against
// per-symbol references: the paper's minimal TDD patterns and the testbed's
// DDDU, a two-pattern and a long flexible-slot Common Configuration, all 46
// slot formats plus a cyclic format sequence, Mini-Slot 2/4/7, FDD, and a
// dynamic overlay over DM with seeded random commits and uncommitted gaps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

namespace u5g::test {

struct DuplexKind {
  std::string label;
  std::shared_ptr<const DuplexConfig> cfg;
};

/// DM at µ2 with random per-slot upgrades committed over slots [3, 60):
/// empty stretches inside that range are gap-filled commits, and slots
/// outside it are uncommitted (the base shows through).
inline std::shared_ptr<const DynamicDuplexConfig> random_dynamic_dm(std::uint64_t seed) {
  auto dyn = std::make_shared<DynamicDuplexConfig>(
      std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  Rng rng(seed);
  for (SlotIndex s = 3; s < 60; s += 1 + static_cast<SlotIndex>(rng.uniform_int(3))) {
    DecidedFormat f;
    f.added_dl = static_cast<std::uint16_t>(rng.uniform_int(kFullSlotMask + 1u));
    f.added_ul = static_cast<std::uint16_t>(rng.uniform_int(kFullSlotMask + 1u));
    dyn->commit(s, f);
  }
  return dyn;
}

inline std::vector<DuplexKind> duplex_kinds() {
  using namespace u5g::literals;
  std::vector<DuplexKind> out;
  const auto add = [&out](std::string label, std::shared_ptr<const DuplexConfig> cfg) {
    out.push_back({std::move(label), std::move(cfg)});
  };
  add("DU", std::make_shared<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  add("DM", std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  add("MU", std::make_shared<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  add("DDDU", std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
  add("DDDU+DU", std::make_shared<TddCommonConfig>(kMu1, TddPattern{2_ms, 3, 0, 0, 1},
                                                   TddPattern{1_ms, 1, 0, 0, 1}));
  add("DDMFFFFU", std::make_shared<TddCommonConfig>(kMu2, TddPattern{2_ms, 2, 4, 4, 1}));
  for (int idx = 0; idx < static_cast<int>(slot_format_table().size()); ++idx) {
    add("format " + std::to_string(idx),
        std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{idx}));
  }
  add("formats 0,0,28,1", std::make_shared<SlotFormatConfig>(kMu1, std::vector<int>{0, 0, 28, 1}));
  for (int len : {2, 4, 7}) {
    add("MiniSlot " + std::to_string(len), std::make_shared<MiniSlotConfig>(kMu2, len));
  }
  add("FDD", std::make_shared<FddConfig>(kMu2));
  add("DM + dynamic", random_dynamic_dm(0xD1A1));
  return out;
}

}  // namespace u5g::test
