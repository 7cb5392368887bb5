// Tests for the feasibility-query service (src/serve/) and its foundations:
// the canonical word stream + LRU cache (src/common/), DuplexConfig value
// identity, StackConfig::canonical_key / operator==, and the service's
// correctness contract — answers bit-identical to the offline analytic path
// for every Table 1 config x access mode, cache hits identical to cold
// misses, sim tails bitwise deterministic across 1/2/8 service threads, and
// LRU eviction never changing an answer.

#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/hashing.hpp"
#include "common/lru.hpp"
#include "core/feasibility.hpp"
#include "core/stack_config.hpp"
#include "serve/feasibility_service.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"

namespace u5g {
namespace {

bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

// ---------------------------------------------------------------------------
// CanonicalWords

TEST(CanonicalWordsTest, EqualStreamsEqualHashes) {
  CanonicalWords a;
  a.add(1);
  a.add_signed(-7);
  a.add_double(0.25);
  a.add_string("usb2");
  CanonicalWords b;
  b.add(1);
  b.add_signed(-7);
  b.add_double(0.25);
  b.add_string("usb2");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CanonicalWordsTest, OrderIsSignificant) {
  CanonicalWords a;
  a.add(1);
  a.add(2);
  CanonicalWords b;
  b.add(2);
  b.add(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(CanonicalWordsTest, LengthPrefixedStringsDoNotAlias) {
  // "ab" + "c" must not equal "a" + "bc".
  CanonicalWords a;
  a.add_string("ab");
  a.add_string("c");
  CanonicalWords b;
  b.add_string("a");
  b.add_string("bc");
  EXPECT_NE(a, b);
}

TEST(CanonicalWordsTest, DoubleIdentityIsBitwise) {
  CanonicalWords a;
  a.add_double(0.0);
  CanonicalWords b;
  b.add_double(-0.0);
  EXPECT_NE(a, b);  // distinct bit patterns are distinct identities
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, InsertFindPromote) {
  LruCache<int, std::string> cache(2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  ASSERT_NE(cache.find(1), nullptr);  // promotes 1 to MRU
  cache.insert(3, "three");           // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), "one");
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, OverwritePromotesAndReplaces) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(1, 11);  // overwrite promotes 1
  cache.insert(3, 30);  // evicts 2
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_EQ(cache.find(2), nullptr);
}

TEST(LruCacheTest, ZeroCapacityCachesNothing) {
  LruCache<int, int> cache(0);
  cache.insert(1, 10);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, HitRateCounts) {
  LruCache<int, int> cache(4);
  cache.insert(1, 10);
  EXPECT_EQ(cache.find(1) != nullptr, true);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Duplex value identity

TEST(DuplexIdentityTest, EqualPatternsCompareEqualByValue) {
  const TddCommonConfig a = TddCommonConfig::dm(kMu2);
  const TddCommonConfig b = TddCommonConfig::dm(kMu2);
  EXPECT_NE(&a, &b);
  EXPECT_TRUE(value_equal(a, b));
  EXPECT_EQ(a.value_hash(), b.value_hash());
}

TEST(DuplexIdentityTest, DistinctPatternsDiffer) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const TddCommonConfig du = TddCommonConfig::du(kMu2);
  const FddConfig fdd(kMu2);
  EXPECT_FALSE(value_equal(dm, du));
  EXPECT_FALSE(value_equal(dm, fdd));
  EXPECT_NE(dm.value_hash(), du.value_hash());
}

TEST(DuplexIdentityTest, NumerologyParticipates) {
  const MiniSlotConfig a(kMu2, 2);
  const MiniSlotConfig b(kMu1, 2);
  EXPECT_FALSE(value_equal(a, b));
}

// ---------------------------------------------------------------------------
// StackConfig canonical identity

TEST(StackConfigIdentityTest, EqualConfigsShareKeyAndCompareEqual) {
  const StackConfig a = StackConfig::testbed_grant_free(7);
  const StackConfig b = StackConfig::testbed_grant_free(7);
  // Distinct shared_ptr instances to equal duplex patterns: identity is by
  // value, never by pointer.
  EXPECT_NE(a.duplex.get(), b.duplex.get());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(StackConfigIdentityTest, EveryKnobParticipates) {
  const StackConfig base = StackConfig::testbed_grant_free(7);
  StackConfig seed = base;
  seed.seed = 8;
  StackConfig loss = base;
  loss.channel_loss = 0.01;
  StackConfig ues = base;
  ues.num_ues = 2;
  StackConfig duplex = base;
  duplex.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  for (const StackConfig* c : {&seed, &loss, &ues, &duplex}) {
    EXPECT_FALSE(base == *c);
    EXPECT_NE(base.canonical_key(), c->canonical_key());
  }
}

TEST(StackConfigIdentityTest, ReplacingDuplexWithEqualValueKeepsKey) {
  const StackConfig a = StackConfig::testbed_grant_free(7);
  StackConfig b = a;
  b.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1));
  ASSERT_NE(a.duplex.get(), b.duplex.get());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(StackConfigIdentityTest, DynamicTddKnobsParticipate) {
  // A dynamic-policy query must never hit a static-pattern cache entry: the
  // same stack with dynamic TDD switched on keys differently.
  const StackConfig base = StackConfig::testbed_grant_free(7);
  StackConfig dyn = base;
  dyn.dynamic_tdd.enabled = true;
  EXPECT_FALSE(base == dyn);
  EXPECT_NE(base.canonical_key(), dyn.canonical_key());

  // Every policy knob perturbs the key on its own.
  StackConfig guard = dyn;
  guard.dynamic_tdd.guard_slots = 2;
  StackConfig hold = dyn;
  hold.dynamic_tdd.hold_slots = 8;
  StackConfig ul_guard = dyn;
  ul_guard.dynamic_tdd.ul_guard_slots = 2;
  StackConfig preempt = dyn;
  preempt.dynamic_tdd.preemption = true;
  StackConfig xlink = dyn;
  xlink.dynamic_tdd.xlink_ul_bler = 0.1;
  for (const StackConfig* c : {&guard, &hold, &ul_guard, &preempt, &xlink}) {
    EXPECT_FALSE(dyn == *c);
    EXPECT_NE(dyn.canonical_key(), c->canonical_key());
  }

  // Equal policies still share a key, so dynamic queries cache normally.
  StackConfig same = base;
  same.dynamic_tdd.enabled = true;
  EXPECT_TRUE(dyn == same);
  EXPECT_EQ(dyn.canonical_key(), same.canonical_key());
}

// ---------------------------------------------------------------------------
// Service: analytic answers bit-identical to the offline path

TEST(FeasibilityServiceTest, BitIdenticalToOfflineForAllTable1Configs) {
  FeasibilityService service;
  auto cfgs = table1_configs();
  for (auto& cfg : cfgs) {
    const std::shared_ptr<const DuplexConfig> shared = std::move(cfg);
    for (AccessMode m :
         {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
      const WorstCaseResult direct = analyze_worst_case(*shared, m);
      const FeasibilityVerdict v =
          service.query(FeasibilityQuery::analytic(shared, m, kUrllcOneWayDeadline));
      EXPECT_TRUE(same_worst_case(v.worst_case, direct)) << shared->name();
      const bool direct_meets = direct.feasible && direct.worst <= kUrllcOneWayDeadline;
      EXPECT_EQ(v.meets_deadline, direct_meets) << shared->name();
    }
  }
}

TEST(FeasibilityServiceTest, WrapperMatchesServiceColumn) {
  FeasibilityService service;
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const FeasibilityColumn via_wrapper = evaluate_config(dm, kUrllcOneWayDeadline);
  const FeasibilityColumn via_service = service.evaluate_column(dm, kUrllcOneWayDeadline);
  ASSERT_EQ(via_wrapper.cells.size(), via_service.cells.size());
  for (std::size_t i = 0; i < via_wrapper.cells.size(); ++i) {
    EXPECT_TRUE(same_worst_case(via_wrapper.cells[i].worst_case, via_service.cells[i].worst_case));
    EXPECT_EQ(via_wrapper.cells[i].meets_deadline, via_service.cells[i].meets_deadline);
  }
}

TEST(FeasibilityServiceTest, CacheHitIdenticalToColdMiss) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  const FeasibilityQuery q = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
  const FeasibilityVerdict cold = service.query(q);
  EXPECT_FALSE(cold.analytic_cache_hit);
  const FeasibilityVerdict warm = service.query(q);
  EXPECT_TRUE(warm.analytic_cache_hit);
  EXPECT_TRUE(same_worst_case(cold.worst_case, warm.worst_case));
  EXPECT_EQ(cold.meets_deadline, warm.meets_deadline);
}

TEST(FeasibilityServiceTest, EqualValueDistinctPointersShareCacheEntry) {
  FeasibilityService service;
  const auto a = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  const auto b = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(a, AccessMode::GrantFreeUl));
  const FeasibilityVerdict v = service.query(FeasibilityQuery::analytic(b, AccessMode::GrantFreeUl));
  EXPECT_TRUE(v.analytic_cache_hit);  // keyed by value, not pointer
}

TEST(FeasibilityServiceTest, DeadlineDoesNotMissTheCache) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl, Nanos{500'000}));
  const FeasibilityVerdict v =
      service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl, Nanos{1'000'000}));
  EXPECT_TRUE(v.analytic_cache_hit);  // the worst case is deadline-free
}

TEST(FeasibilityServiceTest, BatchAndAsyncMatchSync) {
  FeasibilityService service;
  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  for (auto& c : table1_configs()) cfgs.emplace_back(std::move(c));
  QueryBatch batch;
  for (const auto& cfg : cfgs) {
    for (AccessMode m :
         {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
      batch.push_back(FeasibilityQuery::analytic(cfg, m));
    }
  }
  FeasibilityService fresh;
  std::vector<FeasibilityVerdict> sync;
  sync.reserve(batch.size());
  for (const FeasibilityQuery& q : batch) sync.push_back(fresh.query(q));

  const std::vector<FeasibilityVerdict> batched = service.query_batch(batch);
  ASSERT_EQ(batched.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_TRUE(same_worst_case(batched[i].worst_case, sync[i].worst_case));
    EXPECT_EQ(batched[i].meets_deadline, sync[i].meets_deadline);
  }

  std::future<FeasibilityVerdict> fut = service.query_async(batch[0]);
  EXPECT_TRUE(same_worst_case(fut.get().worst_case, sync[0].worst_case));

  std::promise<std::vector<FeasibilityVerdict>> done;
  auto done_fut = done.get_future();
  service.query_batch_async(
      batch, [&done](std::vector<FeasibilityVerdict> vs) { done.set_value(std::move(vs)); });
  const std::vector<FeasibilityVerdict> cb = done_fut.get();
  ASSERT_EQ(cb.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_TRUE(same_worst_case(cb[i].worst_case, sync[i].worst_case));
  }
}

// ---------------------------------------------------------------------------
// Service: sim-tail fallback

TEST(FeasibilityServiceTest, SimTailDeterministicAcrossServiceThreads) {
  double reference = 0.0;
  for (int threads : {1, 2, 8}) {
    FeasibilityService::Options o;
    o.sim_threads = threads;
    FeasibilityService service(o);
    const FeasibilityQuery q = FeasibilityQuery::with_tail(
        StackConfig::testbed_grant_free(7), AccessMode::GrantFreeUl, Nanos{5'000'000},
        /*replications=*/3, /*packets=*/8, /*quantile=*/0.99);
    const FeasibilityVerdict v = service.query(q);
    ASSERT_TRUE(v.tail.has_value());
    EXPECT_GT(v.tail->reliability.delivered, 0u);
    if (threads == 1) {
      reference = v.tail->quantile_latency_us;
    } else {
      EXPECT_EQ(v.tail->quantile_latency_us, reference) << "threads=" << threads;
    }
  }
}

TEST(FeasibilityServiceTest, SimTailWarmHitIdenticalToColdMiss) {
  FeasibilityService service;
  const FeasibilityQuery q = FeasibilityQuery::with_tail(
      StackConfig::testbed_grant_free(7), AccessMode::GrantFreeUl, Nanos{5'000'000},
      /*replications=*/2, /*packets=*/8, /*quantile=*/0.99);
  const FeasibilityVerdict cold = service.query(q);
  ASSERT_TRUE(cold.tail.has_value());
  EXPECT_FALSE(cold.tail_cache_hit);
  const FeasibilityVerdict warm = service.query(q);
  ASSERT_TRUE(warm.tail.has_value());
  EXPECT_TRUE(warm.tail_cache_hit);
  EXPECT_EQ(cold.tail->quantile_latency_us, warm.tail->quantile_latency_us);
  EXPECT_EQ(cold.tail->reliability.fraction_within, warm.tail->reliability.fraction_within);
}

TEST(FeasibilityServiceTest, TailSamplesAnswerAnyQuantile) {
  // Same stack, different quantile: second query must hit the tail cache
  // (the cache stores the merged sample set, not a verdict).
  FeasibilityService service;
  FeasibilityQuery q = FeasibilityQuery::with_tail(StackConfig::testbed_grant_free(7),
                                                   AccessMode::GrantFreeUl, Nanos{5'000'000},
                                                   /*replications=*/2, /*packets=*/8,
                                                   /*quantile=*/0.99);
  (void)service.query(q);
  q.tail->quantile = 0.5;
  q.deadline = Nanos{4'000'000};
  const FeasibilityVerdict v = service.query(q);
  EXPECT_TRUE(v.tail_cache_hit);
  EXPECT_EQ(v.tail->quantile, 0.5);
}

TEST(FeasibilityServiceTest, TailHitsEqualColdAnswersAtEveryQuantileAndDeadline) {
  // A tail hit reads the cached sorted sample set in place; each reading
  // must equal the one a fresh service computes on its cold miss.
  FeasibilityService warm;
  FeasibilityQuery q = FeasibilityQuery::with_tail(StackConfig::testbed_grant_based(9),
                                                   AccessMode::GrantBasedUl, Nanos{5'000'000},
                                                   /*replications=*/2, /*packets=*/8,
                                                   /*quantile=*/0.5);
  (void)warm.query(q);
  for (double quantile : {0.5, 0.9, 1.0}) {
    for (Nanos deadline : {Nanos{1'500'000}, Nanos{3'000'000}}) {
      q.tail->quantile = quantile;
      q.deadline = deadline;
      const FeasibilityVerdict hit = warm.query(q);
      FeasibilityService fresh;
      const FeasibilityVerdict cold = fresh.query(q);
      ASSERT_TRUE(hit.tail_cache_hit);
      ASSERT_FALSE(cold.tail_cache_hit);
      EXPECT_EQ(hit.tail->quantile_latency_us, cold.tail->quantile_latency_us);
      EXPECT_EQ(hit.tail->reliability.fraction_within, cold.tail->reliability.fraction_within);
      EXPECT_EQ(hit.tail->reliability.delivered, cold.tail->reliability.delivered);
      EXPECT_EQ(hit.tail->meets_deadline, cold.tail->meets_deadline);
      EXPECT_EQ(hit.meets_deadline, cold.meets_deadline);
    }
  }
}

// ---------------------------------------------------------------------------
// Service: LRU eviction never changes answers

TEST(FeasibilityServiceTest, EvictionNeverChangesAnswers) {
  FeasibilityService::Options tiny;
  tiny.analytic_cache_capacity = 2;  // 15 distinct keys fight over 2 slots
  FeasibilityService service(tiny);
  FeasibilityService unbounded;

  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  for (auto& c : table1_configs()) cfgs.emplace_back(std::move(c));
  for (int round = 0; round < 3; ++round) {
    for (const auto& cfg : cfgs) {
      for (AccessMode m :
           {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
        const FeasibilityQuery q = FeasibilityQuery::analytic(cfg, m);
        const FeasibilityVerdict thrashed = service.query(q);
        const FeasibilityVerdict cached = unbounded.query(q);
        EXPECT_TRUE(same_worst_case(thrashed.worst_case, cached.worst_case))
            << cfg->name() << " round " << round;
      }
    }
  }
  EXPECT_GT(service.stats().evictions, 0u);  // the tiny cache really thrashed
}

TEST(FeasibilityServiceTest, StatsCountQueries) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  const FeasibilityService::Stats s = service.stats();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.analytic_hits, 1u);
  EXPECT_EQ(s.analytic_misses, 1u);
  EXPECT_DOUBLE_EQ(s.analytic_hit_rate(), 0.5);
}

TEST(FeasibilityServiceTest, RejectsSweepInputsBelowOne) {
  // Grids 0 and -5 would sweep exactly what grid 1 sweeps under distinct
  // cache keys, and a zero-symbol transmission would come back "infeasible".
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  std::vector<FeasibilityQuery> bad;
  for (int grid : {0, -5}) {
    FeasibilityQuery q = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
    q.grid_per_symbol = grid;
    bad.push_back(q);
  }
  LatencyModelParams no_data;
  no_data.data_tx_symbols = 0;
  bad.push_back(FeasibilityQuery::analytic(cfg, AccessMode::Downlink, kUrllcOneWayDeadline,
                                           no_data));
  LatencyModelParams no_sr;
  no_sr.sr_symbols = 0;
  bad.push_back(FeasibilityQuery::analytic(cfg, AccessMode::GrantBasedUl, kUrllcOneWayDeadline,
                                           no_sr));
  const char* fields[] = {"grid_per_symbol", "grid_per_symbol", "data_tx_symbols", "sr_symbols"};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    try {
      (void)service.query(bad[i]);
      ADD_FAILURE() << fields[i] << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fields[i]), std::string::npos) << e.what();
    }
  }
  // A batch with one bad query among good ones is refused as a whole before
  // any job runs: nothing is answered, and the callback never fires.
  QueryBatch batch(6, FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  batch[4] = bad[2];
  EXPECT_THROW((void)service.query_batch(batch), std::invalid_argument);
  bool called = false;
  EXPECT_THROW(service.query_batch_async(batch, [&called](auto) { called = true; }),
               std::invalid_argument);
  EXPECT_FALSE(called);
  EXPECT_EQ(service.stats().queries, 0u);
  EXPECT_EQ(service.stats().analytic_misses, 0u);
}

TEST(FeasibilityServiceTest, RejectsGridAboveCap) {
  // A grid near INT_MAX would occupy a pool worker for hours: the query is
  // refused, and a batch holding one is refused before any job starts.
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  FeasibilityQuery huge = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
  huge.grid_per_symbol = std::numeric_limits<int>::max();
  try {
    (void)service.query(huge);
    ADD_FAILURE() << "grid_per_symbol = INT_MAX was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("grid_per_symbol"), std::string::npos) << e.what();
  }
  QueryBatch batch(6, FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  batch[5].grid_per_symbol = kMaxGridPerSymbol + 1;
  EXPECT_THROW((void)service.query_batch(batch), std::invalid_argument);
  bool called = false;
  EXPECT_THROW(service.query_batch_async(batch, [&called](auto) { called = true; }),
               std::invalid_argument);
  EXPECT_FALSE(called);
  EXPECT_EQ(service.stats().queries, 0u);
  EXPECT_EQ(service.stats().analytic_misses, 0u);
}

}  // namespace
}  // namespace u5g
