// Tests for the paper's heuristic (Figures 3 and 4), the parameter space
// (Table 1), and the knapsack-oracle comparator.
#include <cstring>

#include <gtest/gtest.h>

#include "bytecode/size_estimator.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "heuristics/knapsack.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace ith::heur {
namespace {

InlineRequest req(int callee_size, int depth, int caller_size, bool hot = false) {
  InlineRequest r;
  r.callee_size = callee_size;
  r.depth = depth;
  r.caller_size = caller_size;
  r.is_hot = hot;
  return r;
}

// --- InlineParams / Table 1 ---------------------------------------------------

TEST(InlineParams, DefaultsMatchPaperTable4) {
  const InlineParams d = default_params();
  EXPECT_EQ(d.callee_max_size, 23);
  EXPECT_EQ(d.always_inline_size, 11);
  EXPECT_EQ(d.max_inline_depth, 5);
  EXPECT_EQ(d.caller_max_size, 2048);
  EXPECT_EQ(d.hot_callee_max_size, 135);
}

TEST(InlineParams, ArrayRoundTrip) {
  InlineParams p;
  p.callee_max_size = 49;
  p.always_inline_size = 15;
  p.max_inline_depth = 10;
  p.caller_max_size = 60;
  p.hot_callee_max_size = 138;
  EXPECT_EQ(InlineParams::from_array(p.to_array()), p);
}

TEST(InlineParams, FlattenedKeyBridgeCoversEveryField) {
  // Everything keyed on the flattened form (GA genome, SuiteEvaluator
  // memoization) sizes itself from kNumParams; the sizeof static_assert in
  // the header refuses a sixth field until kNumParams grows. Here: each
  // struct field must map onto exactly one distinct array slot, so two
  // params differing in any field can never share a cache key.
  static_assert(std::tuple_size_v<InlineParams::Array> == InlineParams::kNumParams);
  EXPECT_EQ(param_ranges().size(), InlineParams::kNumParams);

  const InlineParams base = default_params();
  const InlineParams::Array flat = base.to_array();
  std::array<InlineParams, InlineParams::kNumParams> mutants{base, base, base,
                                                             base, base, base};
  mutants[0].callee_max_size += 1;
  mutants[1].always_inline_size += 1;
  mutants[2].max_inline_depth += 1;
  mutants[3].caller_max_size += 1;
  mutants[4].hot_callee_max_size += 1;
  mutants[5].partial_max_head_size += 1;

  std::array<bool, InlineParams::kNumParams> slot_hit{};
  for (std::size_t f = 0; f < mutants.size(); ++f) {
    const InlineParams::Array got = mutants[f].to_array();
    std::size_t changed = 0;
    std::size_t where = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != flat[i]) {
        ++changed;
        where = i;
      }
    }
    ASSERT_EQ(changed, 1u) << "field " << f << " must occupy exactly one key slot";
    EXPECT_FALSE(slot_hit[where]) << "field " << f << " aliases another field's slot";
    slot_hit[where] = true;
  }
}

TEST(InlineParams, RangesMatchPaperTable1) {
  const auto& r = param_ranges();
  EXPECT_STREQ(r[0].name, "CALLEE_MAX_SIZE");
  EXPECT_EQ(r[0].lo, 1);
  EXPECT_EQ(r[0].hi, 50);
  EXPECT_STREQ(r[2].name, "MAX_INLINE_DEPTH");
  EXPECT_EQ(r[2].hi, 15);
  EXPECT_STREQ(r[3].name, "CALLER_MAX_SIZE");
  EXPECT_EQ(r[3].hi, 4000);
  EXPECT_STREQ(r[4].name, "HOT_CALLEE_MAX_SIZE");
  EXPECT_EQ(r[4].hi, 400);
}

// table4_tuned_params prints one Table 1 row per range: a range added
// without a description would print garbage or abort.
TEST(InlineParams, EveryRangeHasADescription) {
  for (const auto& r : param_ranges()) {
    ASSERT_NE(r.description, nullptr) << r.name;
    EXPECT_GT(std::strlen(r.description), 0u) << r.name;
  }
}

TEST(InlineParams, SearchSpaceIsIntractablyLarge) {
  // The paper quotes ~3x10^11 possible settings; with the reconstructed
  // ALWAYS_INLINE_SIZE range the five-parameter space is ~3.6e10, and the
  // sixth dimension (PARTIAL_MAX_HEAD_SIZE, 0..40) multiplies it to ~1.5e12
  // — still the "exhaustive search is intractable" regime (see the comment
  // in inline_params.cpp).
  double card = 1.0;
  for (const auto& r : param_ranges()) card *= static_cast<double>(r.hi - r.lo + 1);
  EXPECT_GT(card, 1e10);
  EXPECT_LT(card, 1e13);
}

TEST(InlineParams, ClampPullsIntoRange) {
  InlineParams p;
  p.callee_max_size = 999;
  p.max_inline_depth = 0;
  p.caller_max_size = -5;
  const InlineParams c = clamp_to_ranges(p);
  EXPECT_EQ(c.callee_max_size, 50);
  EXPECT_EQ(c.max_inline_depth, 1);
  EXPECT_EQ(c.caller_max_size, 1);
}

// --- JikesHeuristic: Figure 3 test order --------------------------------------

TEST(JikesHeuristic, RejectsLargeCallee) {
  JikesHeuristic h;
  EXPECT_FALSE(h.should_inline(req(/*callee=*/24, 0, 10)));
  EXPECT_TRUE(h.should_inline(req(23, 0, 10)));
}

TEST(JikesHeuristic, AlwaysInlinesTinyCalleeRegardlessOfDepthAndCaller) {
  JikesHeuristic h;
  // calleeSize < ALWAYS_INLINE_SIZE short-circuits the depth & caller tests.
  EXPECT_TRUE(h.should_inline(req(10, /*depth=*/99, /*caller=*/999999)));
}

TEST(JikesHeuristic, DepthLimitApplies) {
  JikesHeuristic h;
  EXPECT_TRUE(h.should_inline(req(20, 5, 10)));
  EXPECT_FALSE(h.should_inline(req(20, 6, 10)));
}

TEST(JikesHeuristic, CallerSizeLimitApplies) {
  JikesHeuristic h;
  EXPECT_TRUE(h.should_inline(req(20, 0, 2048)));
  EXPECT_FALSE(h.should_inline(req(20, 0, 2049)));
}

TEST(JikesHeuristic, TestOrderMattersLargeCalleeBeatsTinyDepth) {
  // A callee over CALLEE_MAX_SIZE is rejected even at depth 0 in a tiny
  // caller — the first test fires before any other consideration.
  JikesHeuristic h;
  EXPECT_FALSE(h.should_inline(req(1000, 0, 1)));
}

TEST(JikesHeuristic, HotSiteUsesFigure4Only) {
  JikesHeuristic h;
  // Hot: only HOT_CALLEE_MAX_SIZE matters; depth/caller ignored.
  EXPECT_TRUE(h.should_inline(req(135, 99, 999999, /*hot=*/true)));
  EXPECT_FALSE(h.should_inline(req(136, 0, 1, /*hot=*/true)));
}

TEST(JikesHeuristic, CustomParamsRespected) {
  InlineParams p = default_params();
  p.callee_max_size = 5;
  p.always_inline_size = 1;
  JikesHeuristic h(p);
  EXPECT_FALSE(h.should_inline(req(6, 0, 10)));
  EXPECT_TRUE(h.should_inline(req(5, 0, 10)));
}

// --- Trivial heuristics ---------------------------------------------------------

TEST(TrivialHeuristics, NeverAndAlways) {
  NeverInlineHeuristic never;
  EXPECT_FALSE(never.should_inline(req(1, 0, 1)));
  AlwaysInlineHeuristic always(10);
  EXPECT_TRUE(always.should_inline(req(100000, 10, 100000)));
  EXPECT_FALSE(always.should_inline(req(1, 11, 1)));  // depth cap only
}

TEST(Factories, ProduceWorkingHeuristics) {
  EXPECT_TRUE(make_jikes()->should_inline(req(5, 0, 5)));
  EXPECT_FALSE(make_never()->should_inline(req(5, 0, 5)));
  EXPECT_TRUE(make_always()->should_inline(req(500, 0, 5)));
}

// --- Knapsack oracle -------------------------------------------------------------

TEST(Knapsack, SelectsWithinBudget) {
  const bc::Program p = ith::test::make_loop_program(10);
  KnapsackHeuristic h(0.10);
  h.prepare(p);
  EXPECT_GE(h.selected_sites(), 1u);  // the hot loop call should fit a 10% budget
}

TEST(Knapsack, ZeroBudgetSelectsNothing) {
  const bc::Program p = ith::test::make_loop_program(10);
  KnapsackHeuristic h(0.0);
  h.prepare(p);
  EXPECT_EQ(h.selected_sites(), 0u);
}

TEST(Knapsack, HugeBudgetSelectsAllSites) {
  const bc::Program p = ith::test::make_fib_program(5);
  KnapsackHeuristic h(100.0);
  h.prepare(p);
  std::size_t all_sites = 0;
  for (const auto& m : p.methods()) all_sites += m.call_sites().size();
  EXPECT_EQ(h.selected_sites(), all_sites);
}

TEST(Knapsack, OnlyDecidesOriginalDepth) {
  const bc::Program p = ith::test::make_loop_program(10);
  KnapsackHeuristic h(1.0);
  h.prepare(p);
  InlineRequest r;
  r.caller = p.entry();
  r.callee = p.find_method("square");
  r.call_pc = p.method(p.entry()).call_sites().front();
  r.depth = 1;  // sites created by inlining are not in the oracle's plan
  EXPECT_FALSE(h.should_inline(r));
}

TEST(Knapsack, RejectsNegativeBudget) { EXPECT_THROW(KnapsackHeuristic(-0.1), ith::Error); }

TEST(StaticLoopDepth, CountsEnclosingLoops) {
  const bc::Program p = ith::test::make_loop_program(10);
  const bc::Method& m = p.method(p.entry());
  const std::size_t call_pc = m.call_sites().front();
  EXPECT_EQ(static_loop_depth(m, call_pc), 1);       // inside the one loop
  EXPECT_EQ(static_loop_depth(m, m.size() - 1), 0);  // halt after the loop
}

}  // namespace
}  // namespace ith::heur
