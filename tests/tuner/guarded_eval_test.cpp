// Guarded evaluation in the SuiteEvaluator: failures become penalized (but
// finite) fitness, transient faults are retried, persistent offenders are
// quarantined, and a preloaded quarantine short-circuits without running.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/inline_params.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "support/hash.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/fitness.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

heur::InlineParams candidate_params() {
  heur::InlineParams p = heur::default_params();
  // The cache is keyed by decision signature, so merely tweaking a param is
  // not enough to get a fresh cache slot — the *decisions* must change.
  // Refusing every callee is guaranteed to differ from the defaults.
  p.callee_max_size = 0;
  p.always_inline_size = 0;
  return p;
}

tuner::SuiteEvaluator make_evaluator(const resilience::FaultPlan* plan, int retries) {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = 2;
  config.max_retries = retries;
  config.vm_config.faults = plan;
  return tuner::SuiteEvaluator(std::move(suite), config);
}

TEST(GuardedEvaluation, PersistentFaultYieldsPenaltyAndQuarantine) {
  resilience::FaultPlan plan;
  plan.rate = 1.0;  // every attempt faults — retries cannot save this genome
  plan.seed = 1;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  tuner::SuiteEvaluator eval = make_evaluator(&plan, /*retries=*/2);

  const tuner::SuiteEvaluator::Results baseline = eval.default_results();
  ASSERT_TRUE((*baseline)[0].outcome.ok());  // baseline always fault-suppressed

  const heur::InlineParams params = candidate_params();
  const tuner::SuiteEvaluator::Results results = eval.evaluate(params);
  ASSERT_EQ(results->size(), 1u);
  const tuner::BenchmarkResult& br = (*results)[0];
  EXPECT_EQ(br.outcome.kind, resilience::OutcomeKind::kTrap);
  EXPECT_EQ(br.outcome.trap, resilience::TrapKind::kInjected);
  EXPECT_EQ(br.attempts, 3);  // 1 try + 2 retries, all faulted
  EXPECT_EQ(br.total_cycles, 0u);

  // Fitness is the penalty constant: finite, decisively worse than any real
  // measurement, never NaN/inf, never a throw.
  EXPECT_EQ(tuner::benchmark_metric(tuner::Goal::kTotal, br, (*baseline)[0]),
            tuner::kFailurePenalty);
  EXPECT_DOUBLE_EQ(tuner::suite_fitness(tuner::Goal::kTotal, *results, *baseline),
                   tuner::kFailurePenalty);

  const std::vector<std::vector<int>> quarantined = eval.quarantined_keys();
  ASSERT_EQ(quarantined.size(), 1u);

  // A fresh evaluator preloaded with that quarantine (the resume path)
  // short-circuits: no run, zero attempts, penalized outcome.
  tuner::SuiteEvaluator resumed = make_evaluator(&plan, /*retries=*/2);
  resumed.preload_quarantine(quarantined);
  const tuner::SuiteEvaluator::Results shortcut = resumed.evaluate(params);
  EXPECT_EQ((*shortcut)[0].attempts, 0);
  EXPECT_FALSE((*shortcut)[0].outcome.ok());
  EXPECT_EQ((*shortcut)[0].outcome.detail, "quarantined");
  EXPECT_EQ(resumed.evaluations_performed(), 0u);
}

TEST(GuardedEvaluation, TransientFaultIsRetriedToSuccess) {
  const heur::InlineParams params = candidate_params();
  // Replicate the evaluator's fault-key derivation and pick a plan seed for
  // which attempt 0 faults and attempt 1 does not — the retry must clear it.
  // The salt is the decision signature (not the raw params), so that
  // signature-aliased params draw identical faults; the signature ignores
  // the fault plan, so a fault-free evaluator can compute it up front.
  const std::uint64_t salt = make_evaluator(nullptr, /*retries=*/0).signature_of(params);
  const std::uint64_t key0 =
      resilience::mix_keys(salt, resilience::mix_keys(fnv1a("db"), 0));
  const std::uint64_t key1 =
      resilience::mix_keys(salt, resilience::mix_keys(fnv1a("db"), 1));

  resilience::FaultPlan plan;
  plan.rate = 0.5;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  for (plan.seed = 1; plan.seed < 10000; ++plan.seed) {
    if (plan.should_inject(resilience::FaultSite::kEvaluator, key0) &&
        !plan.should_inject(resilience::FaultSite::kEvaluator, key1)) {
      break;
    }
  }
  ASSERT_LT(plan.seed, 10000u) << "no seed found (key derivation changed?)";

  tuner::SuiteEvaluator eval = make_evaluator(&plan, /*retries=*/2);
  const tuner::SuiteEvaluator::Results results = eval.evaluate(params);
  const tuner::BenchmarkResult& br = (*results)[0];
  EXPECT_TRUE(br.outcome.ok());
  EXPECT_EQ(br.attempts, 2);  // first attempt faulted, retry succeeded
  EXPECT_GT(br.total_cycles, 0u);
  EXPECT_TRUE(eval.quarantined_keys().empty());

  // Recovered measurements are bit-identical to a fault-free evaluation.
  tuner::SuiteEvaluator clean = make_evaluator(nullptr, /*retries=*/2);
  const tuner::SuiteEvaluator::Results want = clean.evaluate(params);
  EXPECT_EQ(br.total_cycles, (*want)[0].total_cycles);
  EXPECT_EQ(br.running_cycles, (*want)[0].running_cycles);
  EXPECT_EQ(br.compile_cycles, (*want)[0].compile_cycles);
}

TEST(GuardedEvaluation, BudgetFailureNoLongerThrows) {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = 1;
  config.vm_config.budget.max_instructions = 100;  // guaranteed to trip
  tuner::SuiteEvaluator eval(std::move(suite), config);

  const tuner::SuiteEvaluator::Results results = eval.evaluate(candidate_params());
  const tuner::BenchmarkResult& br = (*results)[0];
  EXPECT_EQ(br.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(br.outcome.budget, resilience::BudgetKind::kInstructions);
  EXPECT_EQ(br.attempts, 1);  // deterministic sim-domain failure: no retry
  EXPECT_EQ(eval.quarantined_keys().size(), 1u);
}

}  // namespace
}  // namespace ith
