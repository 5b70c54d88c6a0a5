// Code pool: a VM that installs pooled bodies must be indistinguishable from
// one that compiles everything itself. Bit-identical RunResults over the
// SPEC, DaCapo and serving batch programs under both scenarios, the same
// verdicts under compile-inflation faults and compile-budget trips, no
// stale body left behind by a compile that threw, and the same tune when
// concurrent GA threads share one pool.
#include "vm/code_pool.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/decision_probe.hpp"
#include "opt/pipeline.hpp"
#include "resilience/guard.hpp"
#include "serving/workloads.hpp"
#include "support/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/tuner.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

constexpr int kIterations = 2;

/// A reproducible walk of 20 genomes: a few random bases (plus the
/// defaults), revisited in random order with an occasional one-gene
/// mutation, so consecutive runs share some methods' verdicts (pool hits)
/// and differ in others (misses).
std::vector<heur::InlineParams> genome_walk() {
  Pcg32 rng(20261019, 7);
  const auto& ranges = heur::param_ranges();
  const auto gene = [&](std::size_t k) {
    const auto span = static_cast<std::uint32_t>(ranges[k].hi - ranges[k].lo + 1);
    return ranges[k].lo + static_cast<int>(rng.bounded(span));
  };
  std::vector<heur::InlineParams::Array> bases = {heur::default_params().to_array()};
  for (int b = 0; b < 4; ++b) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) a[k] = gene(k);
    bases.push_back(a);
  }
  std::vector<heur::InlineParams> walk;
  for (int i = 0; i < 20; ++i) {
    heur::InlineParams::Array a =
        bases[rng.bounded(static_cast<std::uint32_t>(bases.size()))];
    if (rng.bounded(2) == 1) {
      const std::size_t k = rng.bounded(static_cast<std::uint32_t>(a.size()));
      a[k] = gene(k);
    }
    walk.push_back(heur::InlineParams::from_array(a));
  }
  return walk;
}

void expect_same_run(const vm::RunResult& want, const vm::RunResult& got,
                     const std::string& label) {
  EXPECT_EQ(want.iterations, got.iterations) << label;
  EXPECT_EQ(want.total_cycles, got.total_cycles) << label;
  EXPECT_EQ(want.running_cycles, got.running_cycles) << label;
  EXPECT_EQ(want.compile_cycles_all, got.compile_cycles_all) << label;
  EXPECT_EQ(want.methods_baseline_compiled, got.methods_baseline_compiled) << label;
  EXPECT_EQ(want.methods_opt_compiled, got.methods_opt_compiled) << label;
  EXPECT_EQ(want.recompilations, got.recompilations) << label;
  EXPECT_EQ(want.code_words_emitted, got.code_words_emitted) << label;
  EXPECT_EQ(want.opt_stats, got.opt_stats) << label;
}

std::uint64_t counter(const obs::Context& ctx, const std::string& name) {
  for (const auto& [n, v] : ctx.counter_values()) {
    if (n == name) return v;
  }
  return 0;
}

/// Runs the genome walk over every program of `suite`, each genome once in
/// a fresh pool-less VM and once in a VM sharing the program's pool.
void expect_pool_transparent(const std::vector<wl::Workload>& suite, vm::Scenario scenario) {
  const std::vector<heur::InlineParams> walk = genome_walk();
  vm::VmConfig cfg;
  cfg.scenario = scenario;
  const rt::MachineModel machine = rt::pentium4_model();
  obs::Context ctx(nullptr);  // counters only
  for (const wl::Workload& w : suite) {
    const opt::ProgramFacts facts(w.program);
    vm::CodePool pool(facts, opt::PipelineDesc::standard(), cfg.inline_limits);
    vm::VmConfig pooled = cfg;
    pooled.code_pool = &pool;
    pooled.obs = &ctx;
    for (std::size_t g = 0; g < walk.size(); ++g) {
      const std::string label = w.name + " " + vm::scenario_name(scenario) + " genome " +
                                std::to_string(g) + " " + walk[g].to_string();
      heur::JikesHeuristic h(walk[g]);
      vm::VirtualMachine fresh(w.program, machine, h, cfg);
      const vm::RunResult want = fresh.run(kIterations);
      vm::VirtualMachine reuse(w.program, machine, h, pooled);
      const vm::RunResult got = reuse.run(kIterations);
      expect_same_run(want, got, label);
      EXPECT_EQ(fresh.globals(), reuse.globals()) << label;
    }
  }
  // Both paths must actually have run, or the comparison proves nothing.
  EXPECT_GT(counter(ctx, "vm.code_pool.hit"), 0u);
  EXPECT_GT(counter(ctx, "vm.code_pool.miss"), 0u);
}

TEST(CodePool, PooledRunsMatchFreshVmsSpecOpt) {
  expect_pool_transparent(wl::make_suite("specjvm98"), vm::Scenario::kOpt);
}

TEST(CodePool, PooledRunsMatchFreshVmsSpecAdapt) {
  expect_pool_transparent(wl::make_suite("specjvm98"), vm::Scenario::kAdapt);
}

TEST(CodePool, PooledRunsMatchFreshVmsDacapoOpt) {
  expect_pool_transparent(wl::make_suite("dacapo+jbb"), vm::Scenario::kOpt);
}

TEST(CodePool, PooledRunsMatchFreshVmsDacapoAdapt) {
  expect_pool_transparent(wl::make_suite("dacapo+jbb"), vm::Scenario::kAdapt);
}

TEST(CodePool, PooledRunsMatchFreshVmsServingBatchOpt) {
  expect_pool_transparent(serving::make_serving_suite(serving::ServingMode::kBatch),
                          vm::Scenario::kOpt);
}

TEST(CodePool, PooledRunsMatchFreshVmsServingBatchAdapt) {
  expect_pool_transparent(serving::make_serving_suite(serving::ServingMode::kBatch),
                          vm::Scenario::kAdapt);
}

TEST(CodePool, FaultsAndCompileBudgetTripsMatchFreshVmsAndLeaveNoStaleBody) {
  const wl::Workload w = wl::make_workload("jess");
  const rt::MachineModel machine = rt::pentium4_model();
  const std::vector<heur::InlineParams> walk = genome_walk();

  vm::VmConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  {
    // A budget the default genome fits four times over: an inflated compile
    // always trips it, and so do the walk's most aggressive genomes.
    heur::JikesHeuristic h(heur::default_params());
    vm::VirtualMachine probe_vm(w.program, machine, h, cfg);
    cfg.budget.max_compile_cycles = 4 * probe_vm.run(kIterations).compile_cycles_all;
  }
  resilience::FaultPlan plan;
  plan.seed = 11;
  plan.rate = 0.02;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kCompileInflate);
  cfg.faults = &plan;

  const opt::PipelineDesc pipeline = opt::PipelineDesc::standard();
  const opt::ProgramFacts facts(w.program);
  vm::CodePool pool(facts, pipeline, cfg.inline_limits);
  vm::VmConfig pooled = cfg;
  pooled.code_pool = &pool;

  std::size_t tripped = 0;
  std::size_t passed = 0;
  for (std::size_t g = 0; g < walk.size(); ++g) {
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      const std::string label = "genome " + std::to_string(g) + " attempt " +
                                std::to_string(attempt) + " " + walk[g].to_string();
      heur::JikesHeuristic h(walk[g]);
      cfg.fault_key = pooled.fault_key = resilience::mix_keys(g, attempt);
      const resilience::GuardedRun want = resilience::guarded_run(w.program, machine, h, cfg,
                                                                  kIterations);
      const resilience::GuardedRun got = resilience::guarded_run(w.program, machine, h, pooled,
                                                                 kIterations);
      EXPECT_EQ(want.outcome.to_string(), got.outcome.to_string()) << label;
      if (want.outcome.ok()) {
        ++passed;
        expect_same_run(want.result, got.result, label);
      } else {
        ++tripped;
      }
    }
  }
  EXPECT_GT(tripped, 0u);
  EXPECT_GT(passed, 0u);

  // Every body left in the pool must be exactly what the optimizer emits for
  // some genome whose verdicts it is keyed by: a compile that threw parked
  // nothing, and no body sits under a key it was not compiled for.
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(w.program.num_methods()); ++id) {
    if (!pool.occupied(id)) continue;
    bool matched = false;
    for (const heur::InlineParams& p : walk) {
      const heur::JikesHeuristic h(p);
      const opt::DecisionProbe probe(facts, h, opt::cold_site, cfg.inline_limits);
      std::optional<vm::CodePool::Entry> parked = pool.take(id, probe.verdict_key(id));
      if (!parked) continue;
      opt::PassManager pm(w.program, h, opt::cold_site, pipeline, cfg.inline_limits);
      const opt::OptimizeResult fresh = pm.run(id);
      EXPECT_EQ(parked->code->body, fresh.body.method) << w.program.method(id).name();
      EXPECT_EQ(parked->stats, fresh.stats) << w.program.method(id).name();
      matched = true;
      break;
    }
    EXPECT_TRUE(matched) << "method " << w.program.method(id).name()
                         << " holds a body no genome of the walk keys";
  }
}

TEST(CodePool, ServesOnlyItsOwnProgramPipelineAndLimits) {
  const wl::Workload a = wl::make_workload("db");
  const wl::Workload b = wl::make_workload("db");
  const opt::ProgramFacts facts(a.program);
  const opt::PipelineDesc pipeline = opt::PipelineDesc::standard();
  const opt::InlineLimits limits;
  const vm::CodePool pool(facts, pipeline, limits);
  EXPECT_TRUE(pool.serves(a.program, pipeline, limits));
  EXPECT_FALSE(pool.serves(b.program, pipeline, limits));
  opt::PipelineDesc shorter = pipeline;
  shorter.max_iterations = 1;
  EXPECT_FALSE(pool.serves(a.program, shorter, limits));
  opt::InlineLimits tighter = limits;
  tighter.hard_depth_cap = 2;
  EXPECT_FALSE(pool.serves(a.program, pipeline, tighter));
}

// Concurrent VMs take and park bodies in one pool per program; the tune must
// not notice. Run under TSan this is also the pool's race check.
TEST(CodePool, ConcurrentTuneMatchesSerialTune) {
  const std::vector<wl::Workload> suite = {wl::make_workload("antlr"),
                                           wl::make_workload("pseudojbb")};
  tuner::EvalConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  ga::GaConfig ga = tuner::default_ga_config(3, 5);
  ga.population = 12;

  tuner::SuiteEvaluator serial(suite, cfg);
  const tuner::TuneResult one = tuner::tune(serial, tuner::Goal::kRunning, ga);
  ga.threads = 4;
  tuner::SuiteEvaluator parallel(suite, cfg);
  const tuner::TuneResult four = tuner::tune(parallel, tuner::Goal::kRunning, ga);

  EXPECT_EQ(one.best.to_array(), four.best.to_array());
  EXPECT_EQ(one.best_fitness, four.best_fitness);
  EXPECT_EQ(serial.evaluations_performed(), parallel.evaluations_performed());
  const tuner::EvalCacheSnapshot a = serial.snapshot();
  const tuner::EvalCacheSnapshot b = parallel.snapshot();
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    ASSERT_EQ(a.entries[i].signature, b.entries[i].signature);
    for (std::size_t k = 0; k < a.entries[i].results.size(); ++k) {
      const tuner::BenchmarkResult& x = a.entries[i].results[k];
      const tuner::BenchmarkResult& y = b.entries[i].results[k];
      EXPECT_EQ(x.running_cycles, y.running_cycles) << x.name;
      EXPECT_EQ(x.total_cycles, y.total_cycles) << x.name;
      EXPECT_EQ(x.compile_cycles, y.compile_cycles) << x.name;
    }
  }
}

}  // namespace
}  // namespace ith
