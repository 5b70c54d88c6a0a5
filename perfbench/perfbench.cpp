// Time-to-tuned-heuristic benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--recorded FILE] [--scratch DIR] [--generations G]
//   perfbench --self-test
//
// --generations overrides the tune workloads' GA budget, for comparing a
// workload's layer mix with a shipped-budget tune (recordings then fail).
//
// Workloads (why each was chosen is recorded in BENCHMARK.json):
//   dacapo_tune  Figure 10's per-program running-time tune over DaCapo+JBB
//   serve        run_serving with online re-tuning over the serving trio
//   spec_tune    cold five-scenario Table 4 GA over specjvm98; runnable here
//                but not in BENCHMARK.json: a 50 s run holds only 10-16 of its
//                tunes, whose cost follows the GA's trajectory, so its time
//                spread 0.21-0.26 (IQR over median) across 10 seeds on a
//                4-vCPU Xeon guest
//
// Untraced (--trace 0): set-up is repeated and its median reported; the
// measured phase runs the workload's units round after round until
// --seconds are used, and reports the time of one round as the sum of each
// unit's mean. Tune workloads draw fresh GA seeds in every round after the
// first, so a run averages over several GA trajectories. Outputs are checked
// (determinism on a repeat, recorded winners, fast vs reference engine,
// serve records).
// Traced (--trace 1): one untraced pass, then the same work driven through
// the modules' public calls with spans around each, and the program's own
// obs host spans grafted beneath them; reports per-layer self time over
// that work, counts, and the wall time no span covers. A replay of the
// defaults and winners through the layers below the evaluator follows,
// timed apart. Both span sets are written out as JSON lines.
//
// The last stdout line is the result object; a failed check exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "metrics.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "opt/decision_probe.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interpreter.hpp"
#include "serving/driver.hpp"
#include "serving/server.hpp"
#include "serving/workloads.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace ith;
using perfbench::Metrics;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::Tracer;

// GA generations; every other GA setting comes from the shipped
// tuner::default_ga_config. dacapo_tune runs the harnesses' shipped budget
// (bench/harness.cpp: 40, stopped early by the config's patience of 10).
// A shipped-budget cold Table 4 tune takes 24-38 s on a 4-vCPU Xeon guest,
// too long to repeat within a run, and its real-evaluation count varies
// 1.5x between seeds; six generations come close to its probe share of
// tune time (18%, against 20%) and most of its signature collapse (params
// over signatures 2.7, against 3.4 at 40 and 1.7 at two) at about 60% of
// the cost.
constexpr int kSpecGenerations = 6;
constexpr int kDacapoGenerations = 40;
// Untraced set-up is repeated at least this often and for at least this
// long before the measured phase, and once after each of its rounds; the
// median is reported.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;

/// Independent GA seeds per round, derived from --seed: a DaCapo program's
/// count of distinct decision signatures (real suite runs) differs widely
/// between seeds, so a round tunes under several seeds and its time averages
/// over their trajectories. spec_tune's five columns already average five
/// GA runs per round.
int sub_seeds(const std::string& workload) { return workload == "dacapo_tune" ? 5 : 1; }

std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return seed + 7919 * static_cast<std::uint64_t>(k);
}

/// The GA seed of sub-seed `k` and Table 4 column `column`: per-column
/// seeds are seed + 1000 * column, as bench/table4_tuned_params derives
/// them. DaCapo jobs are all column 0.
std::uint64_t ga_seed(std::uint64_t seed, int k, int column) {
  return sub_seed(seed, k) + 1000 * static_cast<std::uint64_t>(column);
}

const char* const kWorkloads[] = {"spec_tune", "dacapo_tune", "serve"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string recorded;
  std::string scratch = ".";
  /// GA generations for the tune workloads; 0 keeps the benchmark's.
  int generations = 0;
  bool self_test = false;
};

/// Counts checked operations and failed checks; failures go to stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
  }
};

/// The process's peak resident set (VmHWM). getrusage's ru_maxrss would
/// also count the parent's resident set at fork, which exec carries over.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(const std::vector<double>& xs) { return perfbench::nearest_rank(xs, 0.5); }

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The host-clock spans the program already publishes through obs, kept
/// from the thread that drives the workload: suite evaluations, benchmark
/// runs, decision probes, optimizer compiles and serving epochs, renamed
/// into the benchmark's layers. Grafted under the benchmark's own spans,
/// they attribute the time inside evaluate() and serve_workload(). Spans
/// of the serving pool's threads are dropped: their wall time lies inside
/// the driving thread's serving epoch.
class ProgramSpans final : public obs::TraceSink {
 public:
  /// The categories whose spans are kept.
  static constexpr std::uint32_t kCategories =
      static_cast<std::uint32_t>(obs::Category::kEval) |
      static_cast<std::uint32_t>(obs::Category::kOpt) |
      static_cast<std::uint32_t>(obs::Category::kServe);

  void write(const obs::Event& e) override {
    if (e.phase != obs::Phase::kComplete || e.domain != obs::Domain::kHost ||
        std::this_thread::get_id() != owner_) {
      return;
    }
    const std::string_view name = e.name;
    for (const auto& [from, to] : kNames) {
      if (name == from) {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({to, e.ts, e.dur});
        return;
      }
    }
  }

  /// The spans on the benchmark's clock, in the order they ended; `epoch`
  /// is now_s() read just before the obs::Context was created.
  std::vector<Tracer::Span> spans(double epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Tracer::Span> out;
    out.reserve(spans_.size());
    for (const Recorded& r : spans_) {
      const double start = epoch + static_cast<double>(r.ts) * 1e-6;
      out.push_back({r.name, start, start + static_cast<double>(r.dur) * 1e-6, -1});
    }
    return out;
  }

 private:
  static constexpr std::pair<std::string_view, const char*> kNames[] = {
      {"eval.suite", "tuner.eval_suite"}, {"eval.bench", "vm.run"},
      {"sig.probe", "opt.probe"},         {"opt.optimize", "opt.compile"},
      {"serve.workload", "serving.workload"}, {"serve.epoch", "serving.epoch"}};
  struct Recorded {
    const char* name;
    std::uint64_t ts;
    std::uint64_t dur;
  };
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  std::vector<Recorded> spans_;
};

// ---------------------------------------------------------------- tuning --

struct Table4Column {
  const char* label;
  vm::Scenario scenario;
  tuner::Goal goal;
  bool ppc;
};

/// Table 4's five tuned columns in paper order.
const Table4Column kTable4[] = {
    {"Adapt", vm::Scenario::kAdapt, tuner::Goal::kBalance, false},
    {"Opt:Bal", vm::Scenario::kOpt, tuner::Goal::kBalance, false},
    {"Opt:Tot", vm::Scenario::kOpt, tuner::Goal::kTotal, false},
    {"Adapt (PPC)", vm::Scenario::kAdapt, tuner::Goal::kBalance, true},
    {"Opt:Bal (PPC)", vm::Scenario::kOpt, tuner::Goal::kBalance, true},
};

struct Job {
  std::string label;
  const std::vector<wl::Workload>* suite = nullptr;
  tuner::EvalConfig cfg;
  tuner::Goal goal = tuner::Goal::kBalance;
  ga::GaConfig ga;
  /// Default-parameter results, computed at set-up.
  const tuner::EvalCacheSnapshot* baseline = nullptr;
  int sub_seed = 0;
  int column = 0;
};

struct JobResult {
  heur::InlineParams best;
  double fitness = 0.0;
  std::uint64_t real_evals = 0;
  std::size_t params_seen = 0;
  std::size_t signatures_seen = 0;
  std::size_t ga_evaluations = 0;
  std::size_t ga_memo_hits = 0;
  std::uint64_t guarded_runs = 0;
  std::uint64_t failed_runs = 0;
  std::size_t quarantined = 0;

  bool same_outcome(const JobResult& o) const {
    return best.to_array() == o.best.to_array() && fitness == o.fitness &&
           real_evals == o.real_evals && params_seen == o.params_seen &&
           signatures_seen == o.signatures_seen;
  }
};

JobResult result_of(const tuner::SuiteEvaluator& ev, const ga::GaResult& ga) {
  JobResult r;
  r.best = tuner::params_from_genome(ga.best);
  r.fitness = ga.best_fitness;
  r.real_evals = ev.evaluations_performed();
  r.params_seen = ev.params_seen();
  r.signatures_seen = ev.signatures_seen();
  r.ga_evaluations = ga.evaluations;
  r.ga_memo_hits = ga.cache_hits;
  const tuner::EvalCacheSnapshot snap = ev.snapshot();
  for (const auto& e : snap.entries) {
    for (const tuner::BenchmarkResult& br : e.results) {
      r.guarded_runs += static_cast<std::uint64_t>(std::max(br.attempts, 1));
      if (!br.outcome.ok()) ++r.failed_runs;
    }
  }
  r.quarantined = snap.quarantined.size();
  return r;
}

struct TuneSetup {
  std::vector<std::vector<wl::Workload>> suites;
  /// One default-parameter baseline per (suite, machine, scenario).
  std::map<std::tuple<const void*, std::string, vm::Scenario>, tuner::EvalCacheSnapshot> baselines;
  std::vector<Job> jobs;
};

/// Builds the suites and jobs of a tuning workload and computes the
/// default-parameter baselines they share, publishing to `obs` if given.
TuneSetup build_tune_setup(const Options& o, Tracer* tr, obs::Context* obs = nullptr) {
  TuneSetup ts;
  const bool spec = o.workload != "dacapo_tune";
  {
    Scope s(tr, "workloads.build");
    if (spec) {
      ts.suites.push_back(wl::make_suite("specjvm98"));
    } else {
      for (const std::string& name : wl::dacapo_names()) {
        ts.suites.push_back({wl::make_workload(name)});
      }
    }
  }
  for (int k = 0; k < sub_seeds(o.workload); ++k) {
    const std::string suffix = k == 0 ? "" : "/s" + std::to_string(k);
    if (spec) {
      for (std::size_t i = 0; i < std::size(kTable4); ++i) {
        const Table4Column& col = kTable4[i];
        Job job;
        job.label = col.label + suffix;
        job.sub_seed = k;
        job.column = static_cast<int>(i);
        job.suite = &ts.suites[0];
        job.cfg.machine = col.ppc ? rt::ppc_g4_model() : rt::pentium4_model();
        job.cfg.scenario = col.scenario;
        job.goal = col.goal;
        job.ga = tuner::default_ga_config(o.generations ? o.generations : kSpecGenerations,
                                            ga_seed(o.seed, k, job.column));
        ts.jobs.push_back(std::move(job));
      }
    } else {
      // Figure 10: x86, Opt scenario, running-time goal, one GA per program,
      // every program with the same GA seed.
      for (const auto& suite : ts.suites) {
        Job job;
        job.label = suite[0].name + suffix;
        job.sub_seed = k;
        job.suite = &suite;
        job.cfg.machine = rt::pentium4_model();
        job.cfg.scenario = vm::Scenario::kOpt;
        job.goal = tuner::Goal::kRunning;
        job.ga = tuner::default_ga_config(o.generations ? o.generations : kDacapoGenerations,
                                            ga_seed(o.seed, k, 0));
        ts.jobs.push_back(std::move(job));
      }
    }
  }
  for (Job& job : ts.jobs) {
    auto it = ts.baselines.find({job.suite, job.cfg.machine.name, job.cfg.scenario});
    if (it == ts.baselines.end()) {
      Scope s(tr, "tuner.default");
      tuner::EvalConfig cfg = job.cfg;
      cfg.obs = obs;
      tuner::SuiteEvaluator ev(*job.suite, cfg);
      ev.default_results();
      it = ts.baselines.emplace(std::make_tuple(job.suite, job.cfg.machine.name, job.cfg.scenario),
                                ev.snapshot())
               .first;
    }
    job.baseline = &it->second;
  }
  return ts;
}

/// `job` as it runs in round `round` of the measured phase: round 0 is the
/// recorded one, and every later round takes the next sub-seeds.
Job in_round(const Job& job, const Options& o, int round) {
  Job j = job;
  const int k = job.sub_seed + round * sub_seeds(o.workload);
  j.ga.seed = ga_seed(o.seed, k, job.column);
  return j;
}

/// One job exactly as a user runs it: a fresh evaluator holding only the
/// default baseline, and tuner::tune with default_ga_config. Returns the
/// result and sets `*seconds` to the timed part.
JobResult run_job(const Job& job, double* seconds) {
  const double t0 = now_s();
  tuner::SuiteEvaluator ev(*job.suite, job.cfg);
  ev.restore(*job.baseline);
  const tuner::TuneResult r = tuner::tune(ev, job.goal, job.ga);
  *seconds = now_s() - t0;
  return result_of(ev, r.ga);
}

/// Fast and reference engines must agree on every iteration's ExecStats.
void check_engines(const Job& job, const heur::InlineParams& params, Checks& checks) {
  for (const wl::Workload& w : *job.suite) {
    const auto run = [&](rt::EngineKind engine) {
      vm::VmConfig vc = job.cfg.vm_config;
      vc.scenario = job.cfg.scenario;
      vc.interp_options.engine = engine;
      heur::JikesHeuristic h(params);
      vm::VirtualMachine machine(w.program, job.cfg.machine, h, vc);
      return machine.run(job.cfg.iterations);
    };
    const vm::RunResult fast = run(rt::EngineKind::kFast);
    const vm::RunResult ref = run(rt::EngineKind::kReference);
    bool same = fast.iterations.size() == ref.iterations.size() &&
                fast.total_cycles == ref.total_cycles &&
                fast.running_cycles == ref.running_cycles;
    for (std::size_t i = 0; same && i < fast.iterations.size(); ++i) {
      same = fast.iterations[i].exec == ref.iterations[i].exec;
    }
    checks.expect(same, "fast and reference engines differ: " + job.label + "/" + w.name +
                            " params " + params.to_string());
  }
}

// ------------------------------------------------- layers below the tuner --

/// Hands the interpreter bodies compiled ahead of the run.
class PrecompiledSource final : public rt::CodeSource {
 public:
  explicit PrecompiledSource(const std::vector<std::unique_ptr<rt::CompiledMethod>>& code)
      : code_(code) {}
  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    return *code_.at(static_cast<std::size_t>(id));
  }

 private:
  const std::vector<std::unique_ptr<rt::CompiledMethod>>& code_;
};

struct ReplayTotals {
  std::uint64_t vm_runs = 0;
  std::uint64_t compile_cycles = 0;
  std::uint64_t opt_compiles = 0;
  std::uint64_t recompilations = 0;
  std::uint64_t compiles = 0;
  std::uint64_t code_words = 0;
  std::uint64_t insns = 0;
  std::uint64_t icache_probes = 0;
  std::uint64_t icache_misses = 0;
};

/// Replays one parameter vector on one program through the layers below
/// the evaluator: VirtualMachine::run; decision_signature; PassManager::run
/// per method (all methods, cold profile, as the Opt scenario compiles);
/// and rt::Interpreter::run over those bodies.
void replay(Tracer& tr, const wl::Workload& w, const tuner::EvalConfig& cfg,
            const heur::InlineParams& params, ReplayTotals& t) {
  heur::JikesHeuristic h(params);
  vm::VmConfig vc = cfg.vm_config;
  vc.scenario = cfg.scenario;
  {
    Scope s(&tr, "vm.run");
    vm::VirtualMachine machine(w.program, cfg.machine, h, vc);
    const vm::RunResult rr = machine.run(cfg.iterations);
    ++t.vm_runs;
    t.compile_cycles += rr.compile_cycles_all;
    t.opt_compiles += rr.methods_opt_compiled;
    t.recompilations += rr.recompilations;
  }
  {
    Scope s(&tr, "opt.probe");
    opt::SignatureOptions so;
    so.adaptive = cfg.scenario == vm::Scenario::kAdapt;
    opt::decision_signature(w.program, params, vc.inline_limits, so);
  }
  opt::PassManager pm(w.program, h, opt::cold_site,
                      vc.pipeline.value_or(opt::PipelineDesc::standard()), vc.inline_limits);
  std::vector<std::unique_ptr<rt::CompiledMethod>> code(w.program.num_methods());
  std::uint64_t addr = 0x10000;
  const std::uint64_t line = cfg.machine.icache_line_bytes;
  for (std::size_t m = 0; m < code.size(); ++m) {
    Scope s(&tr, "opt.compile");
    opt::OptimizeResult r = pm.run(static_cast<bc::MethodId>(m));
    auto cm = std::make_unique<rt::CompiledMethod>();
    cm->body = std::move(r.body.method);
    cm->tier = rt::Tier::kOpt;
    cm->method_id = static_cast<bc::MethodId>(m);
    cm->origin.reserve(r.body.meta.size());
    for (const opt::InstrMeta& meta : r.body.meta) {
      cm->origin.emplace_back(meta.origin_method, meta.origin_pc);
    }
    cm->finalize();
    addr = (addr + line - 1) / line * line;
    cm->code_base = addr;
    addr += static_cast<std::uint64_t>(cm->size_words()) * cfg.machine.bytes_per_word;
    ++t.compiles;
    t.code_words += cm->size_words();
    code[m] = std::move(cm);
  }
  PrecompiledSource source(code);
  rt::ICache icache(cfg.machine.icache_bytes, cfg.machine.icache_line_bytes,
                    cfg.machine.icache_assoc);
  rt::Interpreter interp(w.program, cfg.machine, source, &icache, vc.interp_options);
  for (int it = 0; it < cfg.iterations; ++it) {
    Scope s(&tr, "runtime.run");
    interp.reset_globals();
    const rt::ExecStats st = interp.run();
    t.insns += st.instructions;
    t.icache_probes += st.icache_probes;
    t.icache_misses += st.icache_misses;
  }
}

// ------------------------------------------------------------ recordings --

/// Recorded winners and fitness for one (workload, seed), when present.
struct Recording {
  std::vector<std::string> winners;
  double tuned_fitness = 0.0;
};

std::optional<Recording> load_recording(const Options& o) {
  if (o.recorded.empty()) return std::nullopt;
  std::ifstream in(o.recorded);
  if (!in) throw std::runtime_error("cannot open recorded file " + o.recorded);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = parse_json(ss.str());
  const JsonValue* wls = doc.find("workloads");
  const JsonValue* per_wl = wls ? wls->find(o.workload) : nullptr;
  const JsonValue* rec = per_wl ? per_wl->find(std::to_string(o.seed)) : nullptr;
  if (rec == nullptr) return std::nullopt;
  Recording r;
  for (const JsonValue& w : rec->find("winners")->items) r.winners.push_back(w.as_string());
  r.tuned_fitness = rec->find("tuned_fitness")->as_number();
  return r;
}

void check_recording(const Options& o, const std::vector<std::string>& winners, double fitness,
                     Checks& checks, std::ostringstream& detail) {
  const std::optional<Recording> rec = load_recording(o);
  detail << ", \"recorded_check\": " << (rec ? "true" : "false");
  if (!rec) return;
  checks.expect(rec->winners == winners, "winners differ from the recording for seed " +
                                             std::to_string(o.seed));
  checks.expect(rec->tuned_fitness == fitness,
                "tuned_fitness " + perfbench::format_double(fitness) +
                    " differs from the recording " + perfbench::format_double(rec->tuned_fitness));
}

double geomean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

double mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// The measured phase: the units in order, round after round, until the
/// next unit is predicted (by its mean so far) to end past `seconds`; the
/// first `min_rounds` rounds always run whole. `unit(i, round)` runs unit i
/// and returns its timed seconds; `after_round` runs after each whole
/// round. Returns each unit's samples.
std::vector<std::vector<double>> measure_rounds(std::size_t units, double seconds, int min_rounds,
                                                const std::function<double(std::size_t, int)>& unit,
                                                const std::function<void()>& after_round) {
  std::vector<std::vector<double>> samples(units);
  const double start = now_s();
  for (int round = 0;; ++round) {
    for (std::size_t i = 0; i < units; ++i) {
      if (round >= min_rounds && now_s() - start + mean(samples[i]) > seconds) return samples;
      samples[i].push_back(unit(i, round));
    }
    after_round();
  }
}

/// wall_s: the time of one round, as the sum over units of each unit's
/// mean. Other tenants of the host slow this work by up to 1.8x, in spells
/// of tens of seconds, and slow spells outnumber fast ones: a unit's
/// fastest round depends on whether a run caught a fast spell. Over three
/// minutes of repeats of one tune, the means of 30-second windows spread
/// about half as much as their minimums.
double mean_of_rounds(const std::vector<std::vector<double>>& samples) {
  double total = 0.0;
  for (const auto& s : samples) total += mean(s);
  return total;
}

/// The same sum over each unit's fastest round, reported beside it.
double best_of_rounds(const std::vector<std::vector<double>>& samples) {
  double total = 0.0;
  for (const auto& s : samples) total += *std::min_element(s.begin(), s.end());
  return total;
}

std::string samples_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ", " : "") + perfbench::format_double(xs[i]);
  }
  return out + "]";
}

std::string winners_json(const std::vector<std::string>& winners) {
  std::string out = "[";
  for (std::size_t i = 0; i < winners.size(); ++i) {
    out += (i ? ", " : "") + json_str(winners[i]);
  }
  return out + "]";
}

// ------------------------------------------------------- per-layer names --

// The standard pipeline's passes. Listed rather than read from
// opt::PipelineDesc so the metric set stays fixed: a deleted pass reads 0.
const char* const kPasses[] = {"inline",  "tail_recursion", "fold", "algebraic", "compare_fusion",
                               "branch_simplify", "copyprop", "dce", "unreachable"};
// Layers with spans in the workload's own work. The interpreter runs inside
// VirtualMachine::run and publishes no span there, so its time is part of
// the vm share; the runtime layer is timed in the replay.
const char* const kLayers[] = {"ga", "tuner", "opt", "vm", "serving", "workloads", "obs"};

/// Every per-layer metric, zero until measured: each traced run prints all
/// of them, so a layer a workload does not exercise reads 0.
void declare_per_layer(Metrics& m) {
  for (const char* n : {"ga.self_s", "tuner.probe_s", "tuner.eval_s", "tuner.hit_s",
                        "tuner.fitness_s", "tuner.cache_restore_s", "tuner.default_s",
                        "opt.probe_s", "opt.compile_s", "vm.run_s", "runtime.run_s",
                        "serving.serve_s", "serving.calibrate_s", "workloads.build_s",
                        "obs.write_s", "obs.traced_wall_s", "obs.uncovered_s", "obs.replay_s"}) {
    m.set(n, 0, "s");
  }
  for (const char* n : {"ga.evaluations", "ga.memo_hits", "tuner.probes", "tuner.params_seen",
                        "tuner.signatures_seen", "tuner.real_evals", "tuner.hits",
                        "opt.probes", "opt.probe_inexact", "opt.compiles", "opt.code_words",
                        "vm.runs", "vm.opt_compiles", "vm.recompilations", "runtime.insns",
                        "runtime.icache_probes", "runtime.icache_misses", "serving.requests",
                        "serving.installs", "serving.retunes_considered",
                        "serving.retunes_installed", "serving.slo_violations",
                        "serving.faulted_requests", "resilience.guarded_runs",
                        "resilience.failed_runs", "resilience.retries", "resilience.quarantined",
                        "obs.spans"}) {
    m.set(n, 0, "count");
  }
  m.set_summary("tuner.probe_ms", {}, "ms");
  m.set_summary("tuner.eval_ms", {}, "ms");
  for (const char* n : {"tuner.collapse_ratio", "opt.probe_inexact_ratio",
                        "runtime.icache_miss_ratio", "serving.slo_violation_ratio",
                        "resilience.failed_ratio", "obs.trace_overhead", "obs.uncovered_ratio"}) {
    m.set(n, 0, "ratio");
  }
  m.set("vm.compile_cycles", 0, "cycles");
  m.set("runtime.dispatch_ns_per_insn", 0, "ns");
  m.set("serving.host_us_per_request", 0, "us");
  for (const char* n : {"serving.queue_cycles.p99", "serving.p99_cycles.kv_server",
                        "serving.p99_cycles.query_dispatch", "serving.p99_cycles.text_pipe"}) {
    m.set(n, 0, "cycles");
  }
  for (const char* p : kPasses) {
    m.set(std::string("opt.pass.") + p + ".runs", 0, "count");
    m.set(std::string("opt.pass.") + p + ".changes", 0, "count");
  }
  for (const char* l : kLayers) m.set(std::string("share.") + l, 0, "ratio");
}

/// Span times of the workload's own work (set-up and the tune or serve
/// calls, with the program's spans grafted in), each layer's self time as
/// a share of the traced wall, and the wall no top-level span covers.
/// Calls into a module (`*_s` of tuner.probe, tuner.eval, tuner.hit,
/// tuner.default, serving.serve, serving.calibrate, workloads.build)
/// include what they call; the rest are self times.
void report_spans(const Tracer& tr, double traced_wall, Metrics& m) {
  const std::map<std::string, double> self = tr.self_time();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  m.set("ga.self_s", self_of("ga.run"), "s");
  m.set("tuner.probe_s", tr.total("tuner.probe"), "s");
  m.set("tuner.eval_s", tr.total("tuner.eval_miss"), "s");
  m.set("tuner.hit_s", tr.total("tuner.eval_hit"), "s");
  m.set("tuner.fitness_s", self_of("tuner.fitness"), "s");
  m.set("tuner.cache_restore_s", self_of("tuner.cache_restore"), "s");
  m.set("tuner.default_s", tr.total("tuner.default"), "s");
  m.set("opt.probe_s", self_of("opt.probe"), "s");
  m.set("opt.compile_s", self_of("opt.compile"), "s");
  m.set("vm.run_s", self_of("vm.run"), "s");
  m.set("serving.serve_s", tr.total("serving.serve_workload"), "s");
  m.set("serving.calibrate_s", tr.total("serving.calibrate"), "s");
  m.set("workloads.build_s", tr.total("workloads.build"), "s");
  m.set("obs.write_s", self_of("obs.write"), "s");
  const std::map<std::string, double> layers = tr.layer_self_time();
  for (const char* l : kLayers) {
    const auto it = layers.find(l);
    m.set(std::string("share.") + l,
          perfbench::ratio(it == layers.end() ? 0.0 : it->second, traced_wall), "ratio");
  }
  const double uncovered = std::max(0.0, traced_wall - tr.top_level_time());
  m.set("obs.traced_wall_s", traced_wall, "s");
  m.set("obs.uncovered_s", uncovered, "s");
  m.set("obs.uncovered_ratio", perfbench::ratio(uncovered, traced_wall), "ratio");
  m.set("obs.spans", static_cast<double>(tr.spans().size()), "count");
}

void report_counters(const obs::Context& ctx, Metrics& m) {
  std::map<std::string, std::uint64_t> c;
  for (const auto& [name, value] : ctx.counter_values()) c[name] = value;
  const auto get = [&](const std::string& n) {
    const auto it = c.find(n);
    return static_cast<double>(it == c.end() ? 0 : it->second);
  };
  m.set("opt.probes", get("sig.probes"), "count");
  m.set("opt.probe_inexact", get("sig.overflow"), "count");
  m.set("opt.probe_inexact_ratio", perfbench::ratio(get("sig.overflow"), get("sig.probes")),
        "ratio");
  m.set("resilience.retries", get("resil.retries"), "count");
  for (const char* p : kPasses) {
    const std::string base = std::string("opt.pass.") + p;
    m.set(base + ".runs", get(base + ".runs"), "count");
    m.set(base + ".changes", get(base + ".changes"), "count");
  }
}

/// The replay's counts and runtime timing; `tr` holds the replay's spans.
void report_replay(const Tracer& tr, double replay_s, const ReplayTotals& t, Metrics& m) {
  m.set("obs.replay_s", replay_s, "s");
  m.set("vm.runs", static_cast<double>(t.vm_runs), "count");
  m.set("vm.compile_cycles", static_cast<double>(t.compile_cycles), "cycles");
  m.set("vm.opt_compiles", static_cast<double>(t.opt_compiles), "count");
  m.set("vm.recompilations", static_cast<double>(t.recompilations), "count");
  m.set("opt.compiles", static_cast<double>(t.compiles), "count");
  m.set("opt.code_words", static_cast<double>(t.code_words), "count");
  m.set("runtime.insns", static_cast<double>(t.insns), "count");
  m.set("runtime.icache_probes", static_cast<double>(t.icache_probes), "count");
  m.set("runtime.icache_misses", static_cast<double>(t.icache_misses), "count");
  m.set("runtime.icache_miss_ratio",
        perfbench::ratio(static_cast<double>(t.icache_misses), static_cast<double>(t.icache_probes)),
        "ratio");
  const double run_s = tr.total("runtime.run");
  m.set("runtime.run_s", run_s, "s");
  m.set("runtime.dispatch_ns_per_insn", perfbench::ratio(run_s * 1e9, static_cast<double>(t.insns)),
        "ns");
}

/// Writes the spans as JSON lines (name, start and end in seconds from the
/// first span, parent index).
void write_spans(const Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<Tracer::Span>& spans = tr.spans();
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << "{\"id\": " << i << ", \"name\": " << json_str(spans[i].name)
        << ", \"start\": " << perfbench::format_double(spans[i].start - t0)
        << ", \"end\": " << perfbench::format_double(spans[i].end - t0)
        << ", \"parent\": " << spans[i].parent << "}\n";
  }
}

// --------------------------------------------------------- tune workloads --

struct RunOutput {
  Metrics metrics;
  Checks checks;
  std::ostringstream detail;
};

/// setup_s: the median of set-up repetitions, at least kSetupReps of them
/// and for at least kSetupSeconds before the measured phase, then one after
/// each of its rounds, so that the median spans the host's drift over the
/// whole run rather than its first second.
class SetupTimes {
 public:
  explicit SetupTimes(std::function<void()> setup) : setup_(std::move(setup)) {
    const double start = now_s();
    while (reps_.size() < kSetupReps || now_s() - start < kSetupSeconds) once();
  }
  void once() {
    const double t0 = now_s();
    setup_();
    reps_.push_back(now_s() - t0);
  }
  double median_s() const { return median(reps_); }

 private:
  std::function<void()> setup_;
  std::vector<double> reps_;
};

void run_tune_untraced(const Options& o, RunOutput& out) {
  SetupTimes setup([&] { build_tune_setup(o, nullptr); });
  const TuneSetup ts = build_tune_setup(o, nullptr);
  const std::size_t n = ts.jobs.size();

  std::vector<JobResult> first;
  std::uint64_t tunes = 0;
  const auto samples = measure_rounds(n, o.seconds, 1, [&](std::size_t j, int round) {
    double secs = 0.0;
    const JobResult r = run_job(in_round(ts.jobs[j], o, round), &secs);
    ++tunes;
    out.checks.expect(r.failed_runs == 0 && r.quarantined == 0,
                      ts.jobs[j].label + " round " + std::to_string(round) +
                          ": failed or quarantined benchmark runs");
    if (round == 0) first.push_back(r);
    return secs;
  }, [&] { setup.once(); });

  // Determinism: the round-0 job with the fewest real evaluations, again.
  std::size_t again = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (first[j].real_evals < first[again].real_evals) again = j;
  }
  double secs = 0.0;
  out.checks.expect(run_job(ts.jobs[again], &secs).same_outcome(first[again]),
                    ts.jobs[again].label + ": a repeat differs from round 0");

  // Output checks.
  std::vector<std::string> winners;
  std::vector<double> fitness;
  std::uint64_t guarded = 0, failed_runs = 0, quarantined = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const JobResult& r = first[j];
    winners.push_back(r.best.to_string());
    fitness.push_back(r.fitness);
    guarded += r.guarded_runs;
    failed_runs += r.failed_runs;
    quarantined += r.quarantined;
    // The reference engine is slow: the first GA seed's winners suffice.
    if (ts.jobs[j].sub_seed == 0) check_engines(ts.jobs[j], r.best, out.checks);
  }
  const double tuned = geomean(fitness);

  out.metrics.set("wall_s", mean_of_rounds(samples), "s");
  out.metrics.set("setup_s", setup.median_s(), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.metrics.set("tuned_fitness", tuned, "ratio");

  out.detail << "\"rounds\": " << samples[0].size() << ", \"tunes\": " << tunes
             << ", \"wall_best_s\": " << perfbench::format_double(best_of_rounds(samples))
             << ", \"guarded_runs\": " << guarded
             << ", \"failed_runs\": " << failed_runs << ", \"quarantined\": " << quarantined
             << ", \"winners\": " << winners_json(winners)
             << ", \"tuned_fitness\": " << perfbench::format_double(tuned) << ", \"jobs\": [";
  for (std::size_t j = 0; j < n; ++j) {
    out.detail << (j ? ", " : "") << "{\"label\": " << json_str(ts.jobs[j].label)
               << ", \"real_evals\": " << first[j].real_evals
               << ", \"params\": " << first[j].params_seen
               << ", \"signatures\": " << first[j].signatures_seen
               << ", \"seconds\": " << samples_json(samples[j]) << "}";
  }
  out.detail << "]";
  check_recording(o, winners, tuned, out.checks, out.detail);
}

/// The traced replica of tuner::tune: the same GA and the same public
/// evaluator calls make_fitness makes, with a span around each.
JobResult traced_tune(Tracer& tr, const Job& job, obs::Context& ctx,
                      std::vector<double>& probe_ms, std::vector<double>& eval_ms,
                      std::uint64_t& hits) {
  tuner::EvalConfig cfg = job.cfg;
  cfg.obs = &ctx;
  tuner::SuiteEvaluator ev(*job.suite, cfg);
  {
    Scope s(&tr, "tuner.cache_restore");
    ev.restore(*job.baseline);
  }
  Scope run(&tr, "ga.run");
  const bool include_hot = cfg.scenario == vm::Scenario::kAdapt;
  tuner::SuiteEvaluator::Results defaults;
  {
    Scope s(&tr, "tuner.default");
    defaults = ev.default_results();
  }
  const ga::FitnessFn fitness = [&](const ga::Genome& g) {
    const heur::InlineParams params = tuner::params_from_genome(g);
    {
      const std::size_t before = ev.params_seen();
      const double t0 = now_s();
      Scope s(&tr, "tuner.probe");
      ev.signature_of(params);
      if (ev.params_seen() > before) probe_ms.push_back((now_s() - t0) * 1e3);
    }
    tuner::SuiteEvaluator::Results results;
    {
      const std::uint64_t before = ev.evaluations_performed();
      const double t0 = now_s();
      Scope s(&tr, "tuner.eval_hit");
      results = ev.evaluate(params);
      if (ev.evaluations_performed() > before) {
        s.rename("tuner.eval_miss");
        eval_ms.push_back((now_s() - t0) * 1e3);
      } else {
        ++hits;
      }
    }
    Scope s(&tr, "tuner.fitness");
    return tuner::suite_fitness(job.goal, *results, *defaults);
  };
  ga::GeneticAlgorithm algo(tuner::inline_param_space(include_hot), fitness, job.ga);
  const ga::GaResult r = algo.run();
  return result_of(ev, r);
}

std::string trace_path(const Options& o, const char* kind) {
  return o.scratch + "/" + kind + "-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl";
}

/// The traced run's own work ends by grafting in the program's spans and
/// writing them out, inside an obs.write span.
void finish_trace(const Options& o, Tracer& tr, const ProgramSpans& program, double epoch) {
  tr.graft(program.spans(epoch));
  Scope s(&tr, "obs.write");
  write_spans(tr, trace_path(o, "trace"));
}

void run_tune_traced(const Options& o, RunOutput& out) {
  const TuneSetup ts = build_tune_setup(o, nullptr);

  // One untraced pass: the reference the replica must land on, and the
  // denominator of the trace overhead.
  std::vector<JobResult> untraced;
  double untraced_s = 0.0;
  for (const Job& job : ts.jobs) {
    double secs = 0.0;
    untraced.push_back(run_job(job, &secs));
    untraced_s += secs;
  }

  Metrics& m = out.metrics;
  declare_per_layer(m);
  Tracer tr;
  ProgramSpans program;
  const double epoch = now_s();
  obs::Context ctx(&program, ProgramSpans::kCategories);
  const double start = now_s();
  build_tune_setup(o, &tr, &ctx);  // set-up again, under spans

  std::vector<double> probe_ms, eval_ms;
  std::uint64_t hits = 0;
  std::vector<JobResult> replica;
  double replica_s = 0.0;
  for (const Job& job : ts.jobs) {
    const double t0 = now_s();
    replica.push_back(traced_tune(tr, job, ctx, probe_ms, eval_ms, hits));
    replica_s += now_s() - t0;
  }
  finish_trace(o, tr, program, epoch);
  const double traced_wall = now_s() - start;

  // The replay, outside the traced wall: the defaults once per evaluator
  // configuration, then every winner.
  Tracer replay_tr;
  ReplayTotals totals;
  const double replay_start = now_s();
  std::set<const tuner::EvalCacheSnapshot*> replayed;
  for (std::size_t j = 0; j < ts.jobs.size(); ++j) {
    const Job& job = ts.jobs[j];
    const bool defaults = replayed.insert(job.baseline).second;
    for (const wl::Workload& w : *job.suite) {
      if (defaults) replay(replay_tr, w, job.cfg, heur::default_params(), totals);
      replay(replay_tr, w, job.cfg, replica[j].best, totals);
    }
  }
  const double replay_s = now_s() - replay_start;
  write_spans(replay_tr, trace_path(o, "replay"));

  std::uint64_t params = 0, sigs = 0, real = 0, ga_evals = 0, memo = 0, guarded = 0, failed = 0,
                quarantined = 0;
  for (std::size_t j = 0; j < ts.jobs.size(); ++j) {
    const JobResult& r = replica[j];
    out.checks.expect(r.best.to_array() == untraced[j].best.to_array() &&
                          r.fitness == untraced[j].fitness &&
                          r.real_evals == untraced[j].real_evals,
                      ts.jobs[j].label + ": traced replica (" + r.best.to_string() + ", " +
                          perfbench::format_double(r.fitness) + ", " +
                          std::to_string(r.real_evals) + " real evals) differs from tune() (" +
                          untraced[j].best.to_string() + ", " +
                          perfbench::format_double(untraced[j].fitness) + ", " +
                          std::to_string(untraced[j].real_evals) + ")");
    params += r.params_seen;
    sigs += r.signatures_seen;
    real += r.real_evals;
    ga_evals += r.ga_evaluations;
    memo += r.ga_memo_hits;
    guarded += r.guarded_runs;
    failed += r.failed_runs;
    quarantined += r.quarantined;
  }

  report_spans(tr, traced_wall, m);
  report_counters(ctx, m);
  report_replay(replay_tr, replay_s, totals, m);
  m.set("ga.evaluations", static_cast<double>(ga_evals), "count");
  m.set("ga.memo_hits", static_cast<double>(memo), "count");
  m.set("tuner.probes", static_cast<double>(probe_ms.size()), "count");
  m.set_summary("tuner.probe_ms", probe_ms, "ms");
  m.set("tuner.params_seen", static_cast<double>(params), "count");
  m.set("tuner.signatures_seen", static_cast<double>(sigs), "count");
  m.set("tuner.collapse_ratio",
        perfbench::ratio(static_cast<double>(params), static_cast<double>(sigs)), "ratio");
  m.set("tuner.real_evals", static_cast<double>(real), "count");
  m.set_summary("tuner.eval_ms", eval_ms, "ms");
  m.set("tuner.hits", static_cast<double>(hits), "count");
  m.set("resilience.guarded_runs", static_cast<double>(guarded), "count");
  m.set("resilience.failed_runs", static_cast<double>(failed), "count");
  m.set("resilience.quarantined", static_cast<double>(quarantined), "count");
  m.set("resilience.failed_ratio",
        perfbench::ratio(static_cast<double>(failed + quarantined), static_cast<double>(guarded)),
        "ratio");
  m.set("obs.trace_overhead", perfbench::ratio(replica_s, untraced_s), "ratio");
  out.checks.expect(failed == 0 && quarantined == 0, "failed or quarantined benchmark runs");
  std::vector<std::string> winners;
  std::vector<double> fitness;
  for (const JobResult& r : untraced) {
    winners.push_back(r.best.to_string());
    fitness.push_back(r.fitness);
  }

  out.detail << "\"untraced_s\": " << perfbench::format_double(untraced_s)
             << ", \"replica_s\": " << perfbench::format_double(replica_s)
             << ", \"self_time\": {";
  bool first = true;
  for (const auto& [name, t] : tr.self_time()) {
    out.detail << (first ? "" : ", ") << json_str(name) << ": " << perfbench::format_double(t);
    first = false;
  }
  out.detail << "}";
  check_recording(o, winners, geomean(fitness), out.checks, out.detail);
}

// ----------------------------------------------------------------- serve --

/// --seed drives the arrival process and request parameters; the shadow
/// GA keeps ServingConfig's fixed seed, as the online tuner ships.
serving::ServingConfig serve_config(std::uint64_t seed) {
  serving::ServingConfig c;
  c.seed = seed;
  c.online_tune = true;
  c.rollout = serving::Rollout::kRolling;
  c.load = 0.7;
  c.instances = 4;
  c.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  return c;
}

bool same_serve(const serving::WorkloadServeReport& x, const serving::WorkloadServeReport& y) {
  if (x.records.size() != y.records.size() || x.installs != y.installs ||
      x.slo_violations != y.slo_violations || x.faulted_requests != y.faulted_requests ||
      x.final_params.to_array() != y.final_params.to_array() ||
      x.final_fitness != y.final_fitness) {
    return false;
  }
  for (std::size_t k = 0; k < x.records.size(); ++k) {
    const serving::RequestRecord& p = x.records[k];
    const serving::RequestRecord& q = y.records[k];
    if (p.arrival != q.arrival || p.start != q.start || p.service != q.service ||
        p.latency != q.latency || p.instance != q.instance || p.ok != q.ok) {
      return false;
    }
  }
  return true;
}

bool same_report(const serving::ServeReport& a, const serving::ServeReport& b) {
  if (a.workloads.size() != b.workloads.size()) return false;
  for (std::size_t i = 0; i < a.workloads.size(); ++i) {
    if (!same_serve(a.workloads[i], b.workloads[i])) return false;
  }
  return true;
}

/// Serve's set-up, as serve_workload performs it before serving: each
/// workload's serving and batch programs, and the calibration of its mean
/// service time (calibration_requests requests of the same stream on a
/// scratch instance). serve_workload takes no pre-built state, so every
/// measured call repeats this work. Returns the batch programs, which the
/// traced run replays.
std::vector<wl::Workload> serve_setup(const serving::ServingConfig& sc, Tracer* tr) {
  std::vector<wl::Workload> batch;
  for (const std::string& name : serving::serving_names()) {
    wl::Workload served;
    {
      Scope s(tr, "workloads.build");
      served = serving::make_serving_workload(name, serving::ServingMode::kServe);
      batch.push_back(serving::make_serving_workload(name, serving::ServingMode::kBatch));
    }
    Scope s(tr, "serving.calibrate");
    serving::InstanceOptions opts;
    opts.scenario = sc.scenario;
    opts.interp.engine = sc.engine;
    opts.budget = sc.request_budget;
    serving::ServerInstance scratch(served.program, sc.machine, sc.initial, opts);
    Pcg32 rng(sc.seed, 0xca11);
    for (std::size_t id = 0; id < sc.calibration_requests; ++id) {
      serving::Request req;
      req.id = id;
      req.key = rng.bounded(static_cast<std::uint32_t>(sc.keyspace));
      req.op = rng.bounded(1u << 16);
      req.size = rng.bounded(1u << 10);
      scratch.serve(req);
    }
  }
  return batch;
}

std::size_t total_requests(const serving::ServeReport& r) {
  std::size_t n = 0;
  for (const auto& w : r.workloads) n += w.records.size();
  return n;
}

/// One serving workload: a third of a run_serving call.
struct ServeUnit {
  serving::ServingConfig cfg;
  std::string name;
};

std::vector<ServeUnit> serve_units(const Options& o) {
  std::vector<ServeUnit> units;
  for (const std::string& name : serving::serving_names()) units.push_back({serve_config(o.seed), name});
  return units;
}

void run_serve_untraced(const Options& o, RunOutput& out) {
  const std::vector<ServeUnit> units = serve_units(o);
  SetupTimes setup([&] { serve_setup(units[0].cfg, nullptr); });

  // The three units make one run_serving call. Every round after the first
  // draws fresh arrivals from the next sub-seed, so a run averages over
  // many arrival sequences.
  serving::ServeReport first;
  const auto samples = measure_rounds(units.size(), o.seconds, 1, [&](std::size_t i, int round) {
    const serving::ServingConfig cfg = serve_config(sub_seed(o.seed, round));
    const double t0 = now_s();
    serving::WorkloadServeReport rep = serving::serve_workload(units[i].name, cfg);
    const double secs = now_s() - t0;
    out.checks.attempted += rep.records.size();
    out.checks.failed += rep.faulted_requests;
    if (round == 0) first.workloads.push_back(std::move(rep));
    return secs;
  }, [&] { setup.once(); });
  for (std::size_t i = 0; i < units.size(); ++i) {
    out.checks.expect(same_serve(serving::serve_workload(units[i].name, units[i].cfg),
                                 first.workloads[i]),
                      units[i].name + ": a repeat differs from round 0");
    serving::ServingConfig ref = units[i].cfg;
    ref.engine = rt::EngineKind::kReference;
    out.checks.expect(same_serve(serving::serve_workload(units[i].name, ref), first.workloads[i]),
                      units[i].name + ": records differ between the fast and reference engines");
  }

  std::vector<std::string> winners;
  std::vector<double> fitness;
  for (const auto& w : first.workloads) {
    winners.push_back(w.final_params.to_string());
    fitness.push_back(w.final_fitness);
  }
  const double tuned = geomean(fitness);
  out.metrics.set("wall_s", mean_of_rounds(samples), "s");
  out.metrics.set("setup_s", setup.median_s(), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.metrics.set("tuned_fitness", tuned, "ratio");
  out.detail << "\"rounds\": " << samples[0].size() << ", \"wall_best_s\": "
             << perfbench::format_double(best_of_rounds(samples))
             << ", \"winners\": " << winners_json(winners)
             << ", \"tuned_fitness\": " << perfbench::format_double(tuned) << ", \"p99\": [";
  for (std::size_t i = 0; i < first.workloads.size(); ++i) {
    out.detail << (i ? ", " : "") << first.workloads[i].digest.p99();
  }
  out.detail << "], \"seconds\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out.detail << (i ? ", " : "") << samples_json(samples[i]);
  }
  out.detail << "]";
  check_recording(o, winners, tuned, out.checks, out.detail);
}

void run_serve_traced(const Options& o, RunOutput& out) {
  std::vector<ServeUnit> units = serve_units(o);
  const double u0 = now_s();
  const serving::ServeReport untraced = serving::run_serving(units[0].cfg);
  const double untraced_s = now_s() - u0;

  Metrics& m = out.metrics;
  declare_per_layer(m);
  Tracer tr;
  ProgramSpans program;
  const double epoch = now_s();
  obs::Context ctx(&program, ProgramSpans::kCategories);
  for (ServeUnit& u : units) u.cfg.obs = &ctx;
  const double start = now_s();
  const std::vector<wl::Workload> batch = serve_setup(units[0].cfg, &tr);
  serving::ServeReport traced;
  for (const ServeUnit& u : units) {
    Scope s(&tr, "serving.serve_workload");
    traced.workloads.push_back(serving::serve_workload(u.name, u.cfg));
  }
  finish_trace(o, tr, program, epoch);
  const double traced_wall = now_s() - start;
  const double serve_s = tr.total("serving.serve_workload");

  // The replay, outside the traced wall: the shadow evaluator's
  // configuration with the defaults and each workload's final parameters.
  tuner::EvalConfig cfg;
  cfg.machine = units[0].cfg.machine;
  cfg.scenario = units[0].cfg.scenario;
  Tracer replay_tr;
  ReplayTotals totals;
  const double replay_start = now_s();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const heur::InlineParams& p : {heur::default_params(), traced.workloads[i].final_params}) {
      replay(replay_tr, batch[i], cfg, p, totals);
    }
  }
  const double replay_s = now_s() - replay_start;
  write_spans(replay_tr, trace_path(o, "replay"));

  out.checks.expect(same_report(traced, untraced),
                    "serve_workload records differ from run_serving's");
  report_spans(tr, traced_wall, m);
  report_counters(ctx, m);
  report_replay(replay_tr, replay_s, totals, m);

  const std::size_t requests = total_requests(traced);
  std::size_t installs = 0, considered = 0, installed = 0, violations = 0, faulted = 0;
  std::vector<double> queue;
  for (const auto& w : traced.workloads) {
    installs += w.installs;
    considered += w.retune.considered;
    installed += w.retune.installed;
    violations += w.slo_violations;
    faulted += w.faulted_requests;
    for (const auto& r : w.records) queue.push_back(static_cast<double>(r.start - r.arrival));
    m.set("serving.p99_cycles." + w.name, static_cast<double>(w.digest.p99()), "cycles");
  }
  out.checks.attempted += requests;
  out.checks.failed += faulted;
  m.set("serving.requests", static_cast<double>(requests), "count");
  m.set("serving.host_us_per_request",
        perfbench::ratio(serve_s * 1e6, static_cast<double>(requests)), "us");
  m.set("serving.installs", static_cast<double>(installs), "count");
  m.set("serving.retunes_considered", static_cast<double>(considered), "count");
  m.set("serving.retunes_installed", static_cast<double>(installed), "count");
  m.set("serving.queue_cycles.p99", queue.empty() ? 0.0 : perfbench::nearest_rank(queue, 0.99),
        "cycles");
  m.set("serving.slo_violations", static_cast<double>(violations), "count");
  m.set("serving.slo_violation_ratio",
        perfbench::ratio(static_cast<double>(violations), static_cast<double>(requests)), "ratio");
  m.set("serving.faulted_requests", static_cast<double>(faulted), "count");
  m.set("resilience.failed_ratio",
        perfbench::ratio(static_cast<double>(faulted), static_cast<double>(requests)), "ratio");
  m.set("obs.trace_overhead", perfbench::ratio(serve_s, untraced_s), "ratio");
  out.detail << "\"untraced_s\": " << perfbench::format_double(untraced_s)
             << ", \"serve_s\": " << perfbench::format_double(serve_s);
  std::vector<std::string> winners;
  std::vector<double> fitness;
  for (const auto& w : untraced.workloads) {
    winners.push_back(w.final_params.to_string());
    fitness.push_back(w.final_fitness);
  }
  check_recording(o, winners, geomean(fitness), out.checks, out.detail);
}

// ------------------------------------------------------------- self-test --

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  };
  using perfbench::nearest_rank;
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(nearest_rank(ten, 0.5) == 5, "p50 of 1..10 is the 5th smallest");
  expect(nearest_rank(ten, 0.9) == 9, "p90 of 1..10 is the 9th smallest");
  expect(nearest_rank(ten, 0.91) == 10, "p91 of 1..10 rounds up to the 10th");
  expect(nearest_rank(ten, 0.0) == 1 && nearest_rank(ten, 1.0) == 10, "p0 and p100");
  expect(nearest_rank({7}, 0.99) == 7, "single sample");
  expect(perfbench::tail_quantile(19) == 0.5, "19 samples: no tail leaves ten beyond it");
  expect(perfbench::tail_quantile(100) == 0.9, "100 samples: p90 leaves exactly ten");
  expect(perfbench::tail_quantile(199) == 0.9, "199 samples: p95 leaves only nine");
  expect(perfbench::tail_quantile(200) == 0.95, "200 samples: p95");
  expect(perfbench::tail_quantile(1000) == 0.99, "1000 samples: p99");
  expect(perfbench::tail_quantile(10000) == 0.999, "10000 samples: p99.9");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const perfbench::Summary s = perfbench::summarize(hundred);
  expect(s.p50 == 50 && s.tail == 90 && s.tail_q == 0.9 && s.n == 100, "summary of 1..100");
  expect(perfbench::summarize({}).n == 0, "empty summary");
  expect(perfbench::ratio(37, 153) == 37.0 / 153.0, "ratio");
  expect(perfbench::ratio(5, 0) == 0, "ratio over an empty base is 0");
  expect(perfbench::format_double(0.1) == "0.1" && perfbench::format_double(1e-7) == "1e-07",
         "shortest round-trip formatting");

  // Self time: a [0,10] with children b [1,4] (child c [2,3]) and d [5,9];
  // a second root e [12,13]; wall 15 leaves 4 uncovered.
  Tracer tr;
  const int a = tr.open_at("ga.run", 0);
  const int b = tr.open_at("tuner.probe", 1);
  const int c = tr.open_at("opt.probe", 2);
  tr.close_at(c, 3);
  tr.close_at(b, 4);
  const int d = tr.open_at("tuner.eval_miss", 5);
  tr.close_at(d, 9);
  tr.close_at(a, 10);
  const int e = tr.open_at("obs.write", 12);
  tr.close_at(e, 13);
  const auto self = tr.self_time();
  expect(self.at("ga.run") == 3 && self.at("tuner.probe") == 2 && self.at("opt.probe") == 1 &&
             self.at("tuner.eval_miss") == 4 && self.at("obs.write") == 1,
         "self time subtracts children");
  const auto layers = tr.layer_self_time();
  expect(layers.at("tuner") == 6 && layers.at("ga") == 3, "layer self time sums by prefix");
  expect(tr.top_level_time() == 11, "top-level spans cover 11 of 15");
  double sum = 0;
  for (const auto& [name, t] : self) sum += t;
  expect(sum == tr.top_level_time(), "self times tile the top-level spans");
  // Grafted program spans (microsecond clock, in the order they ended):
  // x [5.0000004, 8] nests under d by its midpoint and is clipped to it;
  // y [5.5, 6] (ended first) nests under x; z [12.2, 12.4] under e.
  tr.graft({{"vm.run", 5.5, 6, -1}, {"tuner.eval_suite", 4.9999996, 8, -1},
            {"obs.z", 12.2, 12.4, -1}});
  const auto grafted = tr.self_time();
  expect(grafted.at("tuner.eval_miss") == 1 && grafted.at("tuner.eval_suite") == 2.5 &&
             grafted.at("vm.run") == 0.5 && std::abs(grafted.at("obs.write") - 0.8) < 1e-12 &&
             grafted.at("ga.run") == 3,
         "grafted spans nest by containment and are clipped to their parent");
  expect(tr.top_level_time() == 11, "grafting leaves the top-level cover unchanged");
  expect(tr.total("tuner.eval_miss") == 4, "total includes children");
  bool threw = false;
  try {
    Tracer bad;
    const int x = bad.open_at("x", 0);
    bad.open_at("y", 1);
    bad.close_at(x, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span out of order throws");

  Metrics m;
  declare_per_layer(m);
  m.set("x", 1.5, "s");
  expect(m.json().find("\"x\": {\"value\": 1.5, \"unit\": \"s\"}") != std::string::npos,
         "metric JSON");
  std::cout << "{\"self_test\": " << (failures == 0 ? "true" : "false") << "}\n";
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ main --

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--recorded") {
      o.recorded = value();
    } else if (a == "--scratch") {
      o.scratch = value();
    } else if (a == "--generations") {
      o.generations = std::stoi(value());

    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.self_test) return o;
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) == std::end(kWorkloads)) {
    throw std::invalid_argument("unknown --workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (o.self_test) return self_test();
  try {
    RunOutput out;
    const bool serve = o.workload == "serve";
    if (o.trace) {
      serve ? run_serve_traced(o, out) : run_tune_traced(o, out);
    } else {
      serve ? run_serve_untraced(o, out) : run_tune_untraced(o, out);
    }
    const bool correct = out.checks.failed == 0;
    std::cout << "{\"detail\": {\"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
              << ", " << out.detail.str() << "}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(out.checks.attempted, 1)
              << ", \"failed\": " << out.checks.failed << ", \"metrics\": " << out.metrics.json()
              << "}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
