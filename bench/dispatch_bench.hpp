// Interpreter dispatch micro-benchmark: wall-clock throughput of the two
// execution engines (predecoded direct-threaded "fast" vs. switch-dispatch
// "reference") over a fixed workload set.
//
// This measures *host* time, not simulated cycles — the simulated cycle
// model is engine-invariant by construction (see DESIGN.md, "Execution
// engines"); what differs between engines is how fast the host machine can
// produce those identical numbers. The per-engine figure is interpreted
// instructions per wall-clock second at the fastest round; the headline is
// the fast/reference speedup of each interleaved timing round, summarized
// as a median with its quartile spread.
//
// Used by bench/micro_dispatch (human-readable table, optional JSON) and
// tools/bench_json (writes BENCH_interpreter.json for the perf trajectory).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ith::bench {

struct DispatchMeasurement {
  std::string workload;
  std::string engine;              ///< "fast" or "reference"
  std::uint64_t instructions = 0;  ///< per run (engine-invariant)
  std::uint64_t sim_cycles = 0;    ///< simulated cycles, cold icache run
  double best_seconds = 0.0;       ///< fastest round
  double insns_per_sec = 0.0;      ///< at best_seconds
  double ns_per_insn = 0.0;        ///< at best_seconds
  std::vector<double> round_seconds;  ///< every timing round, in run order
};

/// Spread of the per-round fast/reference speedup (see round_speedup).
struct SpeedupSpread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Timing rounds behind the dispatch-speed guard. tools/bench_json records
/// BENCH_interpreter.json with this many rounds and `micro_dispatch --guard`
/// measures this many unless --repeats says otherwise, so the recorded
/// median and the guarded one are taken over the same number of rounds.
inline constexpr int kGuardRepeats = 15;

struct DispatchBenchConfig {
  int repeats = 5;                ///< interleaved timing rounds per engine
  double run_scale = 1.0;         ///< workload trip-count multiplier
  std::uint64_t fuzz_seed = 7;    ///< pinned seed for the adversarial row
  bool with_icache = true;        ///< probe the simulated I-cache (hot path)
};

/// Names of the fixed workload set (suite programs + one generated
/// adversarial program, pinned seed). Stable across runs by design so the
/// JSON is comparable commit-over-commit.
std::vector<std::string> dispatch_workload_names(const DispatchBenchConfig& config);

/// Runs every workload under the "fast" and "reference" engines. Verifies
/// on the way that both produced identical ExecStats for the cold run
/// (throws ith::Error otherwise — a benchmark that measures different
/// computations is meaningless). Timing rounds are interleaved across the
/// engines so a mid-benchmark change in effective host speed (CPU steal,
/// frequency drift) cancels out of the per-round ratios. Results are
/// ordered workload-major: fast, reference.
std::vector<DispatchMeasurement> run_dispatch_bench(const DispatchBenchConfig& config);

/// Geometric-mean speedup of fast over reference: the instructions/sec
/// ratio of each workload's fastest rounds.
double geomean_speedup(const std::vector<DispatchMeasurement>& ms);

/// Per timing round r, the geometric mean across workloads of reference
/// time over fast time in that round; returns the median and quartiles of
/// those per-round speedups. Each round's two timings are taken back to
/// back, so host-speed drift between rounds cancels out of every sample —
/// unlike the ratio of two best-of-N times, which pairs rounds that may
/// have run in different host-speed spells.
SpeedupSpread round_speedup(const std::vector<DispatchMeasurement>& ms);

/// Writes the BENCH_interpreter.json document.
void write_bench_json(std::ostream& os, const DispatchBenchConfig& config,
                      const std::vector<DispatchMeasurement>& ms);

/// Human-readable table with a per-workload and geomean speedup column.
void print_dispatch_table(std::ostream& os, const std::vector<DispatchMeasurement>& ms);

}  // namespace ith::bench
