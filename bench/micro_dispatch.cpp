// Dispatch-engine micro-benchmark: wall-clock throughput of the fast
// (predecoded direct-threaded) engine vs. the reference switch interpreter
// over a fixed workload set. Prints a table; optionally writes the
// BENCH_interpreter.json document.
//
//   micro_dispatch [--repeats=N] [--json=PATH]
//                  [--guard=BASELINE.json] [--tolerance=0.01]
//
// --guard compares this run's fast/reference speedup against the recorded
// baseline document and fails (exit 1) when it regressed by more than
// --tolerance (relative). Without --repeats a guarded run takes
// kGuardRepeats rounds, the count tools/bench_json records the baseline with. The compared figure is the median over timing
// rounds of each round's speedup (both engines timed back to back, so host
// speed drift cancels within a round); the quartiles are printed beside it
// so a reader can see whether a miss is inside the run's own spread. The
// ratio is host-machine independent, so the same guard value works on a
// laptop and in CI; it is the overhead budget for the observability layer
// — with a null obs context the fast engine must keep its full speedup over
// the reference engine. On failure it prints a per-workload breakdown so the
// offending workload is identifiable without rerunning locally.
//
// The simulated ExecStats are checked for cross-engine equality before any
// timing is reported, so a regression in the equivalence guarantee fails
// the benchmark instead of skewing it.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "dispatch_bench.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

ith::JsonValue load_baseline(const std::string& path) {
  std::ifstream in(path);
  ITH_CHECK(in.is_open(), "cannot open baseline " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ith::parse_json(buf.str());
}

/// The recorded median per-round speedup the current run must hold.
double baseline_median_speedup(const ith::JsonValue& doc, const std::string& path) {
  const ith::JsonValue* spread = doc.find("round_speedup_fast_over_reference");
  const ith::JsonValue* v = spread == nullptr ? nullptr : spread->find("median");
  ITH_CHECK(v != nullptr && v->kind == ith::JsonValue::Kind::kNumber,
            path + ": round_speedup_fast_over_reference.median missing");
  return v->number;
}

/// Per-workload fast/reference speedups of the fastest rounds, from a
/// baseline document's results array.
std::map<std::string, double> workload_speedups(const ith::JsonValue& doc) {
  std::map<std::string, double> fast_ips, ref_ips;
  const ith::JsonValue* results = doc.find("results");
  if (results == nullptr || results->kind != ith::JsonValue::Kind::kArray) return {};
  for (const ith::JsonValue& row : results->items) {
    const ith::JsonValue* wl = row.find("workload");
    const ith::JsonValue* engine = row.find("engine");
    const ith::JsonValue* ips = row.find("insns_per_sec");
    if (wl == nullptr || engine == nullptr || ips == nullptr) continue;
    (engine->str == "fast" ? fast_ips : ref_ips)[wl->str] = ips->number;
  }
  std::map<std::string, double> out;
  for (const auto& [wl, ips] : fast_ips) {
    if (ref_ips.count(wl) != 0 && ref_ips[wl] > 0) out[wl] = ips / ref_ips[wl];
  }
  return out;
}

void print_guard_breakdown(const std::vector<ith::bench::DispatchMeasurement>& results,
                           const std::map<std::string, double>& recorded) {
  std::cerr << "per-workload best-round speedup (fast / reference), current vs recorded:\n";
  std::map<std::string, double> fast_ips, ref_ips;
  for (const auto& m : results) {
    (m.engine == "fast" ? fast_ips : ref_ips)[m.workload] = m.insns_per_sec;
  }
  for (const auto& [wl, ips] : fast_ips) {
    if (ref_ips.count(wl) == 0) continue;
    const double current = ips / ref_ips[wl];
    std::cerr << "  " << wl << ": " << current << "x";
    const auto it = recorded.find(wl);
    if (it != recorded.end()) {
      std::cerr << " (recorded " << it->second << "x, " << (current / it->second - 1.0) * 100
                << "% drift)";
    }
    std::cerr << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  ith::bench::DispatchBenchConfig config;
  bool repeats_given = false;
  std::string json_path;
  std::string guard_path;
  double tolerance = 0.01;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeats=", 0) == 0) {
      config.repeats = std::atoi(arg.c_str() + 10);
      repeats_given = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--guard=", 0) == 0) {
      guard_path = arg.substr(8);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + 12);
    } else {
      std::cerr << "usage: micro_dispatch [--repeats=N] [--json=PATH]"
                   " [--guard=BASELINE.json] [--tolerance=R]\n";
      return 2;
    }
  }
  if (!guard_path.empty() && !repeats_given) config.repeats = ith::bench::kGuardRepeats;
  try {
    const auto results = ith::bench::run_dispatch_bench(config);
    ith::bench::print_dispatch_table(std::cout, results);
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "micro_dispatch: cannot write " << json_path << "\n";
        return 1;
      }
      ith::bench::write_bench_json(out, config, results);
      std::cout << "wrote " << json_path << "\n";
    }
    if (!guard_path.empty()) {
      const ith::JsonValue doc = load_baseline(guard_path);
      const double baseline = baseline_median_speedup(doc, guard_path);
      const ith::bench::SpeedupSpread current = ith::bench::round_speedup(results);
      const double floor = baseline * (1.0 - tolerance);
      std::cout << "guard: median per-round speedup " << current.median << " (quartiles "
                << current.q1 << "-" << current.q3 << ") vs recorded " << baseline << " (floor "
                << floor << ", tolerance " << tolerance * 100 << "%)\n";
      if (current.median < floor) {
        std::cerr << "micro_dispatch: fast engine regressed below the guard floor: recorded "
                  << baseline << "x, measured median " << current.median << "x (quartiles "
                  << current.q1 << "x-" << current.q3 << "x, floor " << floor << ")\n";
        print_guard_breakdown(results, workload_speedups(doc));
        return 1;
      }
      std::cout << "guard: OK\n";
    }
  } catch (const ith::Error& e) {
    std::cerr << "micro_dispatch: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
