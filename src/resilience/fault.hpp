// Resilience layer, part 2: deterministic fault injection.
//
// A FaultPlan decides, purely as a function of (plan seed, site, caller
// key), whether a fault fires at a given opportunity. Because the decision
// is a hash rather than a stateful RNG draw, it is independent of call
// order, thread interleaving, and how many other sites consulted the plan —
// the property that makes chaos campaigns replayable and lets
// kill-and-resume runs line up bit-identically with straight-through runs.
//
// Callers derive their key from stable identities (parameter vector hash,
// workload name, attempt number, method id), so a *retry* of the same
// evaluation consults the plan with a different key and typically clears a
// transient fault — the evaluator's retry-then-quarantine loop depends on
// exactly this.
//
// Header-only, support/-only dependencies: the VM consults the plan without
// linking anything new. See FaultPlan::from_env for the ITH_FAULT_*
// environment knobs (mirroring the fuzz campaign's env-configurable style).
#pragma once

#include <cstdint>
#include <string>

#include "support/env.hpp"
#include "support/error.hpp"

namespace ith::resilience {

/// Where a fault can be injected. Sites 4..8 belong to the evaluation
/// service (src/service/): they simulate infrastructure failures — dropped
/// connections, torn frames, failed persistence — rather than simulated-
/// program failures, so arming them never changes what a suite run would
/// *measure*, only whether a given daemon interaction survives.
enum class FaultSite : std::uint8_t {
  kVmTrap = 0,          ///< trap thrown at the start of a VM run iteration
  kCompileInflate = 1,  ///< compile cycles multiplied (compile-time explosion)
  kEvaluator = 2,       ///< exception thrown inside the suite evaluator
  kSink = 3,            ///< trace-sink write dropped (I/O error)
  kSvcAccept = 4,       ///< daemon drops a freshly accepted connection
  kSvcRead = 5,         ///< daemon treats an inbound frame as torn (read error)
  kSvcWrite = 6,        ///< daemon fails to write a response (connection dies)
  kSvcDispatch = 7,     ///< daemon refuses to dispatch an acquire request
  kSvcSnapshot = 8,     ///< daemon skips a periodic cache snapshot write
};

inline const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kVmTrap: return "vm";
    case FaultSite::kCompileInflate: return "compile";
    case FaultSite::kEvaluator: return "eval";
    case FaultSite::kSink: return "sink";
    case FaultSite::kSvcAccept: return "accept";
    case FaultSite::kSvcRead: return "read";
    case FaultSite::kSvcWrite: return "write";
    case FaultSite::kSvcDispatch: return "dispatch";
    case FaultSite::kSvcSnapshot: return "snapshot";
  }
  return "?";
}

/// SplitMix64 finalizer: the avalanche mix all injection decisions and key
/// derivations go through.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive key combiner for deriving per-opportunity keys.
inline std::uint64_t mix_keys(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Seeded, rate-driven fault plan. Default-constructed plans inject nothing
/// (rate 0, no sites); enforcement sites additionally guard on a null plan
/// pointer, so the idle cost is one branch.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability a fault fires per opportunity, in [0, 1].
  double rate = 0.0;
  /// OR of (1 << FaultSite) bits; 0 = no site armed.
  std::uint32_t sites = 0;
  /// Cycle multiplier applied by kCompileInflate. Deliberately large so an
  /// inflated compilation reliably trips the compile-cycle budget (and is
  /// therefore retried) instead of silently corrupting cycle accounting.
  double compile_inflation = 1000.0;

  static std::uint32_t site_bit(FaultSite s) { return 1u << static_cast<unsigned>(s); }

  bool enabled(FaultSite s) const { return (sites & site_bit(s)) != 0; }
  bool armed() const { return rate > 0.0 && sites != 0; }

  /// Deterministic per-opportunity decision: a pure function of
  /// (seed, site, key) — no internal state, no call-order dependence.
  bool should_inject(FaultSite site, std::uint64_t key) const {
    if (!enabled(site) || rate <= 0.0) return false;
    const std::uint64_t h =
        mix64(seed ^ mix64(key + 0x5179u * (static_cast<std::uint64_t>(site) + 1)));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
  }

  /// Mask of the four simulated-program sites (the pre-service set).
  static std::uint32_t eval_sites() {
    return site_bit(FaultSite::kVmTrap) | site_bit(FaultSite::kCompileInflate) |
           site_bit(FaultSite::kEvaluator) | site_bit(FaultSite::kSink);
  }

  /// Mask of the five evaluation-service infrastructure sites.
  static std::uint32_t service_sites() {
    return site_bit(FaultSite::kSvcAccept) | site_bit(FaultSite::kSvcRead) |
           site_bit(FaultSite::kSvcWrite) | site_bit(FaultSite::kSvcDispatch) |
           site_bit(FaultSite::kSvcSnapshot);
  }

  /// Parses "vm,compile,eval,sink,accept,read,write,dispatch,snapshot" (or
  /// the groups "all" / "svc") into a site mask; throws ith::Error on
  /// unknown names.
  static std::uint32_t parse_sites(const std::string& spec) {
    if (spec.empty()) return 0;
    if (spec == "all") return eval_sites() | service_sites();
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      const std::string name =
          spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (name == "vm") {
        mask |= site_bit(FaultSite::kVmTrap);
      } else if (name == "compile") {
        mask |= site_bit(FaultSite::kCompileInflate);
      } else if (name == "eval") {
        mask |= site_bit(FaultSite::kEvaluator);
      } else if (name == "sink") {
        mask |= site_bit(FaultSite::kSink);
      } else if (name == "accept") {
        mask |= site_bit(FaultSite::kSvcAccept);
      } else if (name == "read") {
        mask |= site_bit(FaultSite::kSvcRead);
      } else if (name == "write") {
        mask |= site_bit(FaultSite::kSvcWrite);
      } else if (name == "dispatch") {
        mask |= site_bit(FaultSite::kSvcDispatch);
      } else if (name == "snapshot") {
        mask |= site_bit(FaultSite::kSvcSnapshot);
      } else if (name == "svc") {
        mask |= service_sites();
      } else if (name == "all") {
        mask |= eval_sites() | service_sites();
      } else {
        throw Error("unknown fault site '" + name +
                    "' (expected vm, compile, eval, sink, accept, read, write, dispatch, "
                    "snapshot, svc, all)");
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return mask;
  }

  /// Environment-configured plan: ITH_FAULT_RATE (double), ITH_FAULT_SEED
  /// (int), ITH_FAULT_SITES (comma list or "all"; defaults to "all" when a
  /// rate is set). Unset rate = inert plan.
  static FaultPlan from_env() {
    FaultPlan plan;
    const std::string rate = env_or("ITH_FAULT_RATE", "");
    if (rate.empty()) return plan;
    try {
      plan.rate = std::stod(rate);
    } catch (...) {
      throw Error("ITH_FAULT_RATE is not a number: " + rate);
    }
    ITH_CHECK(plan.rate >= 0.0 && plan.rate <= 1.0, "ITH_FAULT_RATE out of [0,1]");
    plan.seed = static_cast<std::uint64_t>(env_int_or("ITH_FAULT_SEED", 1));
    plan.sites = parse_sites(env_or("ITH_FAULT_SITES", "all"));
    return plan;
  }
};

}  // namespace ith::resilience
