// Decision probe: replays the inliner's recursive decision procedure for a
// program without transforming or executing any code.
//
// The probe walks a method exactly the way Inliner::run does — same
// structural guards in the same order, same size arithmetic after simulated
// splicing (bytecode/size_estimator), same depth/chain bookkeeping — and
// records every heuristic consultation it predicts. Because the splice only
// rewrites operands (and kRet into kJmp) while per-instruction word
// estimates depend on the opcode alone, the probe's virtual size accounting
// is exact, so its predicted decisions match the real inliner bit for bit
// (enforced by tests/opt/decision_probe_test.cpp over the fuzz corpus).
//
// On top of the replay sits the decision *signature*: a canonical FNV-1a
// hash of every decision the Figure 3/4 heuristic with a given parameter
// vector would make over the program, across every profile-consistent
// hot/cold labelling of call sites. Two parameter vectors with equal
// signatures drive the optimizer to identical code at every compilation the
// VM could ever perform, hence identical ExecStats — which is what lets the
// SuiteEvaluator collapse behaviourally-equivalent genomes onto one cache
// entry (see DESIGN.md "Decision-signature caching"). Hashed per method
// instead, the same replay yields the verdict key the VM's code pool
// matches compiled bodies on (vm/code_pool.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bytecode/program.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/analysis.hpp"
#include "opt/inliner.hpp"

namespace ith::opt {

/// One predicted heuristic consultation, mirroring the fields the Inliner
/// attaches to its `inline.decision` trace events.
struct ProbeDecision {
  bc::MethodId root = -1;        ///< method being compiled
  bc::MethodId callee = -1;
  std::size_t call_pc = 0;       ///< pc of the kCall in the evolving body
  int depth = 0;
  int callee_size = 0;           ///< estimated words of the original callee
  int caller_size = 0;           ///< estimated words of the evolving body
  int head_size = -1;            ///< guard-head words offered to the heuristic
  bool is_hot = false;
  std::uint64_t site_count = 0;
  bool inlined = false;
  bool partial = false;          ///< verdict was "splice the guard head only"
  const char* rule = "opaque";
};

/// Per-method facts both probes read: whether a method can be spliced, its
/// estimated size, its spliced-body words, whether a splice needs a zeroing
/// prologue and its guard-head shape. A pure function of the program,
/// computed eagerly by the constructor and read-only afterwards, so one
/// instance serves every probe over the program from any number of threads.
/// The program must outlive the facts. Share facts by owning them next to
/// the program, never by looking them up by the program's address: a freed
/// program's address can be handed to the next program allocated.
class ProgramFacts {
 public:
  explicit ProgramFacts(const bc::Program& prog);

  const bc::Program& program() const { return prog_; }

  /// Inliner::is_inlinable.
  bool inlinable(bc::MethodId m) const { return at(m).inlinable; }

  /// estimated_method_size of the *original* method (the InlineRequest's
  /// callee_size and the initial caller_size).
  int est_size(bc::MethodId m) const { return at(m).est_size; }

  /// Estimated words of the callee body as spliced: operand rewrites keep
  /// the opcode (words depend on the opcode alone) and each kRet becomes a
  /// kJmp to the landing pc.
  int body_words(bc::MethodId m) const { return at(m).body_words; }

  /// The head_size the real inliner offers the heuristic: guard-head words
  /// or -1 for an unsplittable callee. Only meaningful for inlinable methods.
  int head_size(bc::MethodId m) const {
    const std::optional<PartialShape>& s = at(m).partial;
    return s ? s->head_words : -1;
  }

  /// Instruction count and estimated words of the marshalling stores plus
  /// the (conditional) zeroing prologue the splice prepends.
  std::pair<int, int> preamble(bc::MethodId callee, int nargs) const;

  /// Estimated words of one kCall.
  int call_words() const { return call_words_; }

  /// Estimated-words growth of a partial splice: marshal stores plus the
  /// rerouted head plus the stub's reloads; the residual call replaces the
  /// original one exactly, so call words cancel.
  int partial_delta(bc::MethodId callee, int nargs) const {
    return nargs * (store_words_ + load_words_) + at(callee).partial->head_words;
  }

  /// Instruction-count growth of a partial splice (the scan-cursor advance
  /// up to, not including, the residual call).
  int partial_insns_before_residual(bc::MethodId callee, int nargs) const {
    return 2 * nargs + at(callee).partial->head_len;
  }

 private:
  struct MethodFacts {
    bool inlinable = false;
    /// !non_arg_locals_definitely_assigned: the splice emits a zeroing
    /// prologue for the callee's non-argument locals (inlinable methods only).
    bool needs_prologue = false;
    int est_size = 0;
    int body_words = 0;
    std::optional<PartialShape> partial;  ///< inlinable methods only
  };

  const MethodFacts& at(bc::MethodId m) const { return methods_[static_cast<std::size_t>(m)]; }

  const bc::Program& prog_;
  std::vector<MethodFacts> methods_;
  int store_words_ = 0;
  int load_words_ = 0;
  int const_words_ = 0;
  int call_words_ = 0;
};

/// Replays Inliner::run's decision procedure under a concrete site oracle.
class DecisionProbe {
 public:
  /// All references are non-owning and must outlive the probe. The
  /// heuristic is consulted through decide() (the same entry point the
  /// Inliner uses when tracing decisions).
  DecisionProbe(const ProgramFacts& facts, const heur::InlineHeuristic& heuristic,
                SiteOracle oracle = cold_site, InlineLimits limits = {});

  /// Predicts every heuristic consultation Inliner::run(root) would make,
  /// in consultation order. `stats` (optional) receives the InlineStats the
  /// real run would report. No code is produced or mutated.
  std::vector<ProbeDecision> probe_method(bc::MethodId root, InlineStats* stats = nullptr) const;

  /// The InlineStats::verdict_key Inliner::run(root) would report, without
  /// building the decision list.
  std::uint64_t verdict_key(bc::MethodId root) const;

 private:
  const ProgramFacts& facts_;
  const heur::InlineHeuristic& heuristic_;
  SiteOracle oracle_;
  InlineLimits limits_;
};

struct SignatureOptions {
  /// Explore every profile-consistent hot/cold labelling of origin call
  /// sites (the adaptive scenario, where recompilations can see any profile
  /// state). False = a single all-cold replay (the all-opt scenario, whose
  /// oracle is always cold_site).
  bool adaptive = true;
  /// Ceiling on consultations+forks across the whole program. Divergent
  /// labellings explore a decision *tree*, which is exponential in the
  /// worst case; past this budget the signature falls back to hashing the
  /// raw parameter vector (sound — no collapse — and flagged `exact=false`).
  std::size_t max_events = std::size_t{1} << 14;
};

struct SignatureResult {
  std::uint64_t value = 0;
  /// False when the event budget overflowed and `value` is merely the raw
  /// parameter hash (still a valid cache key, just collapse-free).
  bool exact = true;
  std::uint64_t consultations = 0;  ///< heuristic consultations explored
  std::uint64_t forks = 0;          ///< hot/cold divergences explored
};

/// Canonical decision signature of the Figure 3/4 heuristic with `params`
/// over `prog`: equal signatures (with exact=true) imply the optimizer
/// produces identical code at every compilation under either parameter
/// vector, for every reachable profile state. Valid for heuristics whose
/// verdict depends on the site profile only through `is_hot` (the Jikes
/// fig3/fig4 family — site_count is ignored by the decision rules).
/// Partial-inline verdicts hash as a third consultation byte and explore
/// the residual re-call the splice leaves behind, so the signature stays a
/// sound collapse key across the full six-parameter space; with
/// PARTIAL_MAX_HEAD_SIZE = 0 the byte stream is identical to the
/// five-parameter encoding.
SignatureResult decision_signature(const ProgramFacts& facts, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts = {});

/// Same, computing the program's facts for this one call.
SignatureResult decision_signature(const bc::Program& prog, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts = {});

}  // namespace ith::opt
