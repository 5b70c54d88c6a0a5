#include "opt/decision_probe.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "bytecode/size_estimator.hpp"
#include "opt/passes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace ith::opt {

namespace {

// Event stream bytes. Only the verdict of each consultation is hashed: the
// *sequence* of consultations is itself a function of the program and the
// verdicts so far (each approval deterministically rewrites the remaining
// walk), so equal verdict streams imply equal consultation streams by
// induction — hashing sizes or rules would only reduce collapse.
constexpr unsigned char kConsultNo = 0xA0;
constexpr unsigned char kConsultYes = 0xA1;
constexpr unsigned char kConsultPartial = 0xA2;
constexpr unsigned char kForkCold = 0xB0;
constexpr unsigned char kForkHot = 0xB1;
constexpr unsigned char kPathEnd = 0x55;

/// Structural guards exactly as Inliner::run applies them, in order: depth
/// cap, chain recursion bound (only for instructions that *have* a chain,
/// i.e. spliced ones), evolving-body size, callee shape. `chain` holds the
/// methods inlined through to reach the current scan level, outermost first
/// (empty at the root level, mirroring the null chain of original code).
bool structurally_ok(const ProgramFacts& facts, const InlineLimits& limits,
                     const std::vector<bc::MethodId>& chain, int depth, int caller_words,
                     bc::MethodId callee) {
  bool ok = depth < limits.hard_depth_cap;
  if (ok && !chain.empty()) {
    const auto occurrences = std::count(chain.begin(), chain.end(), callee);
    ok = occurrences < limits.max_recursive_occurrences;
  }
  if (ok) ok = caller_words < limits.max_body_words;
  if (ok) ok = facts.inlinable(callee);
  return ok;
}

/// Replays Inliner::run(root) and calls `on_consult(request, decision)` for
/// every heuristic consultation it predicts, in consultation order. Returns
/// the InlineStats the real run would report, verdict key included.
template <typename OnConsult>
InlineStats replay(const ProgramFacts& facts, const heur::InlineHeuristic& heuristic,
                   const SiteOracle& oracle, const InlineLimits& limits, bc::MethodId root,
                   OnConsult&& on_consult) {
  const bc::Program& prog = facts.program();
  InlineStats local;
  local.size_before_words = facts.est_size(root);

  // Virtual replay state shared across the whole recursion: the evolving
  // body's estimated size and the scan pc within it. The real scan is a
  // single linear left-to-right walk over the (growing) code array, so a
  // preorder recursion into each spliced region with one shared pc cursor
  // reproduces it exactly.
  int caller_words = facts.est_size(root);
  std::size_t vpc = 0;
  std::vector<bc::MethodId> chain;

  const auto scan = [&](auto&& self, bc::MethodId m, int depth) -> void {
    const bc::Method& method = prog.method(m);
    for (std::size_t j = 0; j < method.size(); ++j) {
      const bc::Instruction insn = method.code()[j];
      if (insn.op != bc::Op::kCall) {
        ++vpc;
        continue;
      }
      ++local.sites_considered;
      const bc::MethodId callee = insn.a;

      // A partial splice leaves a residual call to the same callee behind
      // (origin site unchanged, depth + 1, callee appended to the chain),
      // which the real scan reaches right after the rerouted head. The
      // inner loop replays that splice-then-reconsider chain; `pushes`
      // tracks how deep into the chain this site carried us.
      int cur_depth = depth;
      int pushes = 0;
      while (true) {
        if (!structurally_ok(facts, limits, chain, cur_depth, caller_words, callee)) {
          ++local.sites_refused_structural;
          ++vpc;
          break;
        }

        // Profile lookup against the *origin* site: spliced instructions
        // keep their (origin method, origin pc) identity, which for a body
        // instruction j of method m is simply (m, j) — and a residual call
        // inherits the original site's identity verbatim.
        const SiteProfile profile = oracle(m, static_cast<std::int32_t>(j));
        heur::InlineRequest req;
        req.caller = root;
        req.callee = callee;
        req.call_pc = vpc;
        req.callee_size = facts.est_size(callee);
        req.caller_size = caller_words;
        req.depth = cur_depth;
        req.head_size = facts.head_size(callee);
        req.is_hot = profile.is_hot;
        req.site_count = profile.count;
        const heur::InlineDecision decision = heuristic.decide(req);
        local.verdict_key = fold_verdict(local.verdict_key, callee, decision);
        on_consult(req, decision);

        if (!decision.inline_it) {
          ++local.sites_refused_by_heuristic;
          ++vpc;
          break;
        }

        if (decision.partial) {
          ++local.sites_partially_inlined;
          local.max_depth_reached = std::max(local.max_depth_reached, cur_depth + 1);
          caller_words += facts.partial_delta(callee, insn.b);
          vpc += static_cast<std::size_t>(facts.partial_insns_before_residual(callee, insn.b));
          chain.push_back(callee);
          ++pushes;
          ++cur_depth;
          ++local.sites_considered;  // the residual call is scanned as a new site
          continue;
        }

        ++local.sites_inlined;
        local.max_depth_reached = std::max(local.max_depth_reached, cur_depth + 1);
        const auto [pre_insns, pre_words] = facts.preamble(callee, insn.b);
        caller_words += pre_words + facts.body_words(callee) - facts.call_words();
        vpc += static_cast<std::size_t>(pre_insns);
        chain.push_back(callee);
        ++pushes;
        self(self, callee, cur_depth + 1);
        break;
      }
      while (pushes-- > 0) chain.pop_back();
    }
  };
  scan(scan, root, 0);

  local.size_after_words = caller_words;
  return local;
}

}  // namespace

ProgramFacts::ProgramFacts(const bc::Program& prog)
    : prog_(prog),
      methods_(prog.num_methods()),
      store_words_(bc::estimated_words(bc::Instruction{bc::Op::kStore, 0, 0})),
      load_words_(bc::estimated_words(bc::Instruction{bc::Op::kLoad, 0, 0})),
      const_words_(bc::estimated_words(bc::Instruction{bc::Op::kConst, 0, 0})),
      call_words_(bc::estimated_words(bc::Instruction{bc::Op::kCall, 0, 0})) {
  for (std::size_t i = 0; i < methods_.size(); ++i) {
    const auto id = static_cast<bc::MethodId>(i);
    const bc::Method& m = prog.method(id);
    MethodFacts& f = methods_[i];
    f.est_size = bc::estimated_method_size(m);
    for (const bc::Instruction& insn : m.code()) {
      f.body_words += bc::estimated_words(
          insn.op == bc::Op::kRet ? bc::Instruction{bc::Op::kJmp, 0, 0} : insn);
    }
    f.inlinable = Inliner::is_inlinable(prog, id);
    // The splice-only facts are read only after the inlinable guard passed.
    if (f.inlinable) {
      f.needs_prologue = !non_arg_locals_definitely_assigned(m);
      f.partial = partial_inline_shape(m);
    }
  }
}

std::pair<int, int> ProgramFacts::preamble(bc::MethodId callee, int nargs) const {
  const int zeroed =
      at(callee).needs_prologue ? std::max(0, prog_.method(callee).num_locals() - nargs) : 0;
  return {nargs + 2 * zeroed, nargs * store_words_ + zeroed * (const_words_ + store_words_)};
}

DecisionProbe::DecisionProbe(const ProgramFacts& facts, const heur::InlineHeuristic& heuristic,
                             SiteOracle oracle, InlineLimits limits)
    : facts_(facts), heuristic_(heuristic), oracle_(std::move(oracle)), limits_(limits) {
  ITH_CHECK(oracle_ != nullptr, "DecisionProbe requires a site oracle");
}

std::vector<ProbeDecision> DecisionProbe::probe_method(bc::MethodId root,
                                                       InlineStats* stats) const {
  std::vector<ProbeDecision> trace;
  const InlineStats local =
      replay(facts_, heuristic_, oracle_, limits_, root,
             [&](const heur::InlineRequest& req, const heur::InlineDecision& decision) {
               ProbeDecision pd;
               pd.root = root;
               pd.callee = req.callee;
               pd.call_pc = req.call_pc;
               pd.depth = req.depth;
               pd.callee_size = req.callee_size;
               pd.caller_size = req.caller_size;
               pd.head_size = req.head_size;
               pd.is_hot = req.is_hot;
               pd.site_count = req.site_count;
               pd.inlined = decision.inline_it;
               pd.partial = decision.partial;
               pd.rule = decision.rule;
               trace.push_back(pd);
             });
  if (stats != nullptr) *stats = local;
  return trace;
}

std::uint64_t DecisionProbe::verdict_key(bc::MethodId root) const {
  return replay(facts_, heuristic_, oracle_, limits_, root,
                [](const heur::InlineRequest&, const heur::InlineDecision&) {})
      .verdict_key;
}

SignatureResult decision_signature(const bc::Program& prog, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts) {
  return decision_signature(ProgramFacts(prog), params, limits, opts);
}

SignatureResult decision_signature(const ProgramFacts& facts, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts) {
  const bc::Program& prog = facts.program();
  const heur::JikesHeuristic heuristic(params);
  SignatureResult result;

  // One scan level of one exploration path: scanning the original code of
  // `method` (frame index == inline depth; frames[1..] are the chain).
  //
  // A *residual* frame models the re-call a partial splice leaves behind:
  // it scans no code — it IS one pending call to `method`, carrying the
  // origin-site identity its profile lookups key on and the arg count of
  // the original call. `j` doubles as its resolved marker (0 = the call is
  // still to be consulted, nonzero = consultation done, pop on return).
  struct Frame {
    bc::MethodId method;
    std::uint32_t j = 0;
    bool residual = false;
    bc::MethodId origin_m = -1;
    std::int32_t origin_j = -1;
    int nargs = 0;
  };
  // One profile-consistent exploration path through a root's decision tree.
  // `hot` is the partial hot/cold labelling this path has committed to;
  // consultations where both labellings agree leave the site unlabelled so
  // a later divergent consultation of the same site can still fork.
  struct Path {
    std::vector<Frame> frames;
    int caller_words = 0;
    std::map<std::pair<bc::MethodId, std::int32_t>, bool> hot;
    std::uint64_t hash = kFnv1aBasis;
  };

  // Three-valued verdict: refuse / inline fully / splice the guard head.
  struct Verdict {
    bool inline_it = false;
    bool partial = false;
    bool operator==(const Verdict& o) const {
      return inline_it == o.inline_it && partial == o.partial;
    }
    bool operator!=(const Verdict& o) const { return !(*this == o); }
  };

  const auto verdict_for = [&](bc::MethodId root, bc::MethodId callee, std::size_t depth,
                               int caller_words, bool is_hot) {
    heur::InlineRequest req;
    req.caller = root;
    req.callee = callee;
    req.callee_size = facts.est_size(callee);
    req.caller_size = caller_words;
    req.depth = static_cast<int>(depth);
    req.head_size = facts.head_size(callee);
    req.is_hot = is_hot;
    req.site_count = is_hot ? 1 : 0;  // fig3/fig4 ignore the count
    const heur::InlineDecision d = heuristic.decide(req);
    return Verdict{d.inline_it, d.partial};
  };

  std::uint64_t events = 0;
  std::uint64_t sig = kFnv1aBasis;

  // Budget overflow: fall back to hashing the raw parameter vector. Sound
  // (distinct params stay distinct) but collapse-free.
  const auto overflow = [&] {
    std::uint64_t h = kFnv1aBasis;
    for (const int v : params.to_array()) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
    result.value = h;
    result.exact = false;
    result.consultations = events;
    return result;
  };

  // Each method is a potential compilation root (the adaptive VM recompiles
  // any method the profiler promotes); the per-root decision trees are
  // hashed in method order.
  const auto num_methods = static_cast<bc::MethodId>(prog.num_methods());
  for (bc::MethodId root = 0; root < num_methods; ++root) {
    sig = fnv1a_u64(sig, static_cast<std::uint64_t>(root));

    std::vector<Path> pending;
    {
      Path p;
      p.frames.push_back(Frame{root, 0});
      p.caller_words = facts.est_size(root);
      pending.push_back(std::move(p));
    }

    while (!pending.empty()) {
      Path cur = std::move(pending.back());
      pending.pop_back();

      // Consults the heuristic about calling `callee` at `depth` from the
      // current path state, forking on hot/cold divergence of the origin
      // site `key` and hashing the committed verdict. Forking copies `cur`
      // but never mutates cur.frames, so Frame references stay valid.
      const auto consult = [&](bc::MethodId callee, std::size_t depth,
                               std::pair<bc::MethodId, std::int32_t> key) {
        Verdict v;
        const auto assigned = cur.hot.find(key);
        if (!opts.adaptive) {
          v = verdict_for(root, callee, depth, cur.caller_words, /*is_hot=*/false);
        } else if (assigned != cur.hot.end()) {
          v = verdict_for(root, callee, depth, cur.caller_words, assigned->second);
        } else {
          const Verdict cold = verdict_for(root, callee, depth, cur.caller_words, false);
          const Verdict hot = verdict_for(root, callee, depth, cur.caller_words, true);
          if (cold != hot) {
            // The labelling of this origin site matters from here on:
            // explore both. The forked path re-executes this consultation
            // when popped (its cursor still points at the call), now
            // finding the site committed hot.
            ++result.forks;
            Path alt = cur;
            alt.hot[key] = true;
            alt.hash = fnv1a_byte(alt.hash, kForkHot);
            pending.push_back(std::move(alt));
            cur.hot[key] = false;
            cur.hash = fnv1a_byte(cur.hash, kForkCold);
          }
          v = cold;
        }
        ++result.consultations;
        cur.hash = fnv1a_byte(
            cur.hash, !v.inline_it ? kConsultNo : (v.partial ? kConsultPartial : kConsultYes));
        return v;
      };

      while (!cur.frames.empty()) {
        // Re-fetched every step: splices push frames and completed levels
        // pop them, either of which invalidates references into the vector.
        Frame& f = cur.frames.back();

        if (f.residual) {
          if (f.j != 0) {
            // The residual call was approved and its pushed frames have
            // returned; this level is done.
            cur.frames.pop_back();
            continue;
          }
          const bc::MethodId callee = f.method;
          const std::size_t depth = cur.frames.size() - 1;
          std::vector<bc::MethodId> chain;
          chain.reserve(depth);
          for (std::size_t k = 1; k < cur.frames.size(); ++k) {
            chain.push_back(cur.frames[k].method);
          }
          if (!structurally_ok(facts, limits, chain, static_cast<int>(depth), cur.caller_words,
                               callee)) {
            // Structural refusals are not consultations: no hash byte, the
            // residual call simply stays as emitted.
            cur.frames.pop_back();
            continue;
          }
          if (++events > opts.max_events) return overflow();
          const Verdict v = consult(callee, depth, {f.origin_m, f.origin_j});
          if (!v.inline_it) {
            cur.frames.pop_back();
            continue;
          }
          const bc::MethodId om = f.origin_m;
          const std::int32_t oj = f.origin_j;
          const int nargs = f.nargs;
          f.j = 1;  // resolved; pop when the pushed frames return
          if (v.partial) {
            cur.caller_words += facts.partial_delta(callee, nargs);
            cur.frames.push_back(Frame{callee, 0, true, om, oj, nargs});
          } else {
            cur.caller_words += facts.preamble(callee, nargs).second + facts.body_words(callee) -
                                facts.call_words();
            cur.frames.push_back(Frame{callee, 0});
          }
          continue;
        }

        const bc::Method& method = prog.method(f.method);
        if (f.j >= method.size()) {
          cur.frames.pop_back();
          continue;
        }
        const bc::Instruction insn = method.code()[f.j];
        if (insn.op != bc::Op::kCall) {
          ++f.j;
          continue;
        }
        const bc::MethodId callee = insn.a;
        const std::size_t depth = cur.frames.size() - 1;
        std::vector<bc::MethodId> chain;
        chain.reserve(depth);
        for (std::size_t k = 1; k < cur.frames.size(); ++k) {
          chain.push_back(cur.frames[k].method);
        }
        if (!structurally_ok(facts, limits, chain, static_cast<int>(depth), cur.caller_words,
                             callee)) {
          ++f.j;
          continue;
        }

        if (++events > opts.max_events) return overflow();

        const auto key = std::make_pair(f.method, static_cast<std::int32_t>(f.j));
        const Verdict v = consult(callee, depth, key);
        if (!v.inline_it) {
          ++f.j;
          continue;
        }
        // Advance past the call *before* pushing the callee frame (the push
        // may reallocate, and the popped-back frame must resume after it).
        const bc::MethodId origin_m = f.method;
        const auto origin_j = static_cast<std::int32_t>(f.j);
        ++f.j;
        if (v.partial) {
          cur.caller_words += facts.partial_delta(callee, insn.b);
          cur.frames.push_back(Frame{callee, 0, true, origin_m, origin_j, insn.b});
        } else {
          const auto [pre_insns, pre_words] = facts.preamble(callee, insn.b);
          (void)pre_insns;  // the signature never needs pc positions
          cur.caller_words += pre_words + facts.body_words(callee) - facts.call_words();
          cur.frames.push_back(Frame{callee, 0});
        }
      }

      sig = fnv1a_u64(sig, cur.hash);
      sig = fnv1a_byte(sig, kPathEnd);
    }
  }

  result.value = sig;
  return result;
}

}  // namespace ith::opt
