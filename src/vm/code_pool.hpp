// CodePool: optimized method bodies handed from one VM to the next VM that
// runs the same program, keyed by the inline verdicts that produced them.
//
// For one program, one optimizing pipeline and one set of inline limits, the
// body the optimizer emits for a method depends only on the inliner's
// verdicts: each verdict fixes the rest of the inliner's scan, and every
// later pass is a deterministic function of the inlined body. The pool keeps
// one body per method together with its verdict key
// (opt::InlineStats::verdict_key). A VM about to compile an occupied method
// replays the inline decisions with the decision probe; on an equal key it
// takes the parked body instead of running the optimizer. Bodies are taken
// and returned, never copied: the VM owns a taken body while it runs and
// parks every installed optimized body again when it is destroyed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "opt/decision_probe.hpp"
#include "opt/pipeline.hpp"
#include "runtime/compiled.hpp"

namespace ith::vm {

class CodePool {
 public:
  /// One parked compilation: the body and the optimizer statistics its
  /// compilation reported.
  struct Entry {
    std::uint64_t verdict_key = opt::kVerdictKeyBasis;
    std::unique_ptr<rt::CompiledMethod> code;
    opt::OptStats stats;
  };

  /// `facts` is non-owning and must outlive the pool; its program is the
  /// one every served VM runs. `pipeline` and `limits` are the optimizer
  /// configuration those VMs must share.
  CodePool(const opt::ProgramFacts& facts, const opt::PipelineDesc& pipeline,
           opt::InlineLimits limits);

  const opt::ProgramFacts& facts() const { return facts_; }

  /// True when a VM over `prog` compiling with `pipeline` and `limits` may
  /// take and park bodies here.
  bool serves(const bc::Program& prog, const opt::PipelineDesc& pipeline,
              const opt::InlineLimits& limits) const;

  /// True when a body is parked for `id`.
  bool occupied(bc::MethodId id) const;
  /// Moves out the body parked for `id` if its verdict key is `key`.
  std::optional<Entry> take(bc::MethodId id, std::uint64_t key);
  /// Parks `entry` for `id`, replacing whatever was parked there.
  void put(bc::MethodId id, Entry entry);

 private:
  const opt::ProgramFacts& facts_;
  const std::string pipeline_;  ///< PipelineDesc::to_string()
  const opt::InlineLimits limits_;
  mutable std::mutex mu_;
  std::vector<Entry> slots_;  ///< one per method; guarded by mu_
};

}  // namespace ith::vm
