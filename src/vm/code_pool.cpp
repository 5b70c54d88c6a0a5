#include "vm/code_pool.hpp"

#include <utility>

namespace ith::vm {

CodePool::CodePool(const opt::ProgramFacts& facts, const opt::PipelineDesc& pipeline,
                   opt::InlineLimits limits)
    : facts_(facts),
      pipeline_(pipeline.to_string()),
      limits_(limits),
      slots_(facts.program().num_methods()) {}

bool CodePool::serves(const bc::Program& prog, const opt::PipelineDesc& pipeline,
                      const opt::InlineLimits& limits) const {
  return &prog == &facts_.program() && pipeline.to_string() == pipeline_ && limits == limits_;
}

bool CodePool::occupied(bc::MethodId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[static_cast<std::size_t>(id)].code != nullptr;
}

std::optional<CodePool::Entry> CodePool::take(bc::MethodId id, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& slot = slots_[static_cast<std::size_t>(id)];
  if (slot.code == nullptr || slot.verdict_key != key) return std::nullopt;
  return std::exchange(slot, Entry{});
}

void CodePool::put(bc::MethodId id, Entry entry) {
  Entry replaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  replaced = std::exchange(slots_[static_cast<std::size_t>(id)], std::move(entry));
}

}  // namespace ith::vm
