#include "heuristics/inline_params.hpp"

#include <algorithm>
#include <sstream>

namespace ith::heur {

InlineParams::Array InlineParams::to_array() const {
  return {callee_max_size,     always_inline_size, max_inline_depth,
          caller_max_size,     hot_callee_max_size, partial_max_head_size};
}

InlineParams InlineParams::from_array(const Array& v) {
  InlineParams p;
  p.callee_max_size = v[0];
  p.always_inline_size = v[1];
  p.max_inline_depth = v[2];
  p.caller_max_size = v[3];
  p.hot_callee_max_size = v[4];
  p.partial_max_head_size = v[5];
  return p;
}

std::string InlineParams::to_string() const {
  std::ostringstream os;
  os << "[CALLEE_MAX_SIZE=" << callee_max_size << ", ALWAYS_INLINE_SIZE=" << always_inline_size
     << ", MAX_INLINE_DEPTH=" << max_inline_depth << ", CALLER_MAX_SIZE=" << caller_max_size
     << ", HOT_CALLEE_MAX_SIZE=" << hot_callee_max_size
     << ", PARTIAL_MAX_HEAD_SIZE=" << partial_max_head_size << "]";
  return os.str();
}

InlineParams default_params() { return InlineParams{}; }

const std::array<ParamRange, InlineParams::kNumParams>& param_ranges() {
  static const std::array<ParamRange, InlineParams::kNumParams> kRanges = {{
      // The ALWAYS_INLINE_SIZE range is reconstructed (the Table 1 row is
      // garbled in available copies of the paper): 1-30 brackets both the
      // default (11) and every tuned value the paper reports (6-16). Note
      // the resulting space is ~3.6e10, not the ~3e11 the paper quotes; no
      // assignment of the printed ranges reproduces that number exactly.
      {"CALLEE_MAX_SIZE", 1, 50, "Maximum callee size allowable to inline"},
      {"ALWAYS_INLINE_SIZE", 1, 30, "Callees smaller than this are always inlined"},
      {"MAX_INLINE_DEPTH", 1, 15, "Maximum inlining depth at a call site"},
      {"CALLER_MAX_SIZE", 1, 4000, "Maximum caller size to inline into"},
      {"HOT_CALLEE_MAX_SIZE", 1, 400, "Maximum hot callee to inline"},
      // Beyond the paper: guard-head budget for partial inlining. 0 (the
      // default) disables the transform, so the legacy five-dimensional
      // space is the lo edge of this axis.
      {"PARTIAL_MAX_HEAD_SIZE", 0, 40, "Maximum guard head to inline partially"},
  }};
  return kRanges;
}

InlineParams clamp_to_ranges(const InlineParams& p) {
  const auto& ranges = param_ranges();
  auto arr = p.to_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr[i] = std::clamp(arr[i], ranges[i].lo, ranges[i].hi);
  }
  return InlineParams::from_array(arr);
}

}  // namespace ith::heur
