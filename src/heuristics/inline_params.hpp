// The five tunable inlining parameters from Table 1 of the paper, plus the
// default values Jikes RVM 2.3.3 ships with (Table 4, column "Default"),
// plus one dimension beyond the paper: PARTIAL_MAX_HEAD_SIZE, the size
// threshold for partially inlining the guard head of a too-big callee
// (0 = disabled, which reproduces Table 1's original space exactly).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ith::heur {

/// One setting of the inlining heuristic. This is exactly the genome the
/// genetic algorithm evolves.
struct InlineParams {
  int callee_max_size = 23;      ///< CALLEE_MAX_SIZE: max callee size allowed to inline
  int always_inline_size = 11;   ///< ALWAYS_INLINE_SIZE: callees below this always inline
  int max_inline_depth = 5;      ///< MAX_INLINE_DEPTH: max depth at a call site
  int caller_max_size = 2048;    ///< CALLER_MAX_SIZE: max caller size to inline into
  int hot_callee_max_size = 135; ///< HOT_CALLEE_MAX_SIZE: max hot callee size (Adapt only)
  /// PARTIAL_MAX_HEAD_SIZE: when a callee is rejected for size (fig3/fig4)
  /// but its pure guard head is at most this many words, inline just the
  /// head and leave the cold tail behind the original call. 0 disables
  /// partial inlining, collapsing the space back to the paper's five
  /// dimensions with bit-identical decisions.
  int partial_max_head_size = 0;

  /// Number of tunable parameters (the genome length). Everything keyed on
  /// the flattened form — GA genomes, the SuiteEvaluator memoization key —
  /// derives its size from this constant, and the static_assert below
  /// forces anyone adding another field to update it (and to_array /
  /// from_array) in the same change.
  static constexpr std::size_t kNumParams = 6;
  using Array = std::array<int, kNumParams>;

  friend bool operator==(const InlineParams&, const InlineParams&) = default;

  /// Values in Table 1 order (the genome layout).
  Array to_array() const;
  static InlineParams from_array(const Array& v);

  std::string to_string() const;
};

static_assert(sizeof(InlineParams) == InlineParams::kNumParams * sizeof(int),
              "InlineParams field count changed: update kNumParams, to_array and from_array "
              "so flattened keys (GA genome, evaluator cache) cannot alias");

/// The Jikes RVM 2.3.3 defaults (paper Table 4, "Default" column).
InlineParams default_params();

/// Inclusive search ranges from Table 1.
struct ParamRange {
  const char* name;
  int lo;
  int hi;
  const char* description;  ///< Table 1's description column
};

/// Table 1 ranges (plus the PARTIAL_MAX_HEAD_SIZE extension), genome order.
/// The product of the first five spans is the paper's quoted ~3e11 search
/// space; the sixth widens it beyond what the paper explored.
const std::array<ParamRange, InlineParams::kNumParams>& param_ranges();

/// Clamps every field into its Table 1 range.
InlineParams clamp_to_ranges(const InlineParams& p);

}  // namespace ith::heur
