// Persistent evaluation cache: serializes an EvalCacheSnapshot (the
// SuiteEvaluator's signature->results map plus the quarantine) to a single
// binary file, so a later tuning run against the same evaluator
// configuration starts warm and skips every suite execution it has already
// paid for. Format "ITHEVC1" is a support/record_file.hpp record, which owns
// the envelope (magic, size, FNV-1a checksum), the byte codec and the
// tmp+rename atomic publish.
//
// The configuration fingerprint inside the snapshot is what makes reuse
// safe: SuiteEvaluator::restore() refuses a snapshot whose fingerprint does
// not match the live evaluator, so a cache recorded under a different
// machine model / scenario / fault plan / workload set can never leak stale
// results into a run.
#pragma once

#include <string>

#include "tuner/evaluator.hpp"

namespace ith::tuner {

/// Writes the snapshot to `path` atomically. Throws ith::Error on I/O failure.
void save_eval_cache(const std::string& path, const EvalCacheSnapshot& snap);

/// Loads and validates a cache file, throwing ith::Error with a distinct
/// message per failure mode (see read_record_file). Fingerprint compatibility
/// is *not* checked here — that is SuiteEvaluator::restore()'s job, against
/// the live configuration. A stale tmp sibling left by a crashed save is
/// swept first (remove_stale_tmp).
EvalCacheSnapshot load_eval_cache(const std::string& path);

/// Wire encoding of one suite-run result vector (count + per-result
/// fields) — byte-identical to how snapshot entries embed results, and the
/// payload encoding the evaluation-service protocol ships per signature.
std::string encode_results(const std::vector<BenchmarkResult>& results);

/// Inverse of encode_results. Throws ith::Error on truncation or trailing
/// bytes.
std::vector<BenchmarkResult> decode_results(const std::string& bytes);

/// Federation: merging two snapshots of the same configuration.
struct SnapshotMergeStats {
  std::size_t added = 0;       ///< signatures only `src` knew
  std::size_t duplicates = 0;  ///< identical entries on both sides
  std::size_t conflicts = 0;   ///< same signature, different results bytes
};

/// Merges `src` into `dst`. Throws ith::Error when the fingerprints differ
/// (results from different configurations must never mix). Conflicting
/// entries — possible because host wall-clock budget verdicts are timing-
/// dependent — are resolved by a deterministic total order (fewest failed
/// benchmarks first, then smallest encoding), which makes federation
/// commutative and associative: any merge order of any snapshot set yields
/// one canonical cache. `dst`'s entries come out sorted by signature.
SnapshotMergeStats merge_eval_snapshots(EvalCacheSnapshot& dst, const EvalCacheSnapshot& src);

}  // namespace ith::tuner
