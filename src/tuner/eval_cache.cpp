#include "tuner/eval_cache.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/record_file.hpp"

namespace ith::tuner {

namespace {

constexpr RecordFormat kFormat = {"ITHEVC1", "evaluation cache", "an evaluation cache"};

void write_results(ByteWriter& w, const std::vector<BenchmarkResult>& results) {
  w.u64(results.size());
  for (const BenchmarkResult& br : results) {
    w.str(br.name);
    w.u64(br.running_cycles);
    w.u64(br.total_cycles);
    w.u64(br.compile_cycles);
    w.u64(static_cast<std::uint64_t>(br.outcome.kind));
    w.u64(static_cast<std::uint64_t>(br.outcome.budget));
    w.u64(static_cast<std::uint64_t>(br.outcome.trap));
    w.str(br.outcome.detail);
    w.i64(br.attempts);
  }
}

std::vector<BenchmarkResult> read_results(ByteReader& r) {
  std::vector<BenchmarkResult> results;
  for (std::uint64_t j = 0, m = r.count(r.u64()); j < m; ++j) {
    BenchmarkResult br;
    br.name = r.str();
    br.running_cycles = r.u64();
    br.total_cycles = r.u64();
    br.compile_cycles = r.u64();
    br.outcome.kind = static_cast<resilience::OutcomeKind>(r.u64());
    br.outcome.budget = static_cast<resilience::BudgetKind>(r.u64());
    br.outcome.trap = static_cast<resilience::TrapKind>(r.u64());
    br.outcome.detail = r.str();
    br.attempts = static_cast<int>(r.i64());
    results.push_back(std::move(br));
  }
  return results;
}

std::string serialize(const EvalCacheSnapshot& snap) {
  ByteWriter w;
  w.u64(snap.fingerprint);
  w.u64(snap.entries.size());
  for (const EvalCacheSnapshot::Entry& e : snap.entries) {
    w.u64(e.signature);
    write_results(w, e.results);
  }
  w.u64(snap.quarantined.size());
  for (const std::uint64_t sig : snap.quarantined) w.u64(sig);
  return w.bytes();
}

EvalCacheSnapshot deserialize(const std::string& payload) {
  ByteReader r(payload, kFormat.label);
  EvalCacheSnapshot snap;
  snap.fingerprint = r.u64();
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    EvalCacheSnapshot::Entry e;
    e.signature = r.u64();
    e.results = read_results(r);
    snap.entries.push_back(std::move(e));
  }
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    snap.quarantined.push_back(r.u64());
  }
  if (!r.exhausted()) throw Error("evaluation cache has trailing bytes (corrupted file)");
  return snap;
}

/// Number of non-ok outcomes — the first key of the conflict-resolution
/// order, so federation deterministically prefers the run where fewer
/// benchmarks failed (wall-clock verdicts are host-timing-dependent, the
/// one legitimate source of divergent results for one signature).
std::size_t failed_count(const std::vector<BenchmarkResult>& results) {
  std::size_t n = 0;
  for (const BenchmarkResult& br : results) {
    if (!br.outcome.ok()) ++n;
  }
  return n;
}

}  // namespace

void save_eval_cache(const std::string& path, const EvalCacheSnapshot& snap) {
  write_record_file(path, kFormat, serialize(snap));
}

EvalCacheSnapshot load_eval_cache(const std::string& path) {
  remove_stale_tmp(path);
  return deserialize(read_record_file(path, kFormat));
}

std::string encode_results(const std::vector<BenchmarkResult>& results) {
  ByteWriter w;
  write_results(w, results);
  return w.bytes();
}

std::vector<BenchmarkResult> decode_results(const std::string& bytes) {
  ByteReader r(bytes, kFormat.label);
  std::vector<BenchmarkResult> results = read_results(r);
  if (!r.exhausted()) throw Error("evaluation results have trailing bytes");
  return results;
}

SnapshotMergeStats merge_eval_snapshots(EvalCacheSnapshot& dst, const EvalCacheSnapshot& src) {
  ITH_CHECK(dst.fingerprint == src.fingerprint,
            "evaluation cache fingerprint mismatch: cannot federate snapshots from different "
            "configurations");
  SnapshotMergeStats stats;

  std::map<std::uint64_t, std::size_t> by_sig;
  for (std::size_t i = 0; i < dst.entries.size(); ++i) by_sig.emplace(dst.entries[i].signature, i);

  for (const EvalCacheSnapshot::Entry& incoming : src.entries) {
    const auto it = by_sig.find(incoming.signature);
    if (it == by_sig.end()) {
      by_sig.emplace(incoming.signature, dst.entries.size());
      dst.entries.push_back(incoming);
      ++stats.added;
      continue;
    }
    EvalCacheSnapshot::Entry& held = dst.entries[it->second];
    const std::string held_bytes = encode_results(held.results);
    const std::string incoming_bytes = encode_results(incoming.results);
    if (held_bytes == incoming_bytes) {
      ++stats.duplicates;
      continue;
    }
    // Deterministic winner over a total order: (failed benchmarks, encoded
    // bytes). A min over a total order is commutative and associative, so
    // any merge order of any snapshot set converges on one canonical cache.
    ++stats.conflicts;
    const auto held_key = std::make_pair(failed_count(held.results), held_bytes);
    const auto incoming_key = std::make_pair(failed_count(incoming.results), incoming_bytes);
    if (incoming_key < held_key) held.results = incoming.results;
  }

  std::set<std::uint64_t> quarantine(dst.quarantined.begin(), dst.quarantined.end());
  quarantine.insert(src.quarantined.begin(), src.quarantined.end());
  dst.quarantined.assign(quarantine.begin(), quarantine.end());

  std::sort(dst.entries.begin(), dst.entries.end(),
            [](const EvalCacheSnapshot::Entry& a, const EvalCacheSnapshot::Entry& b) {
              return a.signature < b.signature;
            });
  return stats;
}

}  // namespace ith::tuner
