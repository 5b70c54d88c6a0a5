#include "resilience/checkpoint.hpp"

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/record_file.hpp"

namespace ith::resilience {

namespace {

constexpr RecordFormat kFormat = {"ITHGACP1", "checkpoint", "a GA checkpoint"};

void write_genome(ByteWriter& w, const std::vector<int>& g) {
  w.u64(g.size());
  for (const int x : g) w.i64(x);
}

std::vector<int> read_genome(ByteReader& r) {
  const std::uint64_t n = r.count(r.u64());
  std::vector<int> g;
  g.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) g.push_back(static_cast<int>(r.i64()));
  return g;
}

std::string serialize(const GaCheckpoint& cp) {
  ByteWriter w;
  w.u64(cp.fingerprint);
  w.i64(cp.generation);
  w.u64(cp.rng_state);
  w.u64(cp.rng_inc);
  w.u64(cp.evaluations);
  w.u64(cp.cache_hits);
  w.f64(cp.best_ever);
  write_genome(w, cp.best_genome);
  w.i64(cp.stale);
  w.u64(cp.population.size());
  for (const ga::Genome& g : cp.population) write_genome(w, g);
  w.u64(cp.fitness.size());
  for (const double f : cp.fitness) w.f64(f);
  w.u64(cp.cache.size());
  for (const auto& [g, f] : cp.cache) {
    write_genome(w, g);
    w.f64(f);
  }
  w.u64(cp.history.size());
  for (const ga::GenerationStats& gs : cp.history) {
    w.i64(gs.generation);
    w.f64(gs.best);
    w.f64(gs.mean);
    w.f64(gs.worst);
    w.f64(gs.diversity);
    write_genome(w, gs.best_genome);
  }
  w.u64(cp.quarantine.size());
  for (const std::vector<int>& q : cp.quarantine) write_genome(w, q);
  return w.bytes();
}

GaCheckpoint deserialize(const std::string& payload) {
  ByteReader r(payload, kFormat.label);
  GaCheckpoint cp;
  cp.fingerprint = r.u64();
  cp.generation = static_cast<int>(r.i64());
  cp.rng_state = r.u64();
  cp.rng_inc = r.u64();
  cp.evaluations = r.u64();
  cp.cache_hits = r.u64();
  cp.best_ever = r.f64();
  cp.best_genome = read_genome(r);
  cp.stale = static_cast<int>(r.i64());
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    cp.population.push_back(read_genome(r));
  }
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    cp.fitness.push_back(r.f64());
  }
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    ga::Genome g = read_genome(r);
    const double f = r.f64();
    cp.cache.emplace_back(std::move(g), f);
  }
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    ga::GenerationStats gs;
    gs.generation = static_cast<int>(r.i64());
    gs.best = r.f64();
    gs.mean = r.f64();
    gs.worst = r.f64();
    gs.diversity = r.f64();
    gs.best_genome = read_genome(r);
    cp.history.push_back(std::move(gs));
  }
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    cp.quarantine.push_back(read_genome(r));
  }
  if (!r.exhausted()) throw Error("checkpoint has trailing bytes (corrupted file)");
  return cp;
}

}  // namespace

void save_checkpoint(const std::string& path, const GaCheckpoint& cp) {
  write_record_file(path, kFormat, serialize(cp));
}

GaCheckpoint load_checkpoint(const std::string& path) {
  return deserialize(read_record_file(path, kFormat));
}

}  // namespace ith::resilience
