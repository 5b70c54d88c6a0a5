// Metric arithmetic and the in-memory span recorder used by the benchmark.
// Header-only so the self-test exercises exactly what the workloads use.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile: the ceil(q*n)-th smallest sample, q in [0, 1]
/// (q = 0 gives the minimum). Throws on an empty sample.
inline double nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("nearest_rank of an empty sample");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

/// The tail percentile reported beside the median: the highest of
/// p50/p90/p95/p99/p99.9 that leaves at least ten samples above its
/// nearest-rank position. Samples too few for any tail fall back to p50.
inline double tail_quantile(std::size_t n) {
  constexpr double kCandidates[] = {0.999, 0.99, 0.95, 0.9};
  for (const double q : kCandidates) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n >= rank + 10) return q;
  }
  return 0.5;
}

/// `num / den`, or 0 when the base is 0 (the base is always reported too).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
  std::size_t n = 0;
};

/// Median and guide-rule tail of a sample; all zero for an empty sample.
inline Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.p50 = nearest_rank(xs, 0.5);
  s.tail_q = tail_quantile(xs.size());
  s.tail = nearest_rank(xs, s.tail_q);
  return s;
}

/// Shortest decimal that round-trips to the same double.
inline std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Spans kept in memory for the whole traced run. Single-threaded: spans
/// nest strictly, so a span's parent is whatever was open when it started.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int open(std::string name) { return push(std::move(name), now_s()); }
  void close(int id) { close_at(id, now_s()); }
  /// Renames an open span (an evaluate() call becomes a hit or a miss only
  /// once it has returned).
  void rename(int id, std::string name) { spans_.at(static_cast<std::size_t>(id)).name = std::move(name); }

  /// Explicit-time variants, for the self-test.
  int open_at(std::string name, double t) { return push(std::move(name), t); }
  void close_at(int id, double t) {
    if (stack_.empty() || stack_.back() != id) throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(id)].end = t;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part its
  /// children cover.
  std::map<std::string, double> self_time() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Self time summed per layer (the span-name prefix before the first '.').
  std::map<std::string, double> layer_self_time() const {
    std::map<std::string, double> out;
    for (const auto& [name, t] : self_time()) out[name.substr(0, name.find('.'))] += t;
    return out;
  }

  /// Wall time covered by top-level spans.
  double top_level_time() const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) t += s.end - s.start;
    }
    return t;
  }

  /// Durations of every span with this exact name, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Summed duration, children included, of every span with this name.
  double total(const std::string& name) const {
    double t = 0.0;
    for (const double d : durations(name)) t += d;
    return t;
  }

  /// Adds closed spans recorded by another clock on the same thread (the
  /// program's own obs spans, microsecond resolution), in the order they
  /// ended. Each nests under the innermost added span that contains it or,
  /// failing that, under the innermost recorded span containing its
  /// midpoint, and is clipped to its parent. Call once, with no span open.
  void graft(const std::vector<Span>& extra) {
    if (!stack_.empty()) throw std::logic_error("graft with a span open");
    const std::size_t own = spans_.size();
    std::vector<std::size_t> order(extra.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Outer spans first; of two with the same interval, the one that ended
    // later (the parent) first.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (extra[a].start != extra[b].start) return extra[a].start < extra[b].start;
      if (extra[a].end != extra[b].end) return extra[a].end > extra[b].end;
      return a > b;
    });
    std::vector<std::size_t> open;  // indices into `extra`, outermost first
    std::vector<int> id(extra.size(), -1);
    for (const std::size_t k : order) {
      const Span& e = extra[k];
      while (!open.empty() && extra[open.back()].end < e.end) open.pop_back();
      Span s = e;
      s.parent = open.empty() ? innermost_at((e.start + e.end) / 2, own) : id[open.back()];
      if (s.parent >= 0) {
        const Span& p = spans_[static_cast<std::size_t>(s.parent)];
        s.start = std::clamp(s.start, p.start, p.end);
        s.end = std::clamp(s.end, s.start, p.end);
      }
      id[k] = static_cast<int>(spans_.size());
      spans_.push_back(std::move(s));
      open.push_back(k);
    }
  }

 private:
  /// The innermost of the first `n` spans (recorded in start order) that
  /// contains time `t`, or -1.
  int innermost_at(double t, std::size_t n) const {
    const auto first = spans_.begin();
    const auto it = std::upper_bound(first, first + static_cast<std::ptrdiff_t>(n), t,
                                     [](double v, const Span& s) { return v < s.start; });
    int i = static_cast<int>(it - first) - 1;
    while (i >= 0 && spans_[static_cast<std::size_t>(i)].end < t) {
      i = spans_[static_cast<std::size_t>(i)].parent;
    }
    return i;
  }

  int push(std::string name, double t) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), t, t, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tr, std::string name) : tr_(tr), id_(tr ? tr->open(std::move(name)) : -1) {}
  ~Scope() {
    if (tr_ != nullptr) tr_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(std::string name) {
    if (tr_ != nullptr) tr_->rename(id_, std::move(name));
  }

 private:
  Tracer* tr_;
  int id_;
};

/// Named metrics with units, printed as the result line's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  /// A timing sample as `<name>.p50`, `.tail`, `.tail_q` and `.n`.
  void set_summary(const std::string& name, const std::vector<double>& xs,
                   const std::string& unit) {
    const Summary s = summarize(xs);
    set(name + ".p50", s.p50, unit);
    set(name + ".tail", s.tail, unit);
    set(name + ".tail_q", s.tail_q, "quantile");
    set(name + ".n", static_cast<double>(s.n), "count");
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!std::isfinite(items_[i].value)) {
        throw std::domain_error("metric " + items_[i].name + " is not finite");
      }
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + format_double(items_[i].value) +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench
