// In-memory span recorder for the traced run.
//
// A span is (name, request id, parent span, start, end). The benchmark
// opens spans around its own calls into each layer's public functions —
// nothing inside the library is instrumented — keeps them in memory, and
// writes them out as JSON when the run ends. Per-layer metrics are read
// back from the spans: the per-request sum of a span name's durations,
// reduced to a median over requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span; nests under the innermost open span of this tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request)
        : tracer_(tracer), index_(tracer.open(std::move(name), request)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer() : start_(clock::now()) {}

  int open(std::string name, std::uint64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), request, parent, now_us(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  /// Records an already-measured interval (for calls timed elsewhere).
  void record(std::string name, std::uint64_t request, double start_us,
              double end_us) {
    spans_.push_back({std::move(name), request,
                      stack_.empty() ? -1 : stack_.back(), start_us, end_us});
  }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - start_)
        .count();
  }

  /// Per request, the summed duration (ms) of spans named `name`.
  [[nodiscard]] std::vector<double> per_request_ms(
      const std::string& name) const {
    std::map<std::uint64_t, double> sums;
    for (const Span& s : spans_) {
      if (s.name == name) sums[s.request] += (s.end_us - s.start_us) / 1e3;
    }
    std::vector<double> out;
    out.reserve(sums.size());
    for (const auto& [request, ms] : sums) out.push_back(ms);
    return out;
  }

  /// Median over requests of per_request_ms(name); 0 when never seen.
  [[nodiscard]] double median_ms(const std::string& name) const {
    const std::vector<double> v = per_request_ms(name);
    return v.empty() ? 0.0 : median(v);
  }

  /// Writes every span as JSON; returns false when the file cannot be
  /// opened.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                   "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                   i, s.name.c_str(),
                   static_cast<unsigned long long>(s.request), s.parent,
                   s.start_us, s.end_us, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
