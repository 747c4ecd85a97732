// Span tracer for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark's own code around its calls
// into the system under test; nothing inside the program is instrumented.
// Every span is aggregated per layer (count, busy time, self time), where
// self time is the span's duration minus the part its child spans cover.
// Whole span trees are kept in memory for a sample only (every
// `sample_every`-th root span per thread, up to `sample_cap` spans per
// thread) and written out at the end as a Chrome trace-event file, which
// chrome://tracing and Perfetto open.
//
// Thread-safe: each thread keeps its own span stack and totals, registered
// with the tracer on first use and merged when totals() is read. A span
// must end on the thread that began it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] Nanos now_ns();

/// Process CPU time (user + system, all threads) in nanoseconds.
[[nodiscard]] Nanos process_cpu_ns();

struct LayerTotals {
  std::uint64_t count = 0;
  Nanos busy_ns = 0;
  Nanos self_ns = 0;
};

/// One sampled span: name (layer index), start, end and the span that
/// caused it (kNoParent for a root).
struct SpanRecord {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t layer = 0;
  std::uint32_t thread = 0;
  Nanos start = 0;
  Nanos end = 0;
};

class Tracer {
 public:
  explicit Tracer(std::vector<std::string> layers, std::size_t sample_every = 64,
                  std::size_t sample_cap = 1 << 15);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(std::uint32_t layer) { begin_at(layer, now_ns()); }
  void end() { end_at(now_ns()); }

  /// Clock-explicit forms, so tests can drive exact timings.
  void begin_at(std::uint32_t layer, Nanos t);
  void end_at(Nanos t);

  [[nodiscard]] const std::vector<std::string>& layers() const {
    return layers_;
  }
  [[nodiscard]] std::uint32_t layer(const std::string& name) const;

  /// Per-layer totals merged over every thread that recorded spans.
  [[nodiscard]] std::vector<LayerTotals> totals() const;
  [[nodiscard]] LayerTotals totals(const std::string& name) const;

  /// All sampled spans, ids unique across threads.
  [[nodiscard]] std::vector<SpanRecord> sampled() const;

  /// Writes the sampled spans as Chrome trace events ("X" events, times in
  /// microseconds relative to the tracer's creation). Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState& state();

  std::vector<std::string> layers_;
  std::size_t sample_every_;
  std::size_t sample_cap_;
  std::uint64_t instance_;
  Nanos origin_;
  mutable std::mutex mutex_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span; a null tracer makes it free (the untraced runs pass null).
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
