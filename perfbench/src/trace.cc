#include "trace.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Nanos process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::atomic<std::uint64_t> next_instance{1};

struct Frame {
  std::uint32_t layer = 0;
  Nanos start = 0;
  Nanos child = 0;  // time covered by completed child spans
  std::int64_t sample = -1;  // index into ThreadState::samples, or -1
};

}  // namespace

struct Tracer::ThreadState {
  std::uint32_t index = 0;
  std::vector<Frame> stack;
  std::vector<LayerTotals> totals;
  std::vector<SpanRecord> samples;
  std::uint64_t roots = 0;
  bool tree_sampled = false;
};

Tracer::Tracer(std::vector<std::string> layers, std::size_t sample_every,
               std::size_t sample_cap)
    : layers_(std::move(layers)),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      sample_cap_(sample_cap),
      instance_(next_instance.fetch_add(1)),
      origin_(now_ns()) {}

Tracer::~Tracer() = default;

std::uint32_t Tracer::layer(const std::string& name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return static_cast<std::uint32_t>(i);
  }
  throw std::invalid_argument("unknown trace layer: " + name);
}

Tracer::ThreadState& Tracer::state() {
  // One cache slot per thread: a thread that switches tracers (or meets a
  // new tracer at a recycled address) re-registers, keyed by instance id.
  thread_local std::uint64_t cached_instance = 0;
  thread_local ThreadState* cached = nullptr;
  if (cached_instance == instance_) return *cached;
  auto fresh = std::make_unique<ThreadState>();
  fresh->totals.resize(layers_.size());
  ThreadState* raw = fresh.get();
  {
    std::lock_guard lock(mutex_);
    raw->index = static_cast<std::uint32_t>(threads_.size());
    threads_.push_back(std::move(fresh));
  }
  cached_instance = instance_;
  cached = raw;
  return *raw;
}

void Tracer::begin_at(std::uint32_t layer, Nanos t) {
  ThreadState& s = state();
  if (s.stack.empty()) s.tree_sampled = (s.roots++ % sample_every_) == 0;
  std::int64_t sample = -1;
  if (s.tree_sampled && s.samples.size() < sample_cap_) {
    SpanRecord rec;
    rec.id = static_cast<std::uint32_t>(s.index * sample_cap_ +
                                        s.samples.size());
    if (!s.stack.empty() && s.stack.back().sample >= 0) {
      rec.parent = s.samples[static_cast<std::size_t>(s.stack.back().sample)].id;
    }
    rec.layer = layer;
    rec.thread = s.index;
    rec.start = t;
    rec.end = t;
    sample = static_cast<std::int64_t>(s.samples.size());
    s.samples.push_back(rec);
  }
  s.stack.push_back(Frame{layer, t, 0, sample});
}

void Tracer::end_at(Nanos t) {
  ThreadState& s = state();
  if (s.stack.empty()) throw std::logic_error("span end without begin");
  const Frame f = s.stack.back();
  s.stack.pop_back();
  const Nanos duration = t - f.start;
  LayerTotals& totals = s.totals[f.layer];
  ++totals.count;
  totals.busy_ns += duration;
  totals.self_ns += duration - f.child;
  if (!s.stack.empty()) s.stack.back().child += duration;
  if (f.sample >= 0) s.samples[static_cast<std::size_t>(f.sample)].end = t;
}

std::vector<LayerTotals> Tracer::totals() const {
  std::vector<LayerTotals> merged(layers_.size());
  std::lock_guard lock(mutex_);
  for (const auto& thread : threads_) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      merged[i].count += thread->totals[i].count;
      merged[i].busy_ns += thread->totals[i].busy_ns;
      merged[i].self_ns += thread->totals[i].self_ns;
    }
  }
  return merged;
}

LayerTotals Tracer::totals(const std::string& name) const {
  return totals()[layer(name)];
}

std::vector<SpanRecord> Tracer::sampled() const {
  std::vector<SpanRecord> out;
  std::lock_guard lock(mutex_);
  for (const auto& thread : threads_) {
    out.insert(out.end(), thread->samples.begin(), thread->samples.end());
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const SpanRecord& span : sampled()) {
    const std::string& name = layers_[span.layer];
    const std::string category = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%lld}}",
                 first ? "" : ",", name.c_str(), category.c_str(),
                 static_cast<double>(span.start - origin_) / 1e3,
                 static_cast<double>(span.end - span.start) / 1e3,
                 span.thread, span.id,
                 span.parent == SpanRecord::kNoParent
                     ? -1LL
                     : static_cast<long long>(span.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
