#include "sim/sharded_engine.h"

#include <algorithm>
#include <barrier>
#include <thread>

namespace agb::sim {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineParams params) {
  const std::size_t shard_count =
      round_up_pow2(std::max<std::size_t>(1, params.shards));
  mask_ = shard_count - 1;
  lookahead_ = std::max<DurationMs>(1, params.lookahead);
  sims_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  channels_.resize(shard_count);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_ = params.workers == 0 ? std::min(shard_count, hw)
                                 : std::min(params.workers, shard_count);
}

ShardedEngine::~ShardedEngine() = default;

std::optional<TimeMs> ShardedEngine::global_next_event() {
  std::optional<TimeMs> t;
  for (auto& sim : sims_) {
    const auto e = sim->next_event_time();
    if (e && (!t || *e < *t)) t = e;
  }
  return t;
}

TimeMs ShardedEngine::window_end_for(TimeMs start, TimeMs deadline) const {
  TimeMs end = start + lookahead_;
  if (boundary_) {
    // Land the barrier exactly one tick past the boundary, so shards have
    // fully executed time B when the serial phase samples.
    const TimeMs b = boundary_(start);
    if (b >= start && b + 1 < end) end = b + 1;
  }
  return std::min(end, deadline + 1);
}

void ShardedEngine::run_window(TimeMs window_end, std::size_t worker) {
  // Static shard -> worker assignment: outcome-neutral (all communication
  // rides the channels), chosen so a shard's cache state stays with one
  // thread across windows.
  for (std::size_t s = worker; s < sims_.size(); s += workers_) {
    sims_[s]->run_until(window_end - 1);
  }
}

void ShardedEngine::close_window(TimeMs window_end) {
  batch_.clear();
  // Fixed producer drain order; irrelevant to outcomes because of the
  // canonical sort. A sender lives on one shard, so its producer channel
  // witnesses its whole send sequence.
  for (ShardChannel& channel : channels_) {
    channel.drain(window_end, batch_);
  }
  // (at, from, seq, to) is a total order — (from, seq) is unique per
  // datagram — so plain sort yields one run-invariant sequence no matter
  // which worker produced which entry.
  std::sort(batch_.begin(), batch_.end(), canonical_before);
  if (hook_) hook_(window_end, batch_);
  ++windows_;
}

void ShardedEngine::run_windows_single(TimeMs deadline) {
  while (true) {
    const auto t = global_next_event();
    if (!t || *t > deadline) break;
    const TimeMs end = window_end_for(*t, deadline);
    run_window(end, 0);
    close_window(end);
  }
}

void ShardedEngine::run_windows_threaded(TimeMs deadline) {
  const std::size_t workers = workers_;
  // Two-gate fork-join: the main thread (worker 0) computes the window in
  // the serial phase, releases the pool through `start`, joins the parallel
  // phase itself, then collects everyone at `done` before touching shared
  // state. The barriers publish window_end / stop to the pool and every
  // shard's mutations back to the serial phase.
  std::barrier start_gate(static_cast<std::ptrdiff_t>(workers));
  std::barrier done_gate(static_cast<std::ptrdiff_t>(workers));
  TimeMs window_end = 0;
  bool stop = false;

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([this, w, &start_gate, &done_gate, &window_end, &stop] {
      while (true) {
        start_gate.arrive_and_wait();
        if (stop) return;
        run_window(window_end, w);
        done_gate.arrive_and_wait();
      }
    });
  }

  while (true) {
    const auto t = global_next_event();
    if (!t || *t > deadline) break;
    window_end = window_end_for(*t, deadline);
    start_gate.arrive_and_wait();
    run_window(window_end, 0);
    done_gate.arrive_and_wait();
    close_window(window_end);
  }

  stop = true;
  start_gate.arrive_and_wait();
  for (std::thread& worker : pool) worker.join();
}

void ShardedEngine::run_until(TimeMs deadline) {
  if (workers_ <= 1 || sims_.size() <= 1) {
    run_windows_single(deadline);
  } else {
    run_windows_threaded(deadline);
  }
  // No shard holds an event with timestamp <= deadline any more; advance
  // every clock to the deadline (runs nothing, mirrors Simulator::run_until
  // semantics for the whole engine).
  for (auto& sim : sims_) sim->run_until(deadline);
}

std::size_t ShardedEngine::peak_pending_events() const {
  std::size_t sum = 0;
  for (const auto& sim : sims_) sum += sim->peak_pending_events();
  return sum;
}

}  // namespace agb::sim
