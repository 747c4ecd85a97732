#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

void put_per_layer_defaults(RunResult& result) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"sim.queue_self_s", "s"},
      {"sim.send_batch_s", "s"},
      {"sim.events", "count"},
      {"sim.peak_queue_len", "count"},
      {"sim.events_per_datagram", "ratio"},
      {"gossip.on_round_s", "s"},
      {"gossip.encode_s", "s"},
      {"gossip.bytes_per_datagram", "B"},
      {"gossip.decode_s", "s"},
      {"gossip.on_wire_s", "s"},
      {"gossip.novel_ratio", "ratio"},
      {"gossip.drops_overflow", "count"},
      {"gossip.drops_age_limit", "count"},
      {"adaptive.broadcast_s", "s"},
      {"adaptive.refused", "count"},
      {"metrics.tracker_s", "s"},
      {"metrics.atomic_pct", "%"},
      {"core.teardown_s", "s"},
      {"runtime.broadcast_us_p50", "us"},
      {"runtime.broadcast_us_p99", "us"},
      {"runtime.send_batch_s", "s"},
      {"runtime.recv_burst_s", "s"},
      {"runtime.dispatch_wait_ms_p50", "ms"},
      {"runtime.dispatch_wait_ms_p99", "ms"},
      {"runtime.queue_depth_max", "count"},
      {"runtime.burst_len_mean", "count"},
      {"runtime.udp_send_syscalls_per_batch", "ratio"},
      {"runtime.udp_recv_syscalls_per_datagram", "ratio"},
      {"runtime.udp_send_retries", "count"},
      {"runtime.recv_busy_share", "ratio"},
      {"loadgen.late_ms_p99", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
  };
  for (const auto& [name, unit] : kPerLayer) result.put(name, 0.0, unit);
}

void print_layer_table(const Tracer& tracer, std::int64_t wall_ns,
                       const std::map<std::string, Percentiles>& waits) {
  const auto totals = tracer.totals();
  std::printf("%-22s %12s %11s %11s %8s %23s\n", "layer", "count", "busy s",
              "self s", "self %", "wait ms p50 / p99");
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const LayerTotals& t = totals[i];
    if (t.count == 0) continue;
    const std::string& name = tracer.layers()[i];
    std::printf("%-22s %12llu %11.4f %11.4f %7.2f%%", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.busy_ns) / 1e9,
                static_cast<double>(t.self_ns) / 1e9,
                100.0 * static_cast<double>(t.self_ns) /
                    static_cast<double>(wall_ns));
    if (const auto wait = waits.find(name); wait != waits.end()) {
      std::printf(" %11.3f / %9.3f", wait->second.p50, wait->second.p99);
    }
    std::printf("\n");
  }
}

}  // namespace perfbench
