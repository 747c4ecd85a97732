// The benchmark's own tests: the statistics it reports, the tracer's self
// time, the traced-vs-untraced identity gate, and input determinism.
// Prints one line per failed check and exits non-zero if any failed.
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/scenario_registry.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAILED: %s\n", what.c_str());
  }
}

void percentile_helper_reports_count_and_supported_tail() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const auto p = perfbench::percentiles(samples);
  check(p.count == 1000, "count of 1000 samples");
  check(p.p50 == 500.0, "p50 of 1..1000 is 500");
  check(p.p99 == 990.0, "p99 of 1..1000 is 990");
  // 10 samples lie beyond p99 (991..1000), only 1 beyond p99.9.
  check(p.top_q == 0.99, "highest supported percentile of 1000 is p99");
  check(p.top == 990.0, "its value");

  samples.resize(20);
  const auto twenty = perfbench::percentiles(samples);
  check(twenty.top_q == 0.5, "20 samples support only the median");
  samples.resize(19);
  const auto nineteen = perfbench::percentiles(samples);
  check(nineteen.top_q == 0.0, "19 samples support no percentile");
  check(nineteen.count == 19, "count of 19 samples");
  check(perfbench::percentiles({}).count == 0, "empty input");
}

void self_time_subtracts_nested_children() {
  perfbench::Tracer tracer({"a", "b", "c"}, /*sample_every=*/1);
  tracer.begin_at(0, 0);      // a [0, 100)
  tracer.begin_at(1, 10);     //   b [10, 30)
  tracer.end_at(30);
  tracer.begin_at(1, 40);     //   b [40, 60)
  tracer.begin_at(2, 45);     //     c [45, 50)
  tracer.end_at(50);
  tracer.end_at(60);
  tracer.end_at(100);
  const auto a = tracer.totals("a");
  const auto b = tracer.totals("b");
  const auto c = tracer.totals("c");
  check(a.count == 1 && a.busy_ns == 100 && a.self_ns == 60,
        "a: busy 100, self 100 - 20 - 20");
  check(b.count == 2 && b.busy_ns == 40 && b.self_ns == 35,
        "b: busy 20 + 20, self 20 + 15");
  check(c.count == 1 && c.busy_ns == 5 && c.self_ns == 5, "c: leaf");
  const auto spans = tracer.sampled();
  check(spans.size() == 4, "all four spans sampled");
  if (spans.size() == 4) {
    check(spans[0].parent == perfbench::SpanRecord::kNoParent, "a is a root");
    check(spans[1].parent == spans[0].id && spans[2].parent == spans[0].id,
          "b's parent is a");
    check(spans[3].parent == spans[2].id, "c's parent is the second b");
    check(spans[3].start == 45 && spans[3].end == 50, "c's interval");
  }
}

void comparison_rejects_perturbed_records() {
  for (const char* adaptive : {"0", "1"}) {
    agb::Config cfg;
    cfg.set("n", "12");
    cfg.set("senders", "3");
    cfg.set("rate", "20");
    cfg.set("adaptive", adaptive);
    cfg.set("seed", "7");
    cfg.set("warmup_s", "4");
    cfg.set("duration_s", "10");
    cfg.set("cooldown_s", "6");
    const auto params =
        agb::core::ScenarioRegistry::instance().build("paper60", cfg);
    const auto [untraced, traced] =
        perfbench::untraced_and_traced_records(params);
    const std::string tag = std::string("adaptive=") + adaptive + ": ";
    check(untraced.net.delivered > 0, tag + "the run delivered datagrams");
    check(perfbench::compare_records(untraced, traced).empty(),
          tag + "traced replay reproduces core::Scenario exactly");

    auto perturbed = traced;
    perturbed.net.delivered += 1;
    check(!perfbench::compare_records(untraced, perturbed).empty(),
          tag + "one extra delivered datagram is rejected");
    perturbed = traced;
    perturbed.net.dropped_loss += 1;
    check(!perfbench::compare_records(untraced, perturbed).empty(),
          tag + "one extra dropped datagram is rejected");
    perturbed = traced;
    perturbed.report.avg_receiver_pct += 1e-9;
    check(!perfbench::compare_records(untraced, perturbed).empty(),
          tag + "a perturbed report is rejected");
    perturbed = traced;
    if (!perturbed.fingerprints.empty()) perturbed.fingerprints.back() ^= 1;
    check(!perfbench::compare_records(untraced, perturbed).empty(),
          tag + "one node's perturbed fingerprint is rejected");
  }
}

void same_seed_gives_same_inputs() {
  const perfbench::LoadSpec spec{42, 1000.0, 2.0, 4};
  const auto a = perfbench::arrival_schedule(spec);
  const auto b = perfbench::arrival_schedule(spec);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].sender == b[i].sender;
  }
  check(same, "same seed, same arrival schedule");
  check(a.size() > 1800 && a.size() < 2200, "about rate x window arrivals");
  bool ordered = true, senders_in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && (i == 0 || a[i - 1].due_ns <= a[i].due_ns);
    senders_in_range = senders_in_range && a[i].sender < 4;
  }
  check(ordered && senders_in_range, "arrivals ordered, senders in range");
  auto other = spec;
  other.seed = 43;
  const auto c = perfbench::arrival_schedule(other);
  check(c.size() != a.size() || c[0].due_ns != a[0].due_ns,
        "another seed, another schedule");

  const auto p1 = perfbench::start_phases(42, 32, 10'000'000);
  const auto p2 = perfbench::start_phases(42, 32, 10'000'000);
  const auto p3 = perfbench::start_phases(43, 32, 10'000'000);
  check(p1 == p2, "same seed, same start phases");
  check(p1 != p3, "another seed, other start phases");
  bool in_period = true;
  for (auto phase : p1) in_period = in_period && phase >= 0 && phase < 10'000'000;
  check(in_period, "phases lie within one period");
}

}  // namespace

int main() {
  percentile_helper_reports_count_and_supported_tail();
  self_time_subtracts_nested_children();
  comparison_rejects_perturbed_records();
  same_seed_gives_same_inputs();
  std::printf("perfbench self-tests: %s\n",
              failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
