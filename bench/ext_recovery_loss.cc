// Extension bench (beyond the paper's figures): pull-based repair under
// network loss. The paper's §5/§6 note that the adaptive mechanism prevents
// *future* omissions and that separate techniques must recover *past* ones;
// this bench quantifies how the lpbcast retrieval phase (seen-id digests +
// directed repair, served from a short-lived retrieval store) restores
// reliability as i.i.d. and bursty loss grow.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "metrics/table.h"

int main(int argc, char** argv) {
  using namespace agb;
  auto cfg = bench::parse_cli(argc, argv);
  // paper60 with this bench's defaults, under the keys `cfg` sets.
  auto base = bench::paper_params(cfg);
  base.offered_rate = 15.0;
  base.gossip.fanout = 3;
  base.gossip.max_events = 400;
  base.gossip.max_age = 8;
  base.gossip.recovery.repair_after_rounds = 2;
  base = core::params_from_config(cfg, base);

  bench::print_banner("Recovery extension",
                      "reliability under loss, with and without repair",
                      base);

  metrics::Table table({"loss", "recv_plain", "recv_repair", "atomic_plain",
                        "atomic_repair", "repairs", "recovered"});
  auto run_at = [&](sim::LossModel loss, bool repair) {
    auto p = base;
    p.network.loss = loss;
    p.gossip.recovery.enabled = repair;
    core::Scenario s(p);
    return s.run();
  };

  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    auto plain = run_at(sim::LossModel::iid(loss), false);
    auto repaired = run_at(sim::LossModel::iid(loss), true);
    table.add_numeric_row(
        {loss, plain.delivery.avg_receiver_pct,
         repaired.delivery.avg_receiver_pct, plain.delivery.atomicity_pct,
         repaired.delivery.atomicity_pct,
         static_cast<double>(repaired.repair_requests),
         static_cast<double>(repaired.events_recovered)},
        2);
  }
  table.print(std::cout);

  std::printf("\nbursty loss (Gilbert-Elliott, ~20%% average):\n");
  metrics::Table burst_table({"variant", "recv_pct", "atomic_pct",
                              "recovered"});
  const auto burst = sim::LossModel::burst(0.02, 0.9, 0.05, 0.2);
  auto plain = run_at(burst, false);
  auto repaired = run_at(burst, true);
  burst_table.add_row({"plain", metrics::fmt(plain.delivery.avg_receiver_pct),
                       metrics::fmt(plain.delivery.atomicity_pct), "0"});
  burst_table.add_row(
      {"repair", metrics::fmt(repaired.delivery.avg_receiver_pct),
       metrics::fmt(repaired.delivery.atomicity_pct),
       metrics::fmt(static_cast<double>(repaired.events_recovered), 0)});
  burst_table.print(std::cout);

  std::printf(
      "\nexpected: without repair, reliability falls with loss (faster "
      "under bursts, as the paper\nwarns for correlated loss); with repair "
      "it stays close to the lossless level until loss\noverwhelms the "
      "digest/patience budget.\n");
  bench::warn_unused(cfg);
  return 0;
}
