// Distributed discovery of resource availability (paper Fig. 5(a)).
//
// Time is divided into sample periods of length τ. Within period s, every
// node maintains minBuff_s — the minimum of its own buffer bound and every
// value it has seen in gossip headers stamped with period s. The operational
// estimate is the minimum over the current running period and the last W-1
// completed ones, which smooths the beginning-of-period blind spot and lets
// stale minima age out when the constrained node leaves or grows.
//
// Period synchronisation is loose: receiving a header from a *later* period
// fast-forwards the local period counter (the paper's "advance s upon
// reception of a gossip message from a later sample period").
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.h"

namespace agb::adaptive {

class MinBuffEstimator {
 public:
  /// `window` is W (total periods considered, current one included; >= 1).
  /// `local_capacity` seeds the per-period minimum.
  MinBuffEstimator(std::size_t window, std::uint32_t local_capacity);

  /// Local resources changed (dynamic buffers). Takes effect on the running
  /// period immediately (a shrink lowers the running minimum; a growth only
  /// shows after constrained periods leave the window).
  void set_local_capacity(std::uint32_t capacity);

  /// Advances to period `p` if it is ahead of the current one. Completed
  /// periods are pushed into the history window; periods skipped entirely
  /// (e.g. after a long stall) are filled with the local capacity, since no
  /// remote information exists for them. O(W) however far `p` lies ahead.
  void advance_to(PeriodId p);

  /// Folds a received gossip header into the estimate. Headers from later
  /// periods fast-forward the local period first; headers from periods
  /// older than the current one are ignored (their information is already
  /// reflected in history, or too stale to trust).
  void on_header(PeriodId p, std::uint32_t remote_min);

  /// minBuff: the minimum across the running period and the last W-1
  /// completed periods.
  [[nodiscard]] std::uint32_t estimate() const;

  [[nodiscard]] PeriodId period() const noexcept { return period_; }
  [[nodiscard]] std::uint32_t running_minimum() const noexcept {
    return running_;
  }
  [[nodiscard]] std::uint32_t local_capacity() const noexcept {
    return local_;
  }

 private:
  std::size_t window_;
  std::uint32_t local_;
  PeriodId period_ = 0;
  std::uint32_t running_;                // minBuff for the current period
  std::deque<std::uint32_t> history_;    // most recent completed first
};

}  // namespace agb::adaptive
