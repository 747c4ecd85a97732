#include "loadgen.h"

#include <cmath>

namespace perfbench {

namespace {

class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1]: never 0, so the exponential's log stays finite.
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Independent streams per purpose, so adding draws to one never shifts the
// other.
constexpr std::uint64_t kArrivalStream = 0x61727269766c7321ull;
constexpr std::uint64_t kPhaseStream = 0x7068617365732121ull;

}  // namespace

std::vector<Arrival> arrival_schedule(const LoadSpec& spec) {
  SplitMix rng(spec.seed ^ kArrivalStream);
  std::vector<Arrival> out;
  const double window_ns = spec.window_s * 1e9;
  out.reserve(static_cast<std::size_t>(spec.rate_per_s * spec.window_s * 1.2) +
              16);
  double t = 0.0;
  while (true) {
    t += -std::log(rng.unit()) * 1e9 / spec.rate_per_s;
    if (t >= window_ns) break;
    const auto sender = static_cast<std::uint32_t>(rng.next() % spec.senders);
    out.push_back(Arrival{static_cast<std::int64_t>(t), sender});
  }
  return out;
}

std::vector<std::int64_t> start_phases(std::uint64_t seed, std::size_t nodes,
                                       std::int64_t period_ns) {
  SplitMix rng(seed ^ kPhaseStream);
  std::vector<std::int64_t> out(nodes);
  for (auto& phase : out) {
    phase = static_cast<std::int64_t>(rng.next() %
                                      static_cast<std::uint64_t>(period_ns));
  }
  return out;
}

}  // namespace perfbench
