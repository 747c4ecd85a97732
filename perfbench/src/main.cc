// agb_perfbench: runs one benchmark workload and prints its report, with
// the result as one JSON object on the last line of standard output.
//
//   agb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file.json>]
//
// Workloads: sim-scale, sim-paper-adaptive, wallclock-inmemory,
// wallclock-udp. --trace 0 prints the end-to-end metrics; --trace 1 runs
// untraced and traced and prints the per-layer metrics. Exit status: 0
// when every correctness check passed, 1 when one failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "agb_perfbench: %s\nusage: agb_perfbench --workload "
               "<sim-scale|sim-paper-adaptive|wallclock-inmemory|"
               "wallclock-udp> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult result;
  try {
    if (perfbench::is_sim_workload(o.workload)) {
      result = perfbench::run_sim_workload(o);
    } else if (perfbench::is_wallclock_workload(o.workload)) {
      result = perfbench::run_wallclock_workload(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agb_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& failure : result.failures) {
    std::printf("CHECK FAILED     : %s\n", failure.c_str());
  }
  std::printf("%s\n", perfbench::to_json(result).c_str());
  return result.failures.empty() ? 0 : 1;
}
