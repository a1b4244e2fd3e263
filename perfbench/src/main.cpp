/// orbit_perfbench: runs one benchmark workload and prints its raw result
/// as one JSON line (samples, checks, per-layer metrics, machine context).
/// perfbench/run.py builds this binary, calls it, and turns the raw result
/// into the named metrics.
///
///   orbit_perfbench --workload <train_serial|train_hs|serve|relaunch>
///                   --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
///
/// --trace 0 measures the workload untraced for --seconds and replays its
/// fixed operations traced for the bitwise check. --trace 1 splits
/// --seconds between an untraced and a traced phase, then runs short traced
/// probes of the other three workloads and the isolated layer probes, so
/// every per-layer metric is reported by every workload's traced run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "kernels/kernels.hpp"
#include "tensor/threadpool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Plan;
using perfbench::Result;

/// Traced length of the other workloads' probes in a --trace 1 run.
constexpr double kProbeSeconds = 1.0;
/// Launches per phase of the relaunch probe.
constexpr int kProbeLaunches = 4;

Result run(const std::string& workload, const Plan& plan) {
  if (workload == "train_serial") return perfbench::train_serial(plan);
  if (workload == "train_hs") return perfbench::train_hs(plan);
  if (workload == "serve") return perfbench::serve(plan);
  if (workload == "relaunch") return perfbench::relaunch(plan);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "orbit_perfbench: %s\nusage: orbit_perfbench --workload "
               "<train_serial|train_hs|serve|relaunch> --seed <n> --seconds "
               "<s> --trace <0|1> [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Plan plan;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      plan.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scratch") {
      plan.scratch = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  // Known defect: with more than one pool thread, concurrent parallel_for
  // callers (rank threads, serve workers) corrupt results or hang. Every
  // workload pins the kernel pool to one thread until that is fixed.
  orbit::set_num_threads(1);

  plan.plain_s = trace ? seconds / 2 : seconds;
  plan.traced_s = trace ? seconds / 2 : 0.0;

  try {
    Result r = run(workload, plan);
    if (trace) {
      perfbench::layer_probes(r);
      Plan probe = plan;
      probe.plain = false;
      probe.traced_s = kProbeSeconds;
      probe.launches = kProbeLaunches;
      for (const char* other : {"train_serial", "train_hs", "serve", "relaunch"}) {
        if (workload != other) r.absorb(run(other, probe));
      }
    }
    r.context["isa"] = orbit::kernels::isa_name(orbit::kernels::active_isa());
    r.context["pool_threads"] = std::to_string(orbit::num_threads());
    r.context["hardware_threads"] =
        std::to_string(std::thread::hardware_concurrency());
    r.context["build_type"] = PERFBENCH_BUILD_TYPE;
    std::printf("%s\n", r.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orbit_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
