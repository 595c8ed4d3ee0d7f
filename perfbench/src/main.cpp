// perfbench driver: runs one workload for a fixed host time and prints one
// JSON line with the operation counts, the correctness verdict and the
// metrics (end-to-end metrics untraced, per-layer metrics with --trace 1).
//
//   perfbench_driver --workload <offload-dense|tenants-virtual|tenants-wall>
//                    --seed <n> --seconds <s> --trace <0|1>
//   perfbench_driver --selftest        (references and output checker)
//   perfbench_driver --option-probes   (checkpoint cost, wall-engine options)
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "refs.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench_driver --workload <offload-dense|tenants-virtual|tenants-wall> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench_driver --selftest | --option-probes\n",
               why);
  return 2;
}

bool parse_u64(const char* s, uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::selftest();
    if (a == "--option-probes") return perfbench::option_probes();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, o.seed)) return usage("--seed takes a non-negative integer");
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0) return usage("--seconds takes a positive integer");
      o.seconds = static_cast<double>(n);
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("--trace takes 0 or 1");
      o.trace = n == 1;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Report r;
  try {
    if (o.workload == "offload-dense")
      r = perfbench::run_offload_dense(o);
    else if (o.workload == "tenants-virtual")
      r = perfbench::run_tenants(o, false);
    else if (o.workload == "tenants-wall")
      r = perfbench::run_tenants(o, true);
    else
      return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& e : r.errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  std::fflush(stderr);
  std::printf("%s\n", perfbench::report_json(r).c_str());
  return 0;
}
