// Option probes: two fixed replays that show how the load generator's
// checkpoint and speculation options behave.  Printed as plain text by
// `perfbench_driver --option-probes`; not part of any workload.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace cl = sod::cluster;

int option_probes() {
  // bench/bench_multitenant.cpp's configuration: seed 1, 48 heavy sessions
  // of the fib + nqueens mix over 4 tenants, Poisson arrivals 25 ms apart,
  // least-loaded on the straggler topology, churn 0.08, one worker loss.
  cl::TraceConfig cfg;
  cfg.sessions = 48;
  cfg.tenants = 4;
  cfg.apps = 2;
  cfg.seed = 1;
  cfg.mean_gap = sod::VDur::millis(25);
  cfg.churn = 0.08;
  cfg.failures = 1;
  cfg.heavy = true;
  const cl::Trace trace = cl::make_trace(cfg);
  std::printf("checkpoint cost on the multitenant bench configuration (virtual ms)\n");
  std::printf("%-34s %10s %10s %6s %6s\n", "options", "p50", "p99", "ckpts", "spec");
  struct Row {
    const char* name;
    uint64_t every;
    bool spec;
  };
  int bad = 0;
  for (const Row& row : {Row{"no checkpoints", 0, false}, Row{"checkpoint_every 20000", 20000, false},
                         Row{"checkpoint_every 20000 + speculate", 20000, true}}) {
    cl::LoadGenOptions lg;
    lg.policy = cl::PolicyKind::LeastLoaded;
    lg.workers = straggler_topology();
    lg.segments_per_round = 3;
    lg.dispatch.checkpoint_every = row.every;
    lg.dispatch.speculate = row.spec;
    const cl::LoadGenResult r = cl::run_loadgen(trace, lg);
    if (!r.all_ok || !r.exactly_once) ++bad;
    std::printf("%-34s %10.2f %10.2f %6d %6d\n", row.name, r.completion_ms.p50(),
                r.completion_ms.p99(), r.checkpoints, r.speculated);
  }

  // The wall engine given checkpoint and speculation options.
  cl::TraceConfig wcfg;
  wcfg.sessions = 300;
  wcfg.tenants = 8;
  wcfg.apps = 2;
  wcfg.seed = 1;
  cl::LoadGenOptions lg;
  lg.wallclock = true;
  lg.dilation = 0;
  lg.home_dilation = 0;
  lg.dispatch.checkpoint_every = 20000;
  lg.dispatch.speculate = true;
  const cl::LoadGenResult w = cl::run_loadgen(cl::make_trace(wcfg), lg);
  if (!w.all_ok) ++bad;
  std::printf("\nwall engine, 300 sessions, checkpoint_every 20000 + speculate: "
              "checkpoints %d, speculated %d, all_ok %s\n",
              w.checkpoints, w.speculated, w.all_ok ? "true" : "false");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
