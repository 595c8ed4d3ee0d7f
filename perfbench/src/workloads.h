// The three workloads and the pieces they share: the phase-by-phase
// offload (capture -> serialize -> ship -> deserialize -> restore -> run ->
// write-back) and the side driver that times each layer's public
// functions in traced runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "cluster/loadgen.h"
#include "cluster/wallclock.h"
#include "sod/migrate.h"
#include "support/rng.h"

namespace perfbench {

// ------------------------------------------------------------- offload

/// Which top frames an offload-dense thread ships when it pauses: up to
/// `max_frames` consecutive top frames running `kernel`.  For a recursive
/// kernel the frame below the segment must run the kernel too, and the
/// stack must be at least `min_stack` frames deep, so the outermost calls
/// (the app's driver loop) always stay home, every offload carries a
/// small subtree, and the thread migrates many times instead of once.
struct OffloadRule {
  const char* app;
  const char* kernel;
  int max_frames;
  bool recursive;
  int min_stack;
};
const OffloadRule& offload_rule(const std::string& app);

/// One offload's measurements.
struct OffloadSample {
  double host_us = 0;   ///< host time, suspend at the MSP through write-back
  double virt_ms = 0;   ///< modelled suspend + capture + transfer + restore
  size_t state_bytes = 0;
  size_t writeback_bytes = 0;
  size_t fault_bytes = 0;
  int faults = 0;
};

/// Offloads the top `nframes` frames of the paused home thread `tid` to
/// `dest` through the public protocol phases, with the same virtual-time
/// accounting as mig::offload_and_return plus a real serialize /
/// deserialize of the captured state.  `host0` / `virt0` are the host and
/// home virtual instants at which the suspension (the pause at the next
/// migration-safe point) began; both figures count from there.  Leaves the
/// home thread runnable.
OffloadSample offload_phases(sod::mig::SodNode& home, int tid, int nframes,
                             sod::mig::SodNode& dest, sod::sim::Link link, Tracer& tr,
                             uint64_t op, Clock::time_point host0, sod::VDur virt0);

/// One closed-loop session: a fresh home node runs `app` in fast mode for a
/// seeded interval of 200-400 guest instructions, pauses at the next
/// migration-safe point, offloads per the app's rule to a fresh worker,
/// and repeats until the app finishes at home.
struct SessionOutcome {
  int64_t result = 0;
  bool finished = false;
  double virt_ms = 0;  ///< home virtual clock at the final result
  int offloads = 0;
};
SessionOutcome run_offload_session(const sod::bc::Program& prog, const AppCase& app,
                                   uint64_t seed, Tracer& tr, uint64_t& next_op,
                                   std::vector<OffloadSample>& samples);

// -------------------------------------------------------------- tenants

/// The straggler topology: two gigabit Xeons plus a 25x slower device on
/// a 2 Mbit/s wifi link.
std::vector<sod::cluster::WorkerSpec> straggler_topology();

/// Trace and replay options of a tenants workload.
struct TenantsSetup {
  bool wall = false;
  sod::cluster::TraceConfig trace;
  sod::cluster::LoadGenOptions opts;
};
TenantsSetup tenants_setup(bool wall, uint64_t seed);

/// A one-tenant cluster with a tenants workload's topology and engine, on
/// which single dispatch rounds run: spawn an app at load scale, run a
/// seeded stretch of it, suspend it at its trigger depth, run one round of
/// run_loadgen's split through the engine (capture, ship, restore, run,
/// write-back), finish at home.
class RoundDriver {
 public:
  explicit RoundDriver(const TenantsSetup& s);
  ~RoundDriver();
  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  struct Round {
    double host_us = 0;           ///< host time, suspension through write-back
    std::vector<double> virt_ms;  ///< per segment: suspension start -> restored
    bool finished = false;        ///< the session finished at home
    bool ok = false;              ///< ... with the reference result
    sod::cluster::DispatchOutcome out;
  };
  /// One round of app `a` (index into the load-scale apps); the engine
  /// call is spanned in `tr`.
  Round run(size_t a, Tracer& tr, uint64_t op);

  size_t apps() const { return apps_.size(); }
  sod::cluster::Cluster& cluster() { return *c_; }
  sod::cluster::Scheduler* scheduler() { return sched_.get(); }
  sod::cluster::WallClockEngine* engine() { return engine_.get(); }

 private:
  std::vector<AppCase> apps_;
  std::vector<int64_t> expected_;
  sod::bc::Program prog_;
  std::unique_ptr<sod::cluster::Cluster> c_;
  std::unique_ptr<sod::cluster::PlacementPolicy> policy_;
  std::unique_ptr<sod::cluster::Scheduler> sched_;
  std::unique_ptr<sod::cluster::WallClockEngine> engine_;
  sod::mig::ObjectManager om_;
  sod::Rng rng_;
};

// ------------------------------------------------------------ workloads

Report run_offload_dense(const Options& o);
Report run_tenants(const Options& o, bool wall);

/// Prints the checkpoint-cost table on the multitenant bench's own
/// configuration and what the wall engine does with checkpoint options;
/// returns 0 when every replay completed correctly.
int option_probes();

// ------------------------------------------------------- layer probes

/// What the side driver runs on: the workload's apps and its cluster
/// configuration.
struct LayerInputs {
  std::vector<AppCase> apps;
  TenantsSetup cluster;
  /// Tenant prefixes of the program prep/analysis are timed on: 0 times the
  /// apps' own programs, N the shared program of N tenants x the apps.
  int tenants = 0;
  /// Whether the workload already produced the sod.* phase spans itself
  /// (offload-dense); otherwise the side driver runs one offload session
  /// per app.
  bool have_phase_spans = false;
};

/// Times each layer's public functions on the workload's inputs and writes
/// the per-layer metrics (svm.*, prep.*, analysis.*, sod.*, cluster.*
/// timings) into `r`.  Spans go to `tr`.
void measure_layers(const LayerInputs& in, Tracer& tr, Report& r);

/// Per-layer metrics derived from phase spans and offload samples.
void phase_metrics(const Tracer& tr, const std::vector<OffloadSample>& samples, Report& r);

}  // namespace perfbench
