// tenants-virtual and tenants-wall: a seeded Poisson multi-tenant trace
// replayed by cluster::run_loadgen on the virtual Scheduler or on the
// WallClockEngine, plus single dispatch rounds through the same engine
// (the offload of the cluster layer: capture through write-back).
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/placement.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "refs.h"
#include "workloads.h"

namespace perfbench {

namespace cl = sod::cluster;
namespace mig = sod::mig;
using sod::VDur;

namespace {

/// Trace make-up shared by both tenants workloads.  At a 16 ms mean gap the
/// shared cluster runs just below saturation: the median session queues a
/// little, and p99 does not grow when the session count doubles.
constexpr int kSessions = 8000;
constexpr int kTenants = 8;
constexpr double kMeanGapMs = 16.0;  ///< Poisson mean interarrival (virtual)
constexpr double kChurn = 0.08;
constexpr int kSegmentsPerRound = 3;
/// Guest instructions between checkpoints (the multitenant bench's cadence).
constexpr uint64_t kCheckpointEvery = 20000;
/// Dispatch rounds in the warm-up (their virtual latencies are reported)
/// and in each timed iteration.
constexpr size_t kWarmRounds = 400;
constexpr size_t kRoundsPerIteration = 1000;
/// A round's session runs up to this many guest instructions in fast mode
/// before it is suspended at its trigger (below every app's first trigger
/// entry at load scale).
constexpr int64_t kMaxLeadInstrs = 200;

}  // namespace

std::vector<cl::WorkerSpec> straggler_topology() {
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;
  return {{"xeon1", {}, sod::sim::Link::gigabit()},
          {"xeon2", {}, sod::sim::Link::gigabit()},
          {"wifi-device", dev, sod::sim::Link::wifi_kbps(2000)}};
}

TenantsSetup tenants_setup(bool wall, uint64_t seed) {
  TenantsSetup s;
  s.wall = wall;
  s.trace.sessions = kSessions;
  s.trace.tenants = kTenants;
  s.trace.apps = 4;
  s.trace.arrival = cl::ArrivalKind::Poisson;
  s.trace.seed = seed;
  s.trace.mean_gap = VDur::seconds(kMeanGapMs / 1e3);
  s.trace.churn = kChurn;
  s.trace.heavy = false;
  s.opts.policy = cl::PolicyKind::LeastLoaded;
  s.opts.workers = straggler_topology();
  s.opts.segments_per_round = kSegmentsPerRound;
  if (wall) {
    // The wall engine ignores checkpointing and has no failure-resume
    // contract, so its trace has no worker loss and no checkpoint options.
    s.trace.failures = 0;
    s.opts.wallclock = true;
    s.opts.threads = 3;
    s.opts.home_shards = 4;
    s.opts.dilation = 0;
    s.opts.home_dilation = 0;
  } else {
    // No worker loss: any loss on a trace whose mix includes FFT aborts
    // the replay (see CHANGES.md).
    s.trace.failures = 0;
    s.opts.dispatch.checkpoint_every = kCheckpointEvery;
    s.opts.dispatch.speculate = true;
  }
  return s;
}

// --------------------------------------------------------- dispatch rounds

RoundDriver::RoundDriver(const TenantsSetup& s)
    : apps_(load_scale_apps(s.trace.heavy)), rng_(s.trace.seed ^ 0x5eedba5eull) {
  sod::bc::ProgramBuilder pb;
  for (const auto& a : apps_) a.spec.emit(pb, "");
  prog_ = pb.build();
  sod::prep::preprocess_program(prog_);
  c_ = std::make_unique<cl::Cluster>(prog_);
  for (const auto& w : s.opts.workers) c_->add_worker(w);
  if (s.opts.home_shards > 0) c_->set_home_shards(s.opts.home_shards);
  policy_ = cl::make_policy(s.opts.policy);
  if (s.wall) {
    cl::WallClockOptions w;
    w.threads = s.opts.threads;
    w.dilation = s.opts.dilation;
    w.home_dilation = s.opts.home_dilation;
    engine_ = std::make_unique<cl::WallClockEngine>(*c_, *policy_, w);
  } else {
    sched_ = std::make_unique<cl::Scheduler>(*c_, *policy_, s.opts.dispatch);
  }
  om_.install(c_->home());
  for (const auto& a : apps_) expected_.push_back(reference(a));
}

RoundDriver::~RoundDriver() = default;

RoundDriver::Round RoundDriver::run(size_t a, Tracer& tr, uint64_t op) {
  const AppCase& app = apps_[a];
  auto& home = c_->home();
  const int depth = std::min(app.spec.paper_depth, kSegmentsPerRound + 4);
  const int k = std::min(kSegmentsPerRound, depth - 1);
  const int tid = home.vm().spawn(prog_.find_method(app.spec.entry), app.args);
  Round r;
  // Run a seeded stretch in fast mode, then suspend the thread where its
  // migration trigger fires next (the debug-mode seek of run_loadgen).
  const auto budget = static_cast<uint64_t>(rng_.range(1, kMaxLeadInstrs));
  if (home.run_guest(tid, budget).reason != sod::svm::StopReason::Budget) return r;
  const VDur v0 = c_->home_now();
  const auto t0 = Clock::now();
  if (!mig::pause_at_depth(home, tid, prog_.find_method(app.spec.trigger_method), depth))
    return r;
  const auto split = cl::split_top_frames(k);
  {
    Scope s(tr, engine_ ? "cluster.wall_round" : "cluster.virtual_round", op);
    r.out = engine_ ? engine_->run(tid, split) : sched_->run(tid, split);
  }
  r.host_us = us_since(t0);
  for (const auto& pl : r.out.placements) r.virt_ms.push_back((pl.restored_at - v0).ms());
  home.ti().set_debug_enabled(false);
  r.finished = home.run_guest(tid).reason == sod::svm::StopReason::Done;
  r.ok = r.finished && home.vm().thread(tid).result.as_i64() == expected_[a];
  return r;
}

// --------------------------------------------------------------- workload

namespace {

/// Checks one replay against the independent references and its own
/// invariants.
void check_replay(const cl::Trace& trace, const cl::LoadGenResult& res,
                  const std::vector<int64_t>& expected, Report& r, const char* what) {
  std::vector<int> app_of;
  for (const auto& s : trace.sessions) app_of.push_back(s.app);
  std::string first;
  const int bad = count_mismatches(res.results, app_of, expected, &first);
  r.check(bad == 0, std::string(what) + ": " + std::to_string(bad) +
                        " session result(s) differ from the reference; " + first);
  r.check(res.admitted, std::string(what) + ": program not admitted");
  r.check(res.all_ok, std::string(what) + ": run_loadgen reports a lost or wrong session");
  r.check(res.exactly_once, std::string(what) + ": attempt-aware exactly-once violated");
  r.check(res.completed == res.sessions,
          std::string(what) + ": " + std::to_string(res.completed) + " of " +
              std::to_string(res.sessions) + " sessions completed");
}

}  // namespace

Report run_tenants(const Options& o, bool wall) {
  Report r;
  const char* name = wall ? "tenants-wall" : "tenants-virtual";
  const TenantsSetup setup = tenants_setup(wall, o.seed);
  const cl::Trace trace = cl::make_trace(setup.trace);
  std::vector<int64_t> expected;
  for (const auto& a : load_scale_apps(setup.trace.heavy)) expected.push_back(reference(a));

  // Warm-up replay: the virtual reference every timed replay reproduces.
  const cl::LoadGenResult base = cl::run_loadgen(trace, setup.opts);
  check_replay(trace, base, expected, r, "warm-up replay");
  RoundDriver rounds(setup);
  Tracer quiet(false);
  std::vector<double> round_virt;
  uint64_t op = 0;
  size_t next_round = 0;  // rounds cycle through the apps, the trace's uniform mix
  auto round_app = [&] { return next_round++ % rounds.apps(); };
  for (size_t i = 0; i < kWarmRounds; ++i) {
    auto rd = rounds.run(round_app(), quiet, op++);
    r.check(rd.ok, "a warm-up dispatch round failed");
    round_virt.insert(round_virt.end(), rd.virt_ms.begin(), rd.virt_ms.end());
  }
  if (!o.trace) r.set("setup_s", seconds_since(process_start()), "s");

  Tracer tr(o.trace);
  // Host figures per iteration, reported as medians over the iterations.
  std::vector<double> replay_rate, round_p50, round_p99, round_us;
  uint64_t sessions = 0, round_count = 0, failed = 0;
  cl::LoadGenResult last;
  double replay_s = 0, replay_cpu = 0, secs_last = 0;
  const auto t0 = Clock::now();
  do {
    const double cpu0 = process_cpu_seconds();
    const auto tr0 = Clock::now();
    {
      Scope s(tr, "loadgen.replay", op++);
      last = cl::run_loadgen(trace, setup.opts);
    }
    const double secs = seconds_since(tr0);
    secs_last = secs;
    replay_s += secs;
    replay_cpu += process_cpu_seconds() - cpu0;
    replay_rate.push_back(static_cast<double>(last.sessions) / secs);
    sessions += static_cast<uint64_t>(last.sessions);
    failed += static_cast<uint64_t>(last.sessions - last.completed);
    check_replay(trace, last, expected, r, "timed replay");
    r.check(last.session_ms == base.session_ms && last.results == base.results,
            "a timed replay's virtual session latencies differ from the warm-up replay");
    round_us.clear();
    for (size_t i = 0; i < kRoundsPerIteration; ++i) {
      auto rd = rounds.run(round_app(), tr, op++);
      ++round_count;
      if (!rd.finished) {
        ++failed;
        continue;
      }
      r.check(rd.ok, "a timed dispatch round returned a wrong result");
      round_us.push_back(rd.host_us);
    }
    round_p50.push_back(quantile(round_us, 0.50));
    round_p99.push_back(quantile(round_us, 0.99));
  } while (o.trace ? replay_rate.size() < 2 : seconds_since(t0) < o.seconds);
  r.attempted = sessions + round_count;
  r.failed = failed;

  // Second path, outside the timed section: the wall engine must agree
  // with a virtual-scheduler replay of the same trace (the engines'
  // bit-identity contract for failure-free replays).
  if (wall) {
    cl::LoadGenOptions v = setup.opts;
    v.wallclock = false;
    const cl::LoadGenResult twin = cl::run_loadgen(trace, v);
    check_replay(trace, twin, expected, r, "virtual twin replay");
    r.check(twin.results == base.results && twin.session_ms == base.session_ms &&
                twin.completion_ms.p50() == base.completion_ms.p50() &&
                twin.completion_ms.p99() == base.completion_ms.p99(),
            "tenants-wall: wall-engine replay differs from the virtual-scheduler replay");
  }

  if (!o.trace) {
    r.set("host_sessions_per_s", median(replay_rate), "sessions/s");
    r.set("virt_session_p50_ms", base.completion_ms.p50(), "ms");
    r.set("virt_session_p99_ms", base.completion_ms.p99(), "ms");
    r.set("host_offload_p50_us", median(round_p50), "us");
    r.set("host_offload_p99_us", median(round_p99), "us");
    r.set("virt_offload_p50_ms", quantile(round_virt, 0.50), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "%s: %zu replay(s) of %d sessions, %llu dispatch round(s) in %.3f s; "
                 "segments %d, checkpoints %d, speculated %d, lost %d\n",
                 name, replay_rate.size(), base.sessions,
                 static_cast<unsigned long long>(round_count), seconds_since(t0), base.segments,
                 base.checkpoints, base.speculated, base.workers_lost);
    return r;
  }

  std::fprintf(stderr, "%s traced: %.1f sessions/s, round p50 %.3f us, p99 %.3f us\n", name,
               median(replay_rate), median(round_p50), median(round_p99));
  // Traced run: the replay's own counters, then the side driver.
  r.set("cluster.segments", last.segments, "count");
  r.set("cluster.checkpoints", last.checkpoints, "count");
  r.set("cluster.speculated", last.speculated, "count");
  r.set("cluster.cancelled", last.cancelled, "count");
  r.set("cluster.redispatched", last.redispatched, "count");
  const double scans = static_cast<double>(last.statics_scans + last.statics_skipped);
  r.set("cluster.statics_skip_ratio",
        scans > 0 ? static_cast<double>(last.statics_skipped) / scans : 0, "ratio");
  r.set("cluster.cpu_util", replay_cpu / replay_s, "ratio");
  if (wall) {
    r.set("cluster.lock_acquisitions", static_cast<double>(last.lock_acq), "count");
    r.set("cluster.lock_contended_ratio",
          last.lock_acq ? static_cast<double>(last.wall_contended) /
                              static_cast<double>(last.lock_acq)
                        : 0,
          "ratio");
    r.set("cluster.lock_wait_share", static_cast<double>(last.lock_wait_ns) / (secs_last * 1e9),
          "ratio");
  }
  r.set("cluster." + std::string(wall ? "wall" : "virtual") + "_round_us",
        median(tr.durations_us(wall ? "cluster.wall_round" : "cluster.virtual_round")), "us");
  LayerInputs in;
  in.apps = load_scale_apps(setup.trace.heavy);
  in.cluster = setup;
  in.tenants = setup.trace.tenants;
  measure_layers(in, tr, r);
  save_trace(o, tr);
  return r;
}

}  // namespace perfbench
