// The side driver of traced runs: times each layer's public functions on
// the workload's inputs.  Layers that run_loadgen reaches only from inside
// are timed here on the same inputs: VM::run per app, preprocess and
// admission, one dispatch round on each engine, the statics refresh, and
// checkpoint_segment after Segment::run_chunk.
#include <cstdio>
#include <string>

#include "analysis/analysis.h"
#include "prep/prep.h"
#include "workloads.h"

namespace perfbench {

namespace cl = sod::cluster;
namespace mig = sod::mig;

namespace {

constexpr int kVmReps = 5;
constexpr int kPrepReps = 5;
constexpr int kRoundReps = 8;  ///< dispatch rounds per app and engine
constexpr int kRefreshReps = 200;
/// Guest instructions per run_chunk before each timed checkpoint.
constexpr uint64_t kChunk = 2000;
/// Side-driver operation ids start here, apart from the workload's own.
constexpr uint64_t kOpBase = uint64_t{1} << 40;

void set_default(Report& r, const std::string& name, double v, const std::string& unit) {
  if (!r.metrics.count(name)) r.set(name, v, unit);
}

/// ns per guest instruction of VM::run over one whole app run.
void time_vm(const AppCase& app, Tracer& tr, uint64_t& op, Report& r) {
  const sod::bc::Program p = prepped_program(app);
  for (bool debug : {false, true}) {
    std::vector<double> ns_per;
    uint64_t instrs = 0;
    for (int rep = 0; rep < kVmReps; ++rep) {
      mig::SodNode n("svm", p, {});
      mig::ObjectManager om;
      om.install(n);
      n.vm().set_debug_mode(debug);
      const int tid = n.vm().spawn(p.find_method(app.spec.entry), app.args);
      const uint64_t i0 = n.vm().instr_count();
      const auto t0 = Clock::now();
      sod::svm::RunResult rr;
      {
        Scope s(tr, debug ? "svm.run_debug" : "svm.run_fast", op++);
        rr = n.vm().run(tid);
      }
      const double us = us_since(t0);
      instrs = n.vm().instr_count() - i0;
      if (rr.reason != sod::svm::StopReason::Done || instrs == 0) {
        r.check(false, app.spec.name + ": VM::run did not finish in the side driver");
        return;
      }
      ns_per.push_back(us * 1e3 / static_cast<double>(instrs));
    }
    const std::string kind = debug ? "svm.debug_ns_per_instr." : "svm.fast_ns_per_instr.";
    r.set(kind + app.spec.name, median(ns_per), "ns");
    r.set("svm.instructions." + app.spec.name, static_cast<double>(instrs), "count");
  }
}

sod::bc::Program layer_program(const LayerInputs& in, size_t app) {
  if (in.tenants == 0) return in.apps[app].spec.build();
  sod::bc::ProgramBuilder pb;
  for (int t = 0; t < in.tenants; ++t) {
    std::string prefix = "t";
    prefix += std::to_string(t);
    prefix += '_';
    for (const auto& a : in.apps) a.spec.emit(pb, prefix);
  }
  return pb.build();
}

/// prep::preprocess_program and analysis::analyze_program on the
/// workload's program(s).
void time_prep(const LayerInputs& in, Tracer& tr, uint64_t& op, Report& r) {
  std::vector<double> prep_ms, admit_ms;
  const size_t programs = in.tenants == 0 ? in.apps.size() : 1;
  for (int rep = 0; rep < kPrepReps; ++rep) {
    double p_ms = 0, a_ms = 0;
    for (size_t i = 0; i < programs; ++i) {
      sod::bc::Program p = layer_program(in, i);
      auto t0 = Clock::now();
      {
        Scope s(tr, "prep.preprocess", op);
        sod::prep::preprocess_program(p);
      }
      p_ms += us_since(t0) / 1e3;
      t0 = Clock::now();
      sod::analysis::AdmissionReport rep_a;
      {
        Scope s(tr, "analysis.admit", op++);
        rep_a = sod::analysis::analyze_program(p);
      }
      a_ms += us_since(t0) / 1e3;
      r.check(rep_a.admitted, "side driver: the workload program was not admitted");
    }
    prep_ms.push_back(p_ms);
    admit_ms.push_back(a_ms);
  }
  r.set("prep.preprocess_ms", median(prep_ms), "ms");
  r.set("analysis.admit_ms", median(admit_ms), "ms");
}

/// Dispatch rounds on one engine; returns the driver for its counters.
std::unique_ptr<RoundDriver> time_rounds(const TenantsSetup& s, Tracer& tr, uint64_t& op,
                                         Report& r) {
  auto d = std::make_unique<RoundDriver>(s);
  Tracer quiet(false);
  for (size_t a = 0; a < d->apps(); ++a) d->run(a, quiet, op++);  // warm the engine
  std::vector<double> us;
  int segments = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kRoundReps; ++i)
    for (size_t a = 0; a < d->apps(); ++a) {
      const auto rd = d->run(a, tr, op++);
      r.check(rd.ok, "side driver: a dispatch round returned a wrong result");
      us.push_back(rd.host_us);
      segments += static_cast<int>(rd.out.placements.size());
    }
  const double secs = seconds_since(t0);
  set_default(r, s.wall ? "cluster.wall_round_us" : "cluster.virtual_round_us", median(us), "us");
  if (!s.wall) {
    auto* sc = d->scheduler();
    set_default(r, "cluster.segments", segments, "count");
    set_default(r, "cluster.checkpoints", sc->checkpoints(), "count");
    set_default(r, "cluster.speculated", sc->speculations(), "count");
    set_default(r, "cluster.cancelled", sc->cancellations(), "count");
    set_default(r, "cluster.redispatched", sc->redispatches(), "count");
  } else {
    const mig::ShardContention c = d->engine()->total_contention();
    set_default(r, "cluster.lock_acquisitions", static_cast<double>(c.acquisitions), "count");
    set_default(r, "cluster.lock_contended_ratio",
                c.acquisitions ? static_cast<double>(c.contended) /
                                     static_cast<double>(c.acquisitions)
                               : 0,
                "ratio");
    set_default(r, "cluster.lock_wait_share", static_cast<double>(c.wait_ns) / (secs * 1e9),
                "ratio");
  }
  return d;
}

/// refresh_primitive_statics from home to a worker that ran the rounds.
void time_refresh(RoundDriver& d, Tracer& tr, uint64_t& op, Report& r) {
  auto& c = d.cluster();
  cl::StaticsRefreshStats st;
  std::vector<double> us;
  for (int i = 0; i < kRefreshReps; ++i) {
    const auto t0 = Clock::now();
    {
      Scope s(tr, "cluster.statics_refresh", op++);
      cl::refresh_primitive_statics(c.home(), c.worker(0), &c.facts(), &st);
    }
    us.push_back(us_since(t0));
  }
  r.set("cluster.statics_refresh_us", median(us), "us");
  const double all = static_cast<double>(st.scans + st.skipped);
  set_default(r, "cluster.statics_skip_ratio", all > 0 ? static_cast<double>(st.skipped) / all : 0,
              "ratio");
}

/// checkpoint_segment after each Segment::run_chunk of one segment per app.
void time_checkpoints(const std::vector<AppCase>& apps, Tracer& tr, uint64_t& op, Report& r) {
  std::vector<double> us, heap;
  for (const auto& app : apps) {
    const sod::bc::Program p = prepped_program(app);
    mig::SodNode home("home", p, {});
    mig::ObjectManager home_om;
    home_om.install(home);
    mig::SodNode worker("worker", p, {});
    const sod::sim::Link link = sod::sim::Link::gigabit();
    worker.enable_class_fetch(&home, link);
    const int tid = home.vm().spawn(p.find_method(app.spec.entry), app.args);
    const int depth = std::min(app.spec.paper_depth, 7);
    if (!mig::pause_at_depth(home, tid, p.find_method(app.spec.trigger_method), depth)) continue;
    const mig::CapturedState cs = mig::capture_segment(home, tid, {0, 1});
    home.ti().set_debug_enabled(false);
    mig::Segment seg(worker);
    seg.objman().bind_home(&home, tid, 1, link);
    seg.restore(cs);
    mig::CheckpointDeltas deltas;
    while (seg.run_chunk(kChunk) == sod::svm::StopReason::SafePoint) {
      const auto t0 = Clock::now();
      mig::SegmentCheckpoint ck;
      {
        Scope s(tr, "sod.checkpoint", op);
        ck = mig::checkpoint_segment(seg, home, link, deltas);
      }
      us.push_back(us_since(t0));
      heap.push_back(static_cast<double>(ck.heap_bytes));
    }
    ++op;
  }
  double heap_sum = 0;
  for (double h : heap) heap_sum += h;
  r.set("sod.checkpoint_us", median(us), "us");
  r.set("sod.checkpoint_heap_bytes", heap.empty() ? 0 : heap_sum / static_cast<double>(heap.size()),
        "B/checkpoint");
}

}  // namespace

void measure_layers(const LayerInputs& in, Tracer& tr, Report& r) {
  uint64_t op = kOpBase;
  for (const auto& app : in.apps) time_vm(app, tr, op, r);
  time_prep(in, tr, op, r);
  if (!in.have_phase_spans) {
    std::vector<OffloadSample> samples;
    for (size_t a = 0; a < in.apps.size(); ++a) {
      const sod::bc::Program p = prepped_program(in.apps[a]);
      run_offload_session(p, in.apps[a], a + 1, tr, op, samples);
    }
    phase_metrics(tr, samples, r);
  }
  TenantsSetup v = in.cluster.wall ? tenants_setup(false, in.cluster.trace.seed) : in.cluster;
  TenantsSetup w = in.cluster.wall ? in.cluster : tenants_setup(true, in.cluster.trace.seed);
  auto vd = time_rounds(v, tr, op, r);
  time_refresh(*vd, tr, op, r);
  vd.reset();
  time_rounds(w, tr, op, r);
  time_checkpoints(in.apps, tr, op, r);
}

}  // namespace perfbench
