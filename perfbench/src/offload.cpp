// offload-dense: closed-loop stack-on-demand offloads of the four Table I
// apps at bench scale, through the public mig:: protocol phases.
#include <cstdio>
#include <string>

#include "refs.h"
#include "support/bytes.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace mig = sod::mig;
namespace svm = sod::svm;
using sod::VDur;

namespace {

/// One-way link latency range of an offload (gigabit bandwidth).
constexpr int64_t kLinkLatencyLoNs = 80'000;
constexpr int64_t kLinkLatencyHiNs = 120'000;

/// Offload seed of app `a` in run `seed`: every round of a run replays the
/// same offload points, and different seeds move them.
uint64_t session_seed(uint64_t seed, size_t a) {
  sod::Rng mix(seed * 0x100000001b3ull + a);
  return mix.next();
}

/// How many top frames the rule ships from the paused thread (0 = none).
int frames_to_ship(const svm::GuestThread& th, uint16_t kernel, const OffloadRule& rule) {
  int run = 0;
  for (auto it = th.frames.rbegin(); it != th.frames.rend() && it->method == kernel; ++it) ++run;
  if (static_cast<int>(th.frames.size()) < rule.min_stack) return 0;
  const int k = std::min(rule.max_frames, rule.recursive ? run - 1 : run);
  // Never the whole stack: the bottom frame stays home.
  return std::min(k, static_cast<int>(th.frames.size()) - 1);
}

}  // namespace

const OffloadRule& offload_rule(const std::string& app) {
  // FFT ships only its per-row/column transform (fft1d); shipping fft2d or
  // run would carry the whole driver loop away in one offload.
  static const OffloadRule rules[] = {
      {"Fib", "Fib.fib", 2, true, 16},
      {"NQ", "NQ.solve", 2, true, 7},
      {"FFT", "FFT.fft1d", 1, false, 0},
      {"TSP", "TSP.search", 1, true, 8},
  };
  for (const auto& r : rules)
    if (app == r.app) return r;
  std::fprintf(stderr, "perfbench: no offload rule for app '%s'\n", app.c_str());
  std::abort();
}

OffloadSample offload_phases(mig::SodNode& home, int tid, int nframes, mig::SodNode& dest,
                             sod::sim::Link link, Tracer& tr, uint64_t op,
                             Clock::time_point host0, VDur virt0) {
  OffloadSample out;
  Scope whole(tr, "offload", op);

  // Capture at home, then serialize the state for the wire.
  mig::CapturedState cs;
  {
    Scope s(tr, "sod.capture", op);
    cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, nframes});
    home.ti().set_debug_enabled(false);
    home.sync_ti_cost();
  }
  sod::ByteWriter w;
  {
    Scope s(tr, "sod.serialize", op);
    cs.serialize(w);
  }
  out.state_bytes = w.size();
  home.node().charge_host(home.serde().cost(out.state_bytes, static_cast<int>(cs.frames.size())));
  const VDur capture = home.node().clock.now() - virt0;

  // Ship the state plus the top frame's class image.
  const uint16_t top_cls = home.program().method(cs.frames.back().method).owner;
  const size_t ship = out.state_bytes + home.program().class_image(top_cls).size();
  dest.mark_class_shipped(top_cls);
  dest.enable_class_fetch(&home, link);
  const VDur sent_at = home.node().clock.now();
  sod::sim::deliver(home.node(), dest.node(), link, ship);
  const VDur transfer = dest.node().clock.now() - sent_at;

  // Deserialize and restore on the worker.
  mig::CapturedState in;
  {
    Scope s(tr, "sod.deserialize", op);
    sod::ByteReader r(w.bytes());
    in = mig::CapturedState::deserialize(r);
  }
  const VDur r0 = dest.node().clock.now();
  mig::Segment seg(dest);
  {
    Scope s(tr, "sod.restore", op);
    seg.objman().bind_home(&home, tid, nframes, link);
    seg.restore(in);
  }
  const VDur restore = dest.node().clock.now() - r0;
  out.virt_ms = (capture + transfer + restore).ms();

  // Run remotely (objects fault in on demand), then write back.
  sod::bc::Value result;
  {
    Scope s(tr, "sod.segment_run", op);
    result = seg.run_to_completion();
  }
  out.faults = seg.objman().stats().faults;
  out.fault_bytes = seg.objman().stats().bytes;
  {
    Scope s(tr, "sod.writeback", op);
    out.writeback_bytes = mig::write_back(seg, home, tid, nframes, result, link).bytes;
  }
  out.host_us = us_since(host0);
  return out;
}

SessionOutcome run_offload_session(const sod::bc::Program& prog, const AppCase& app,
                                   uint64_t seed, Tracer& tr, uint64_t& next_op,
                                   std::vector<OffloadSample>& samples) {
  const OffloadRule& rule = offload_rule(app.spec.name);
  const uint16_t kernel = prog.find_method(rule.kernel);
  mig::SodNode home("home", prog, {});
  mig::ObjectManager home_om;  // standalone: application-NPE passthrough
  home_om.install(home);
  mig::SodNode dest("worker", prog, {});
  sod::Rng rng(seed);

  SessionOutcome out;
  const int tid = home.vm().spawn(prog.find_method(app.spec.entry), app.args);
  while (true) {
    const auto budget = static_cast<uint64_t>(rng.range(200, 400));
    if (home.run_guest(tid, budget).reason != svm::StopReason::Budget) break;
    // Suspension: coast under the debug interpreter to the next MSP.  Each
    // pause gets an operation id; its offload, if any, shares it.
    const uint64_t op = next_op++;
    const auto host0 = Clock::now();
    const VDur virt0 = home.node().clock.now();
    const int span = tr.open("sod.suspend", op);
    const bool paused = mig::pause_at_next_msp(home, tid);
    tr.close(span);
    if (!paused) break;
    const int k = frames_to_ship(home.vm().thread(tid), kernel, rule);
    if (k > 0) {
      // A gigabit link whose one-way latency varies per offload.
      sod::sim::Link link = sod::sim::Link::gigabit();
      link.latency = VDur::nanos(rng.range(kLinkLatencyLoNs, kLinkLatencyHiNs));
      samples.push_back(offload_phases(home, tid, k, dest, link, tr, op, host0, virt0));
      ++out.offloads;
    }
    home.ti().set_debug_enabled(false);
  }
  home.ti().set_debug_enabled(false);
  const auto& th = home.vm().thread(tid);
  out.finished = th.status == svm::ThreadStatus::Done;
  out.result = out.finished ? th.result.as_i64() : 0;
  out.virt_ms = home.node().clock.now().ms();
  return out;
}

void phase_metrics(const Tracer& tr, const std::vector<OffloadSample>& samples, Report& r) {
  static const char* phases[] = {"sod.suspend",     "sod.capture", "sod.serialize",
                                 "sod.deserialize", "sod.restore", "sod.segment_run",
                                 "sod.writeback"};
  for (const char* p : phases) r.set(std::string(p) + "_us", median(tr.durations_us(p)), "us");
  double state = 0, wb = 0, faults = 0, fbytes = 0;
  for (const auto& s : samples) {
    state += static_cast<double>(s.state_bytes);
    wb += static_cast<double>(s.writeback_bytes);
    faults += s.faults;
    fbytes += static_cast<double>(s.fault_bytes);
  }
  const double n = samples.empty() ? 1.0 : static_cast<double>(samples.size());
  r.set("sod.state_bytes", state / n, "B/offload");
  r.set("sod.writeback_bytes", wb / n, "B/offload");
  r.set("sod.object_faults", faults / n, "faults/offload");
  r.set("sod.fault_bytes", fbytes / n, "B/offload");
}

Report run_offload_dense(const Options& o) {
  Report r;
  const auto apps = bench_scale_apps();
  std::vector<sod::bc::Program> progs;
  std::vector<int64_t> expected;
  std::vector<uint64_t> seeds;
  for (size_t a = 0; a < apps.size(); ++a) {
    progs.push_back(prepped_program(apps[a]));
    expected.push_back(reference(apps[a]));
    seeds.push_back(session_seed(o.seed, a));
  }

  // Warm-up round, untimed: its sessions are the virtual-time reference
  // every timed round must reproduce exactly.
  Tracer quiet(false);
  uint64_t op = 0;
  std::vector<SessionOutcome> base;
  std::vector<OffloadSample> base_samples;
  for (size_t a = 0; a < apps.size(); ++a) {
    base.push_back(run_offload_session(progs[a], apps[a], seeds[a], quiet, op, base_samples));
    const auto& b = base.back();
    r.check(b.finished && b.result == expected[a],
            apps[a].spec.name + ": migrated result " + std::to_string(b.result) + " != reference " +
                std::to_string(expected[a]));
    r.check(b.offloads >= 10, apps[a].spec.name + ": only " + std::to_string(b.offloads) +
                                  " offload(s) in a session");
  }
  if (!o.trace) r.set("setup_s", seconds_since(process_start()), "s");

  // Timed rounds (a traced run records one round).  Host figures are
  // taken per round and reported as medians over the rounds, so a short
  // disturbance of the machine moves a few rounds, not the result.
  Tracer tr(o.trace);
  std::vector<OffloadSample> samples;
  samples.reserve(2 * base_samples.size());
  std::vector<double> round_rate, round_p50, round_p99;
  uint64_t sessions = 0, offloads = 0, failed = 0;
  int rounds = 0;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  do {
    samples.clear();
    const auto round_t0 = Clock::now();
    for (size_t a = 0; a < apps.size(); ++a) {
      const SessionOutcome s = run_offload_session(progs[a], apps[a], seeds[a], tr, op, samples);
      ++sessions;
      if (!s.finished) {
        ++failed;
        continue;
      }
      r.check(s.result == base[a].result && s.virt_ms == base[a].virt_ms &&
                  s.offloads == base[a].offloads,
              apps[a].spec.name + ": a timed session diverged from the warm-up session");
    }
    round_rate.push_back(static_cast<double>(apps.size()) / seconds_since(round_t0));
    std::vector<double> host_us;
    for (const auto& s : samples) host_us.push_back(s.host_us);
    round_p50.push_back(quantile(host_us, 0.50));
    round_p99.push_back(quantile(host_us, 0.99));
    offloads += samples.size();
    ++rounds;
  } while (!o.trace && seconds_since(t0) < o.seconds);
  const double elapsed = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;
  r.attempted = sessions + offloads;
  r.failed = failed;

  // Migration transparency, outside the timed section: the same app run
  // without migration returns the same result.
  for (size_t a = 0; a < apps.size(); ++a) {
    sod::mig::SodNode plain("plain", progs[a], {});
    sod::mig::ObjectManager om;
    om.install(plain);
    const int64_t v = plain.call_guest(apps[a].spec.entry, apps[a].args).as_i64();
    r.check(v == expected[a] && v == base[a].result,
            apps[a].spec.name + ": run without migration returned " + std::to_string(v));
  }

  if (!o.trace) {
    std::vector<double> virt_sessions, virt_offloads;
    for (const auto& b : base) virt_sessions.push_back(b.virt_ms);
    for (const auto& s : base_samples) virt_offloads.push_back(s.virt_ms);
    r.set("host_sessions_per_s", median(round_rate), "sessions/s");
    r.set("host_offload_p50_us", median(round_p50), "us");
    r.set("host_offload_p99_us", median(round_p99), "us");
    r.set("virt_session_p50_ms", quantile(virt_sessions, 0.50), "ms");
    r.set("virt_session_p99_ms", quantile(virt_sessions, 0.99), "ms");
    r.set("virt_offload_p50_ms", quantile(virt_offloads, 0.50), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "offload-dense: %d round(s), %llu session(s), %zu offload(s) in %.3f s; "
                 "offloads per round %zu\n",
                 rounds, static_cast<unsigned long long>(sessions), static_cast<size_t>(offloads), elapsed,
                 base_samples.size());
    return r;
  }

  // Traced run: per-layer metrics from the phase spans plus the side driver.
  std::fprintf(stderr, "offload-dense traced: host offload p50 %.3f us, p99 %.3f us (%zu offloads)\n",
               median(round_p50), median(round_p99), static_cast<size_t>(offloads));
  phase_metrics(tr, samples, r);
  r.set("cluster.cpu_util", cpu / elapsed, "ratio");
  LayerInputs in;
  in.apps = apps;
  in.cluster = tenants_setup(false, o.seed);
  in.have_phase_spans = true;
  measure_layers(in, tr, r);
  save_trace(o, tr);
  return r;
}

}  // namespace perfbench
