// Shared pieces of the perfbench driver: options, the result record and
// its JSON line, host timing, the span recorder used by traced runs, and
// the app table (Table I apps with the arguments each workload uses).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "bytecode/program.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The instant main() was entered (setup_s counts from here).
Clock::time_point process_start();
void mark_process_start();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One named metric of the final JSON line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run reports: operation counts, the correctness verdict
/// (with the reasons it failed, printed to stderr), and its metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false `ok` marks the run incorrect.
  /// Each distinct failure is reported once.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (std::find(errors.begin(), errors.end(), what) == errors.end()) errors.push_back(what);
  }
};

/// The JSON object printed as the last line of standard output.
std::string report_json(const Report& r);

/// Nearest-rank quantile (the ceil(q*n)-th smallest sample), the same rule
/// as the program's own Percentiles, so virtual tails compare exactly.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// Peak resident set size of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds();

// --------------------------------------------------------------- spans

/// In-memory span recorder for traced runs.  A span has a name, host start
/// and end (ns since the recorder was created), the index of the span that
/// caused it (-1 for a root) and an operation id shared by every span of
/// one offload or session.  Disabled recorders record nothing, so the
/// timed (untraced) runs pay one branch per span site.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int open(const char* name, uint64_t op);
  void close(int idx);

  /// Durations (µs) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Writes all spans as JSON to `path`; returns false if it cannot.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Writes a traced run's spans to .bench_out/trace-<workload>-seed<seed>.json
/// (the directory is created on demand); reports a failure on stderr.
void save_trace(const Options& o, const Tracer& t);

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint64_t op) : t_(t), idx_(t.open(name, op)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ----------------------------------------------------------------- apps

/// One Table I app with the arguments a workload runs it at.
struct AppCase {
  sod::apps::AppSpec spec;
  std::vector<sod::bc::Value> args;
};

/// The four Table I apps at bench scale (the apps' own bench arguments:
/// Fib 24, NQ 8, FFT 16x16 with a 1024-double workspace, TSP 8).
std::vector<AppCase> bench_scale_apps();
/// The four apps at the load generator's load scale (cluster/loadgen.cpp:
/// Fib 16/22, NQ 6/7, FFT 8x8 with 64 doubles, TSP 6/7 for normal/heavy).
std::vector<AppCase> load_scale_apps(bool heavy);

/// Builds and preprocesses `app`'s own program.
sod::bc::Program prepped_program(const AppCase& app);

}  // namespace perfbench
