#include "bench.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "prep/prep.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

Clock::time_point g_process_start = Clock::now();

}  // namespace

Clock::time_point process_start() { return g_process_start; }
void mark_process_start() { g_process_start = Clock::now(); }

std::string report_json(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  if (q <= 0) return xs.front();
  if (q >= 1) return xs.back();
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// --------------------------------------------------------------- spans

int Tracer::open(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  if (idx < 0) return;
  spans_[static_cast<size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"clock\": \"steady_clock ns since recorder start\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": " << json_string(s.name) << ", \"start\": " << s.start_ns
      << ", \"end\": " << s.end_ns << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void save_trace(const Options& o, const Tracer& t) {
  const std::string dir = ".bench_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string path =
      dir + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  if (!t.write(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// ----------------------------------------------------------------- apps

using sod::bc::Value;

std::vector<AppCase> bench_scale_apps() {
  std::vector<AppCase> v;
  for (auto& spec : sod::apps::table1_apps()) {
    auto args = spec.bench_args;
    v.push_back({std::move(spec), std::move(args)});
  }
  return v;
}

std::vector<AppCase> load_scale_apps(bool heavy) {
  return {
      {sod::apps::fib_app(), {Value::of_i64(heavy ? 22 : 16)}},
      {sod::apps::nqueens_app(), {Value::of_i64(heavy ? 7 : 6)}},
      {sod::apps::fft_app(), {Value::of_i64(8), Value::of_i64(64)}},
      {sod::apps::tsp_app(), {Value::of_i64(heavy ? 7 : 6)}},
  };
}

sod::bc::Program prepped_program(const AppCase& app) {
  sod::bc::Program p = app.spec.build();
  sod::prep::preprocess_program(p);
  return p;
}

}  // namespace perfbench
