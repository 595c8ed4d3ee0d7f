#include "refs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <utility>

namespace perfbench {

int64_t ref_fib(int64_t n) {
  int64_t a = 0, b = 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

namespace {

int64_t place_queens(int n, int row, std::vector<char>& col, std::vector<char>& up,
                     std::vector<char>& down) {
  if (row == n) return 1;
  int64_t count = 0;
  for (int c = 0; c < n; ++c) {
    const size_t u = static_cast<size_t>(row + c);
    const size_t d = static_cast<size_t>(row - c + n - 1);
    if (col[static_cast<size_t>(c)] || up[u] || down[d]) continue;
    col[static_cast<size_t>(c)] = up[u] = down[d] = 1;
    count += place_queens(n, row + 1, col, up, down);
    col[static_cast<size_t>(c)] = up[u] = down[d] = 0;
  }
  return count;
}

int64_t tsp_dist(int i, int j) {
  return i == j ? 0 : 1 + (int64_t{i} * 7 + int64_t{j} * 13 + int64_t{i} * j) % 97;
}

void fft_1d(std::vector<double>& re, std::vector<double>& im, int64_t off, int64_t n,
            int64_t stride, int64_t sign) {
  auto at = [&](int64_t k) { return static_cast<size_t>(off + k * stride); };
  for (int64_t i = 1, j = 0; i < n; ++i) {
    int64_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    if (i < j) {
      std::swap(re[at(i)], re[at(j)]);
      std::swap(im[at(i)], im[at(j)]);
    }
  }
  for (int64_t len = 2; len <= n; len <<= 1) {
    const int64_t half = len >> 1;
    for (int64_t i = 0; i < n; i += len) {
      for (int64_t k = 0; k < half; ++k) {
        const double ang = static_cast<double>(sign) * -6.283185307179586 *
                           static_cast<double>(k) / static_cast<double>(len);
        const double wr = std::cos(ang);
        const double wi = std::sin(ang);
        const size_t a = at(i + k);
        const size_t b = at(i + k + half);
        const double ur = re[a], ui = im[a];
        const double vr = re[b] * wr - im[b] * wi;
        const double vi = re[b] * wi + im[b] * wr;
        re[a] = ur + vr;
        im[a] = ui + vi;
        re[b] = ur - vr;
        im[b] = ui - vi;
      }
    }
  }
}

}  // namespace

int64_t ref_nqueens(int n) {
  std::vector<char> col(static_cast<size_t>(n), 0);
  std::vector<char> up(static_cast<size_t>(2 * n), 0);
  std::vector<char> down(static_cast<size_t>(2 * n), 0);
  return place_queens(n, 0, col, up, down);
}

int64_t ref_fft_checksum(int n) {
  const size_t total = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<double> re(total, 0.0), im(total, 0.0);
  for (size_t i = 0; i < total; ++i)
    re[i] = static_cast<double>((static_cast<int64_t>(i) * 7 + 31) % 101);
  for (int r = 0; r < n; ++r) fft_1d(re, im, int64_t{r} * n, n, 1, 1);
  for (int c = 0; c < n; ++c) fft_1d(re, im, c, n, n, 1);
  double s = 0;
  for (double x : re) s = s + x;
  return static_cast<int64_t>(s);
}

int64_t ref_tsp(int n) {
  std::vector<int> order(static_cast<size_t>(n - 1));
  std::iota(order.begin(), order.end(), 1);
  int64_t best = std::numeric_limits<int64_t>::max();
  do {
    int64_t cost = 0;
    int at = 0;
    for (int city : order) {
      cost += tsp_dist(at, city);
      at = city;
    }
    best = std::min(best, cost + tsp_dist(at, 0));
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

int64_t ref_tsp_held_karp(int n) {
  const int64_t inf = std::numeric_limits<int64_t>::max() / 4;
  const size_t sets = size_t{1} << n;
  // cost[S][j]: shortest path from 0 through set S (containing 0 and j),
  // ending at j.
  std::vector<std::vector<int64_t>> cost(sets, std::vector<int64_t>(static_cast<size_t>(n), inf));
  cost[1][0] = 0;
  for (size_t s = 1; s < sets; ++s) {
    if (!(s & 1)) continue;
    for (int j = 0; j < n; ++j) {
      const int64_t c = cost[s][static_cast<size_t>(j)];
      if (c >= inf) continue;
      for (int k = 1; k < n; ++k) {
        if (s & (size_t{1} << k)) continue;
        const size_t t = s | (size_t{1} << k);
        cost[t][static_cast<size_t>(k)] =
            std::min(cost[t][static_cast<size_t>(k)], c + tsp_dist(j, k));
      }
    }
  }
  int64_t best = inf;
  for (int j = 1; j < n; ++j) best = std::min(best, cost[sets - 1][static_cast<size_t>(j)] + tsp_dist(j, 0));
  return best;
}

int64_t reference(const AppCase& app) {
  const std::string& name = app.spec.name;
  const int64_t a0 = app.args.at(0).as_i64();
  if (name == "Fib") return ref_fib(a0);
  if (name == "NQ") return ref_nqueens(static_cast<int>(a0));
  if (name == "FFT") return ref_fft_checksum(static_cast<int>(a0));
  if (name == "TSP") return ref_tsp(static_cast<int>(a0));
  std::fprintf(stderr, "perfbench: no reference for app '%s'\n", name.c_str());
  return std::numeric_limits<int64_t>::min();
}

int count_mismatches(const std::vector<int64_t>& results, const std::vector<int>& app_of,
                     const std::vector<int64_t>& expected, std::string* first) {
  int bad = 0;
  if (results.size() != app_of.size()) {
    if (first) *first = "result count differs from session count";
    return static_cast<int>(std::max(results.size(), app_of.size()));
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const int64_t want = expected.at(static_cast<size_t>(app_of[i]));
    if (results[i] == want) continue;
    if (bad++ == 0 && first)
      *first = "session " + std::to_string(i) + ": got " + std::to_string(results[i]) +
               ", want " + std::to_string(want);
  }
  return bad;
}

int selftest() {
  int failures = 0;
  auto expect = [&](const char* what, int64_t got, int64_t want) {
    const bool ok = got == want;
    std::printf("%-44s %12lld  want %12lld  %s\n", what, static_cast<long long>(got),
                static_cast<long long>(want), ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  expect("fib(24)", ref_fib(24), 46368);
  expect("fib(22)", ref_fib(22), 17711);
  expect("fib(16)", ref_fib(16), 987);
  expect("8-queens", ref_nqueens(8), 92);
  expect("7-queens", ref_nqueens(7), 40);
  expect("6-queens", ref_nqueens(6), 4);
  // A 2-D DFT's coefficients sum to n*n times the first input sample
  // (31), so the real-part checksum sits within one unit of 31*n*n.
  for (int n : {8, 16}) {
    const int64_t want = 31LL * n * n;
    const int64_t got = ref_fft_checksum(n);
    expect(n == 8 ? "fft checksum n=8 (+-1 of 31*n*n)" : "fft checksum n=16 (+-1 of 31*n*n)",
           std::llabs(got - want) <= 1 ? want : got, want);
  }
  for (int n : {6, 7, 8}) {
    const std::string what = "tsp brute force = Held-Karp, n=" + std::to_string(n);
    expect(what.c_str(), ref_tsp(n), ref_tsp_held_karp(n));
  }
  // The checker must flag a deliberately wrong session result.
  {
    const std::vector<int64_t> expected = {ref_fib(24), ref_nqueens(8)};
    std::vector<int64_t> results = {expected[0], expected[1], expected[0]};
    const std::vector<int> app_of = {0, 1, 0};
    std::string first;
    expect("checker: correct sessions -> mismatches", count_mismatches(results, app_of, expected, &first), 0);
    results[1] += 1;
    expect("checker: one wrong session -> mismatches", count_mismatches(results, app_of, expected, &first), 1);
    std::printf("checker reported: %s\n", first.c_str());
  }
  std::printf("selftest: %s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
