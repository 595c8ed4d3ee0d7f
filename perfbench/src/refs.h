// Independent host references for the Table I apps, written apart from the
// guest programs and from the repository's tests, plus the output checker
// every workload runs its session and offload results through.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// n-th Fibonacci number, iterative.
int64_t ref_fib(int64_t n);
/// Number of n-queens solutions, by row-wise backtracking over column and
/// diagonal occupancy arrays.
int64_t ref_nqueens(int n);
/// The FFT app's checksum: an n x n grid filled with (i*7+31) % 101, a
/// forward radix-2 2-D transform (rows, then columns) and the truncated
/// sum of the real parts, with every floating-point operation in the
/// guest's order.
int64_t ref_fft_checksum(int n);
/// Shortest closed tour from city 0 over the TSP app's distance matrix,
/// by brute force over all (n-1)! orders (no pruning).
int64_t ref_tsp(int n);
/// Held-Karp dynamic programme over the same matrix; used only to
/// cross-check ref_tsp in the self-test.
int64_t ref_tsp_held_karp(int n);

/// Reference result of one app case (dispatches on the app name).
int64_t reference(const AppCase& app);

/// Compares each result with the reference of its app; returns how many
/// differ and describes the first mismatch in `first`.
int count_mismatches(const std::vector<int64_t>& results, const std::vector<int>& app_of,
                     const std::vector<int64_t>& expected, std::string* first);

/// Checks the references against known constants and cross-checks, and
/// shows that count_mismatches reports a deliberately wrong result.
/// Prints one line per check; returns 0 when all pass.
int selftest();

}  // namespace perfbench
