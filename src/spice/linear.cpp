#include "spice/linear.hpp"

#include <cmath>
#include <utility>

namespace taf::spice {

void dense_lu_solve(std::vector<double>& a, std::vector<double>& b, int n) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    double best = std::fabs(a[static_cast<size_t>(col) * n + col]);
    for (int r = col + 1; r < n; ++r) {
      const double v = std::fabs(a[static_cast<size_t>(r) * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < kPivotFloor) {
      double& diag = a[static_cast<size_t>(col) * n + col];
      diag += (diag >= 0.0 ? kPivotNudge : -kPivotNudge);
      pivot = col;
    }
    if (pivot != col) {
      for (int k = 0; k < n; ++k)
        std::swap(a[static_cast<size_t>(pivot) * n + k], a[static_cast<size_t>(col) * n + k]);
      std::swap(b[static_cast<size_t>(pivot)], b[static_cast<size_t>(col)]);
    }
    const double diag = a[static_cast<size_t>(col) * n + col];
    for (int r = col + 1; r < n; ++r) {
      const double f = a[static_cast<size_t>(r) * n + col] / diag;
      if (f == 0.0) continue;
      a[static_cast<size_t>(r) * n + col] = 0.0;
      for (int k = col + 1; k < n; ++k)
        a[static_cast<size_t>(r) * n + k] -= f * a[static_cast<size_t>(col) * n + k];
      b[static_cast<size_t>(r)] -= f * b[static_cast<size_t>(col)];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double sum = b[static_cast<size_t>(r)];
    for (int k = r + 1; k < n; ++k) sum -= a[static_cast<size_t>(r) * n + k] * b[static_cast<size_t>(k)];
    b[static_cast<size_t>(r)] = sum / a[static_cast<size_t>(r) * n + r];
  }
}

SolverCounters& thread_counters() {
  thread_local SolverCounters counters;
  return counters;
}

}  // namespace taf::spice
