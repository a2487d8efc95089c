#include "stats/student_t.h"

namespace gc {

double t_quantile(double confidence, std::size_t df) noexcept {
  // Small lookup for the common levels, then a large-df normal fallback
  // with the Cornish–Fisher-style df correction t ≈ z + (z^3+z)/(4 df).
  struct Entry {
    std::size_t df;
    double t90, t95, t99;
  };
  static constexpr Entry kTable[] = {
      {1, 6.314, 12.706, 63.657}, {2, 2.920, 4.303, 9.925}, {3, 2.353, 3.182, 5.841},
      {4, 2.132, 2.776, 4.604},   {5, 2.015, 2.571, 4.032}, {6, 1.943, 2.447, 3.707},
      {7, 1.895, 2.365, 3.499},   {8, 1.860, 2.306, 3.355}, {9, 1.833, 2.262, 3.250},
      {10, 1.812, 2.228, 3.169},  {15, 1.753, 2.131, 2.947},
      {20, 1.725, 2.086, 2.845},  {30, 1.697, 2.042, 2.750},
      {60, 1.671, 2.000, 2.660},  {120, 1.658, 1.980, 2.617}};

  const double z = confidence >= 0.989 ? 2.5758 : (confidence >= 0.949 ? 1.9600 : 1.6449);
  auto pick = [&](const Entry& e) {
    return confidence >= 0.989 ? e.t99 : (confidence >= 0.949 ? e.t95 : e.t90);
  };
  const Entry* below = nullptr;
  for (const Entry& e : kTable) {
    if (e.df == df) return pick(e);
    if (e.df < df) below = &e;
    if (e.df > df && below != nullptr) {
      // Interpolate in 1/df, which is nearly linear for t quantiles.
      const double x = 1.0 / static_cast<double>(df);
      const double x0 = 1.0 / static_cast<double>(below->df);
      const double x1 = 1.0 / static_cast<double>(e.df);
      const double w = (x - x0) / (x1 - x0);
      return pick(*below) * (1.0 - w) + pick(e) * w;
    }
  }
  const double d = static_cast<double>(df);
  return z + (z * z * z + z) / (4.0 * d);
}

}  // namespace gc
