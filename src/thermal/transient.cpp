#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace taf::thermal {

namespace {

void validate_options(const TransientOptions& opt) {
  auto positive = [](double v, const char* name) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument(std::string("TransientEngine: option ") + name +
                                  " must be positive and finite, got " +
                                  std::to_string(v));
    }
  };
  positive(opt.dt_init_frac, "dt_init_frac");
  positive(opt.dt_min_frac, "dt_min_frac");
  positive(opt.dt_max_frac, "dt_max_frac");
  positive(opt.grow, "grow");
  positive(opt.shrink, "shrink");
  positive(opt.target_step_k.value(), "target_step_k");
  if (opt.dt_min_frac > opt.dt_max_frac) {
    throw std::invalid_argument("TransientEngine: dt_min_frac > dt_max_frac");
  }
  if (opt.grow < 1.0 || opt.shrink > 1.0) {
    throw std::invalid_argument(
        "TransientEngine: grow must be >= 1 and shrink <= 1");
  }
  if (!(opt.steady_tol_k.value() >= 0.0) ||
      !std::isfinite(opt.steady_tol_k.value())) {
    throw std::invalid_argument(
        "TransientEngine: steady_tol_k must be finite and >= 0");
  }
  if (opt.max_steps == 0) {
    throw std::invalid_argument("TransientEngine: max_steps must be > 0");
  }
}

}  // namespace

TransientEngine::TransientEngine(const ThermalGrid& grid, TransientOptions opt)
    : grid_(grid), opt_(opt) {
  validate_options(opt_);
}

void TransientEngine::advance(const std::vector<double>& power_w,
                              units::Seconds duration, std::vector<double>& temps,
                              TransientStats* stats) const {
  const auto n =
      static_cast<std::size_t>(grid_.width()) * static_cast<std::size_t>(grid_.height());
  if (power_w.size() != n || temps.size() != n) {
    throw std::invalid_argument(
        "TransientEngine::advance: power/temps size (" +
        std::to_string(power_w.size()) + "/" + std::to_string(temps.size()) +
        ") does not match the " + std::to_string(n) + "-tile grid");
  }
  if (!(duration.value() >= 0.0) || !std::isfinite(duration.value())) {
    throw std::invalid_argument(
        "TransientEngine::advance: duration must be finite and >= 0, got " +
        std::to_string(duration.value()) + " s");
  }
  if (duration.value() == 0.0) return;

  const double tau = grid_.tile_time_constant().value();
  const double dt_min = opt_.dt_min_frac * tau;
  const double dt_max = opt_.dt_max_frac * tau;
  double dt = std::clamp(opt_.dt_init_frac * tau, dt_min, dt_max);

  std::vector<double> prev(n);
  double remaining = duration.value();
  std::uint64_t steps = 0;
  while (remaining > 0.0) {
    if (steps >= opt_.max_steps) {
      throw std::runtime_error(
          "TransientEngine::advance: exceeded max_steps = " +
          std::to_string(opt_.max_steps) + " with " + std::to_string(remaining) +
          " s of dwell remaining (duration too long for the step bounds)");
    }
    // The final step is clipped to land on the dwell boundary exactly, so
    // the advanced time equals `duration` by construction — no drift.
    const double dt_eff = std::min(dt, remaining);
    prev = temps;
    CgStats cg;
    grid_.step(power_w, units::Seconds{dt_eff}, temps, &cg);
    ++steps;
    if (stats != nullptr) {
      ++stats->steps;
      stats->cg_iterations += static_cast<std::uint64_t>(cg.iterations);
    }
    remaining = dt_eff < remaining ? remaining - dt_eff : 0.0;
    if (remaining <= 0.0) break;

    double max_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_d = std::max(max_d, std::abs(temps[i] - prev[i]));
    }
    // Dwell hold: controller saturated at dt_max and the step moved
    // nothing beyond solver accuracy — the field is at the backward-Euler
    // fixed point, which is the steady-state solution, so the rest of
    // the dwell cannot change it (see header).
    if (opt_.steady_tol_k.value() > 0.0 && dt_eff >= dt_max &&
        max_d <= opt_.steady_tol_k.value()) {
      if (stats != nullptr) ++stats->holds;
      break;
    }
    if (max_d > opt_.target_step_k.value()) {
      dt = std::max(dt * opt_.shrink, dt_min);
    } else if (max_d < 0.25 * opt_.target_step_k.value()) {
      dt = std::min(dt * opt_.grow, dt_max);
    }
  }
}

}  // namespace taf::thermal
