#pragma once
// Zero-overhead strong physical-unit types for the thermal/timing/power
// flow (DESIGN.md section 9).
//
// Algorithm 1 iterates {timing -> power -> thermal} until the tile
// temperatures converge, and every hand-off crosses a unit boundary:
// Celsius vs Kelvin, seconds vs picoseconds, Watts vs microwatts. A
// mixup at any of them would not fail a test — it would converge the
// loop to a quietly wrong guardband. These types make such a mixup a
// compile error instead:
//
//   * every unit is a distinct type wrapping one double — same size,
//     same ABI, trivially copyable, constexpr throughout (the
//     static_asserts at the bottom of this header and the negative-
//     compilation harness in tests/ pin this down);
//   * construction from and extraction to raw double are explicit
//     (brace-init in, .value() out), so raw numbers only enter or leave
//     at a visible, greppable point;
//   * arithmetic is restricted to dimensionally valid operations:
//     same-unit sums, scalar scaling, same-unit ratios (dimensionless),
//     and a curated set of cross-unit products (Ohms * Farads = Seconds,
//     period <-> frequency, V^2 / R = Watts);
//   * temperature is affine: absolute Celsius and Kelvin *differences*
//     are different things. Celsius +/- Kelvin moves an absolute
//     temperature by a delta; Celsius - Celsius yields the delta; and
//     Celsius + Celsius does not compile. Conversion between the scales
//     is only through to_kelvin()/to_celsius().
//
// Bulk per-tile fields (temperature maps, power maps) deliberately stay
// std::vector<double>: they are solver payloads addressed by BLAS-style
// loops, and their producing/consuming APIs are typed at every scalar
// crossing. tools/taf-analyze.suppressions carries the justified
// suppression list.

namespace taf::util::units {

/// Generic linear (vector-space) quantity: a strong typedef over double
/// with dimensionally closed arithmetic. `Tag` only disambiguates types.
template <class Tag>
class Unit {
 public:
  constexpr Unit() noexcept = default;
  constexpr explicit Unit(double value) noexcept : v_(value) {}

  [[nodiscard]] constexpr double value() const noexcept { return v_; }

  constexpr Unit& operator+=(Unit r) noexcept { v_ += r.v_; return *this; }
  constexpr Unit& operator-=(Unit r) noexcept { v_ -= r.v_; return *this; }
  constexpr Unit& operator*=(double s) noexcept { v_ *= s; return *this; }
  constexpr Unit& operator/=(double s) noexcept { v_ /= s; return *this; }

  friend constexpr Unit operator+(Unit a, Unit b) noexcept { return Unit{a.v_ + b.v_}; }
  friend constexpr Unit operator-(Unit a, Unit b) noexcept { return Unit{a.v_ - b.v_}; }
  friend constexpr Unit operator-(Unit a) noexcept { return Unit{-a.v_}; }
  friend constexpr Unit operator*(Unit a, double s) noexcept { return Unit{a.v_ * s}; }
  friend constexpr Unit operator*(double s, Unit a) noexcept { return Unit{s * a.v_}; }
  friend constexpr Unit operator/(Unit a, double s) noexcept { return Unit{a.v_ / s}; }
  /// Ratio of like quantities is dimensionless.
  friend constexpr double operator/(Unit a, Unit b) noexcept { return a.v_ / b.v_; }

  friend constexpr bool operator==(Unit a, Unit b) noexcept { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Unit a, Unit b) noexcept { return a.v_ != b.v_; }
  friend constexpr bool operator<(Unit a, Unit b) noexcept { return a.v_ < b.v_; }
  friend constexpr bool operator<=(Unit a, Unit b) noexcept { return a.v_ <= b.v_; }
  friend constexpr bool operator>(Unit a, Unit b) noexcept { return a.v_ > b.v_; }
  friend constexpr bool operator>=(Unit a, Unit b) noexcept { return a.v_ >= b.v_; }

 private:
  double v_ = 0.0;
};

/// Temperature difference (and absolute thermodynamic temperature; the
/// flow only ever uses Kelvin as a delta — thresholds, margins, solver
/// tolerances — or transiently inside a physics formula).
using Kelvin = Unit<struct KelvinTag>;
using Watts = Unit<struct WattsTag>;
using Microwatts = Unit<struct MicrowattsTag>;
using Seconds = Unit<struct SecondsTag>;
using Picoseconds = Unit<struct PicosecondsTag>;
using Hertz = Unit<struct HertzTag>;
using Megahertz = Unit<struct MegahertzTag>;
using Volts = Unit<struct VoltsTag>;
using Ohms = Unit<struct OhmsTag>;
using Farads = Unit<struct FaradsTag>;

/// Absolute temperature on the Celsius scale — an affine point, not a
/// vector: points move by Kelvin deltas, and the difference of two
/// points is a Kelvin delta. Celsius + Celsius intentionally does not
/// exist (35 degC + 35 degC is not 70 degC of anything).
class Celsius {
 public:
  constexpr Celsius() noexcept = default;
  constexpr explicit Celsius(double degrees) noexcept : v_(degrees) {}

  [[nodiscard]] constexpr double value() const noexcept { return v_; }

  constexpr Celsius& operator+=(Kelvin d) noexcept { v_ += d.value(); return *this; }
  constexpr Celsius& operator-=(Kelvin d) noexcept { v_ -= d.value(); return *this; }

  friend constexpr Celsius operator+(Celsius t, Kelvin d) noexcept {
    return Celsius{t.v_ + d.value()};
  }
  friend constexpr Celsius operator+(Kelvin d, Celsius t) noexcept {
    return Celsius{d.value() + t.v_};
  }
  friend constexpr Celsius operator-(Celsius t, Kelvin d) noexcept {
    return Celsius{t.v_ - d.value()};
  }
  friend constexpr Kelvin operator-(Celsius a, Celsius b) noexcept {
    return Kelvin{a.v_ - b.v_};
  }

  friend constexpr bool operator==(Celsius a, Celsius b) noexcept { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Celsius a, Celsius b) noexcept { return a.v_ != b.v_; }
  friend constexpr bool operator<(Celsius a, Celsius b) noexcept { return a.v_ < b.v_; }
  friend constexpr bool operator<=(Celsius a, Celsius b) noexcept { return a.v_ <= b.v_; }
  friend constexpr bool operator>(Celsius a, Celsius b) noexcept { return a.v_ > b.v_; }
  friend constexpr bool operator>=(Celsius a, Celsius b) noexcept { return a.v_ >= b.v_; }

 private:
  double v_ = 0.0;
};

// --- Scale conversions (always explicit, never operators).

inline constexpr double kCelsiusOffset = 273.15;

[[nodiscard]] constexpr Kelvin to_kelvin(Celsius c) noexcept {
  return Kelvin{c.value() + kCelsiusOffset};
}
[[nodiscard]] constexpr Celsius to_celsius(Kelvin k) noexcept {
  return Celsius{k.value() - kCelsiusOffset};
}
[[nodiscard]] constexpr Seconds to_seconds(Picoseconds p) noexcept {
  return Seconds{p.value() * 1e-12};
}
[[nodiscard]] constexpr Picoseconds to_picoseconds(Seconds s) noexcept {
  return Picoseconds{s.value() * 1e12};
}
[[nodiscard]] constexpr Watts to_watts(Microwatts u) noexcept {
  return Watts{u.value() * 1e-6};
}
[[nodiscard]] constexpr Microwatts to_microwatts(Watts w) noexcept {
  return Microwatts{w.value() * 1e6};
}
[[nodiscard]] constexpr Hertz to_hertz(Megahertz m) noexcept {
  return Hertz{m.value() * 1e6};
}
[[nodiscard]] constexpr Megahertz to_megahertz(Hertz h) noexcept {
  return Megahertz{h.value() * 1e-6};
}

// --- Dimensionally valid cross-unit operations.

/// RC time constant.
[[nodiscard]] constexpr Seconds operator*(Ohms r, Farads c) noexcept {
  return Seconds{r.value() * c.value()};
}
[[nodiscard]] constexpr Seconds operator*(Farads c, Ohms r) noexcept {
  return Seconds{c.value() * r.value()};
}
/// Cycles elapsed (dimensionless).
[[nodiscard]] constexpr double operator*(Seconds s, Hertz f) noexcept {
  return s.value() * f.value();
}
[[nodiscard]] constexpr double operator*(Hertz f, Seconds s) noexcept {
  return f.value() * s.value();
}
/// Resistive dissipation V^2 / R.
[[nodiscard]] constexpr Watts dissipation(Volts v, Ohms r) noexcept {
  return Watts{v.value() * v.value() / r.value()};
}

/// Clock frequency of a critical-path period. The MHz/ps pairing uses
/// exactly the flow's historical expression (1e6 / cp_ps), so migrated
/// call sites are bit-identical to the raw-double arithmetic.
[[nodiscard]] constexpr Megahertz frequency_of(Picoseconds period) noexcept {
  return Megahertz{1e6 / period.value()};
}
[[nodiscard]] constexpr Picoseconds period_of(Megahertz f) noexcept {
  return Picoseconds{1e6 / f.value()};
}
[[nodiscard]] constexpr Hertz frequency_of(Seconds period) noexcept {
  return Hertz{1.0 / period.value()};
}
[[nodiscard]] constexpr Seconds period_of(Hertz f) noexcept {
  return Seconds{1.0 / f.value()};
}

// --- Literals (opt-in: `using namespace taf::util::units::literals`).

namespace literals {
constexpr Celsius operator""_degC(long double v) { return Celsius{static_cast<double>(v)}; }
constexpr Celsius operator""_degC(unsigned long long v) { return Celsius{static_cast<double>(v)}; }
constexpr Kelvin operator""_K(long double v) { return Kelvin{static_cast<double>(v)}; }
constexpr Kelvin operator""_K(unsigned long long v) { return Kelvin{static_cast<double>(v)}; }
constexpr Watts operator""_W(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_W(unsigned long long v) { return Watts{static_cast<double>(v)}; }
constexpr Microwatts operator""_uW(long double v) { return Microwatts{static_cast<double>(v)}; }
constexpr Microwatts operator""_uW(unsigned long long v) { return Microwatts{static_cast<double>(v)}; }
constexpr Seconds operator""_s(long double v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_s(unsigned long long v) { return Seconds{static_cast<double>(v)}; }
constexpr Picoseconds operator""_ps(long double v) { return Picoseconds{static_cast<double>(v)}; }
constexpr Picoseconds operator""_ps(unsigned long long v) { return Picoseconds{static_cast<double>(v)}; }
constexpr Hertz operator""_Hz(long double v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_Hz(unsigned long long v) { return Hertz{static_cast<double>(v)}; }
constexpr Megahertz operator""_MHz(long double v) { return Megahertz{static_cast<double>(v)}; }
constexpr Megahertz operator""_MHz(unsigned long long v) { return Megahertz{static_cast<double>(v)}; }
constexpr Volts operator""_V(long double v) { return Volts{static_cast<double>(v)}; }
constexpr Volts operator""_V(unsigned long long v) { return Volts{static_cast<double>(v)}; }
constexpr Ohms operator""_Ohm(long double v) { return Ohms{static_cast<double>(v)}; }
constexpr Ohms operator""_Ohm(unsigned long long v) { return Ohms{static_cast<double>(v)}; }
constexpr Farads operator""_F(long double v) { return Farads{static_cast<double>(v)}; }
constexpr Farads operator""_F(unsigned long long v) { return Farads{static_cast<double>(v)}; }
constexpr Farads operator""_fF(long double v) { return Farads{static_cast<double>(v) * 1e-15}; }
constexpr Farads operator""_fF(unsigned long long v) { return Farads{static_cast<double>(v) * 1e-15}; }
}  // namespace literals

// --- Zero-overhead contract: one double, trivially copyable, no vtable.
static_assert(sizeof(Celsius) == sizeof(double));
static_assert(sizeof(Kelvin) == sizeof(double));
static_assert(sizeof(Watts) == sizeof(double));
static_assert(sizeof(Picoseconds) == sizeof(double));
static_assert(__is_trivially_copyable(Celsius));
static_assert(__is_trivially_copyable(Watts));
static_assert(__is_trivially_copyable(Megahertz));

}  // namespace taf::util::units

namespace taf {
/// Flow-wide shorthand: `units::Celsius` from any taf:: namespace.
namespace units = util::units;
}  // namespace taf
