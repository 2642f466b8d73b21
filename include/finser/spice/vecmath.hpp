#pragma once
/// \file vecmath.hpp
/// \brief Deterministic, lane-vectorizable exp/log1p kernels (finser::spice).
///
/// The FinFET model evaluation (finfet.hpp, detail::ekv_f) is the arithmetic
/// that dominates every Newton iteration of the characterization hot path —
/// two exponentials and one log1p per F(u) evaluation, a dozen evaluations
/// per iteration. The lane-batched engine (engine_detail.hpp) advances W
/// independent transients in lockstep, which only pays off if that
/// transcendental work vectorizes across lanes; libm's std::exp/std::log1p
/// are opaque scalar calls and do not.
///
/// fexp()/flog1p() below are the replacement: straight-line, select-based
/// (no data-dependent branches), fixed evaluation order, written against
/// IEEE-754 double semantics only. Compiled with floating-point contraction
/// disabled (the build forces -ffp-contract=off) every target — the
/// reference engine, the compiled DC solve, and every batch lane width —
/// computes the exact same bit pattern for the same input, on any x86-64
/// feature level. That is the **bit-pinned contract**: the batched engine is
/// byte-identical to the reference one because both call these very kernels, and a loop over
/// lanes auto-vectorizes them without changing per-lane results (elementwise
/// IEEE ops are bitwise identical scalar or SIMD; there is nothing to
/// reassociate).
///
/// Accuracy is a few ulp against libm (pinned by the reference-check test in
/// tests/test_spice_compiled.cpp); the golden figures carry a 2% libm
/// headroom precisely so an alternative correctly-rounded-ish libm passes.
///
/// Domain notes (all that ekv_f needs):
///   * fexp: full double range; overflow → +inf, deep underflow → 0,
///     NaN → NaN. Subnormal results keep only ~1 rounding step of the
///     gradual-underflow tail (two-step scaling) — deterministic, and far
///     below any physical current in the model.
///   * flog1p: x >= 0 (plus +inf → +inf, NaN → NaN). Negative inputs are
///     outside the contract.

#include <bit>
#include <cstdint>
#include <limits>

namespace finser::spice::detail {

/// Deterministic exp(x) (see file comment). Cody–Waite argument reduction
/// x = k·ln2 + r with round-to-nearest k, degree-13 Taylor core on
/// |r| <= ln2/2, and exact two-step 2^k bit scaling.
inline double fexp(double x) {
  constexpr double kLog2E = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // 1.5·2^52: adding it rounds x·log2(e) to the nearest integer in the
  // low mantissa bits (round-to-nearest-even, the IEEE default mode).
  constexpr double kShift = 6755399441055744.0;
  constexpr double kOverflow = 709.782712893383973096;
  constexpr double kUnderflow = -745.2;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const double t = x * kLog2E + kShift;
  const double kd = t - kShift;
  // Branchless NaN/range guard before the int conversion (converting an
  // out-of-range double is UB): a clamped garbage k only feeds lanes whose
  // result the final selects overwrite anyway.
  const double kd_c = kd > 2100.0 ? 2100.0 : (kd < -2100.0 ? -2100.0 : kd);
  const double kd_s = kd_c == kd_c ? kd_c : 0.0;
  const auto ki = static_cast<std::int32_t>(kd_s);

  const double r_hi = x - kd_s * kLn2Hi;
  const double r = r_hi - kd_s * kLn2Lo;

  // exp(r), |r| <= 0.3466: Taylor to r^13 (remainder < 1 ulp), full Horner.
  double p = 1.60590438368216133e-10;  // 1/13!
  p = p * r + 2.08767569878680989e-09;  // 1/12!
  p = p * r + 2.50521083854417188e-08;  // 1/11!
  p = p * r + 2.75573192239858883e-07;  // 1/10!
  p = p * r + 2.75573192239858925e-06;  // 1/9!
  p = p * r + 2.48015873015873016e-05;  // 1/8!
  p = p * r + 1.98412698412698413e-04;  // 1/7!
  p = p * r + 1.38888888888888894e-03;  // 1/6!
  p = p * r + 8.33333333333333322e-03;  // 1/5!
  p = p * r + 4.16666666666666644e-02;  // 1/4!
  p = p * r + 1.66666666666666657e-01;  // 1/3!
  p = p * r + 5.00000000000000000e-01;  // 1/2!
  p = p * r + 1.0;
  p = p * r + 1.0;

  // 2^ki via exponent-field construction, split in two so the subnormal /
  // near-overflow halves stay individually representable.
  const std::int32_t k1 = ki / 2;
  const std::int32_t k2 = ki - k1;
  const double s1 = std::bit_cast<double>(
      static_cast<std::uint64_t>(static_cast<std::int64_t>(1023 + k1)) << 52);
  const double s2 = std::bit_cast<double>(
      static_cast<std::uint64_t>(static_cast<std::int64_t>(1023 + k2)) << 52);
  double result = p * s1 * s2;

  result = x > kOverflow ? kInf : result;
  result = x < kUnderflow ? 0.0 : result;
  result = x != x ? x : result;  // NaN propagates.
  return result;
}

/// Deterministic log(u) for normal positive u (internal core of flog1p):
/// mantissa/exponent split to m ∈ [√½, √2), atanh series in s = (m−1)/(m+1).
inline double flog_normal(double u) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kSqrt2 = 1.41421356237309514547;

  const auto bits = std::bit_cast<std::uint64_t>(u);
  const auto e_raw = static_cast<std::int64_t>((bits >> 52) & 0x7FF) - 1023;
  double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) |
                                   0x3FF0000000000000ull);  // [1, 2)
  double e = static_cast<double>(e_raw);
  const bool fold = m > kSqrt2;
  m = fold ? 0.5 * m : m;
  e = fold ? e + 1.0 : e;

  const double s = (m - 1.0) / (m + 1.0);  // |s| <= 0.1716
  const double z = s * s;
  // log(m) = 2s·(1 + z/3 + z²/5 + … ), Taylor through s^21 (< 1 ulp rel).
  double q = 4.76190476190476164e-02;  // 1/21
  q = q * z + 5.26315789473684181e-02;  // 1/19
  q = q * z + 5.88235294117647051e-02;  // 1/17
  q = q * z + 6.66666666666666657e-02;  // 1/15
  q = q * z + 7.69230769230769273e-02;  // 1/13
  q = q * z + 9.09090909090909116e-02;  // 1/11
  q = q * z + 1.11111111111111105e-01;  // 1/9
  q = q * z + 1.42857142857142849e-01;  // 1/7
  q = q * z + 2.00000000000000011e-01;  // 1/5
  q = q * z + 3.33333333333333315e-01;  // 1/3
  const double lg_m = 2.0 * s + 2.0 * s * z * q;
  return e * kLn2Hi + (lg_m + e * kLn2Lo);
}

/// Deterministic log1p(x) for x >= 0 (see file comment). Uses the classic
/// exact correction log1p(x) = log(u)·x/(u−1) with u = 1+x, which repairs
/// the low bits the 1+x rounding discarded; tiny x short-circuits to x.
inline double flog1p(double x) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double u = 1.0 + x;
  const double d = u - 1.0;
  // The division is unconditional on a select-protected denominator (nudged
  // to 1.0 when d == 0, in which case corr is discarded by the select below)
  // so no statement is guarded by a branch: a `d == 0 ? 1.0 : x / d` ternary
  // keeps a real branch around the possibly-trapping division, which blocks
  // if-conversion — and with it lane vectorization — of every loop this
  // inlines into. The additive form (rather than selecting the denominator
  // directly) stops the compiler from folding the x/1.0 arm away and
  // re-hoisting the select around the division; d + 0.0 == d bit for bit for
  // every nonzero d, so the d != 0 path is untouched.
  const double dsafe = d + (d == 0.0 ? 1.0 : 0.0);
  const double corr = x / dsafe;
  // Evaluated unconditionally for the same reason (a ternary arm is a
  // branch): when d == 0, u is exactly 1.0, flog_normal(1.0) is a safe 0.0,
  // and the select discards it.
  const double lg = flog_normal(u);
  double result = d == 0.0 ? x : lg * corr;
  result = x == kInf ? kInf : result;
  result = x != x ? x : result;  // NaN propagates.
  return result;
}

}  // namespace finser::spice::detail
