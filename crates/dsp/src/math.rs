//! Inline elementary functions for the per-sample hot loops.
//!
//! The platform `ln` is a library call that cannot be inlined or
//! vectorised, and it dominates loops that take one logarithm per sample
//! (Box–Muller noise synthesis, the log-power onset picker). [`ln_normal`]
//! evaluates it inline as fdlibm's `e_log.c` does: reduce to `m` in
//! `[√2/2, √2)`, then a degree-7 polynomial in `s²` with
//! `s = (m−1)/(m+1)`; error below 1 ulp.

/// `2⁵²`: the float whose low mantissa bits hold an added small integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
/// `ln 2` split so that `k·LN2_HI` is exact for small integers `k`
/// (fdlibm's bit patterns, as are the coefficients below).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// fdlibm's minimax coefficients for `ln((1+s)/(1−s))`: `2s + Σ Lgᵢ·s²ⁱ⁺¹`.
const LG: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];

/// `ln x` for a normal positive `x`, after fdlibm's `e_log.c`. Zero,
/// subnormal, negative and non-finite inputs give meaningless (but
/// finite or NaN) results: clamp before calling.
///
/// ```
/// use softlora_dsp::math::ln_normal;
/// assert!((ln_normal(10.0) - 10f64.ln()).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn ln_normal(x: f64) -> f64 {
    let bits = x.to_bits();
    // Split x = 2^k·m with m in [√2/2, √2) by shifting the high word.
    let high = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    // k + 1023 is the exponent field of `high`; build k as a float exactly.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (high >> 20)) - (TWO_POW_52 + 1023.0);
    let m_high = (high & 0x000f_ffff) + 0x3fe6_a09e;
    let f = f64::from_bits((m_high << 32) | (bits & 0xffff_ffff)) - 1.0;
    let half_f2 = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let even = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let odd = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    s * (half_f2 + odd + even) + k * LN2_LO - half_f2 + f + k * LN2_HI
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn ln_matches_the_platform() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut worst = 0.0f64;
        for _ in 0..1_000_000u64 {
            let x = rng.random::<f64>().max(1e-12);
            worst = worst.max((ln_normal(x) - x.ln()).abs() / x.ln().abs().max(1e-300));
        }
        // The log-power picker's range: powers from its 1e-300 clamp up.
        for e in -996..1000 {
            let x = (1.0 + rng.random::<f64>()) * 2f64.powi(e);
            worst = worst.max((ln_normal(x) - x.ln()).abs() / x.ln().abs().max(1e-300));
        }
        assert_eq!(ln_normal(1.0), 0.0);
        assert!(worst <= 2.0 * f64::EPSILON, "ln: largest relative deviation {worst}");
    }
}
