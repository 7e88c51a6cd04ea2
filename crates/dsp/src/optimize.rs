//! Global and local optimisers for the least-squares FB estimator.
//!
//! The paper (§7.1.2) solves its non-convex least-squares template fit with
//! scipy's differential evolution [Storn & Price 1997]. This module provides
//! a from-scratch implementation of the classic `DE/rand/1/bin` strategy
//! plus a small Nelder–Mead simplex search for local polishing.

use crate::DspError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Outcome of an optimisation run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// Number of generations (DE) or iterations (Nelder–Mead) executed.
    pub iterations: usize,
    /// Whether the convergence tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Differential evolution (`DE/rand/1/bin`) global minimiser.
///
/// # Example
///
/// ```
/// use softlora_dsp::optimize::DifferentialEvolution;
///
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let de = DifferentialEvolution::new(vec![(-5.0, 5.0); 3]).with_seed(42);
/// let result = de.minimize(sphere)?;
/// assert!(result.value < 1e-8);
/// # Ok::<(), softlora_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    bounds: Vec<(f64, f64)>,
    population: usize,
    weight: f64,
    crossover: f64,
    max_generations: usize,
    tolerance: f64,
    seed: u64,
}

impl DifferentialEvolution {
    /// Creates a minimiser over the given per-dimension `(lo, hi)` bounds
    /// with scipy-like defaults (population `15 * dims`, `F = 0.7`,
    /// `CR = 0.9`).
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        let dims = bounds.len().max(1);
        DifferentialEvolution {
            bounds,
            population: 15 * dims,
            weight: 0.7,
            crossover: 0.9,
            max_generations: 300,
            tolerance: 1e-10,
            seed: 0x5EED_50F7_10A4,
        }
    }

    /// Sets the population size (minimum 4 enforced at run time).
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Sets the generation cap.
    pub fn with_max_generations(mut self, max_generations: usize) -> Self {
        self.max_generations = max_generations;
        self
    }

    /// Sets the convergence tolerance on the population's objective spread.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the RNG seed, making the run fully deterministic.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the minimisation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidBounds`] if the bounds are empty, contain
    /// NaN, or have `lo >= hi` in any dimension.
    pub fn minimize<F>(&self, mut objective: F) -> Result<OptimResult, DspError>
    where
        F: FnMut(&[f64]) -> f64,
    {
        if self.bounds.is_empty() {
            return Err(DspError::InvalidBounds { reason: "bounds must be non-empty" });
        }
        for &(lo, hi) in &self.bounds {
            if lo >= hi || !lo.is_finite() || !hi.is_finite() {
                return Err(DspError::InvalidBounds {
                    reason: "each bound must satisfy finite lo < hi",
                });
            }
        }
        let dims = self.bounds.len();
        let np = self.population.max(4);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Initial population: uniform in bounds.
        let mut pop: Vec<Vec<f64>> = (0..np)
            .map(|_| {
                self.bounds.iter().map(|&(lo, hi)| lo + (hi - lo) * rng.random::<f64>()).collect()
            })
            .collect();
        let mut fitness: Vec<f64> = pop.iter().map(|x| objective(x)).collect();
        let mut evaluations = np;

        let mut best = argmin(&fitness);
        let mut iterations = 0;
        let mut converged = false;

        for gen in 0..self.max_generations {
            iterations = gen + 1;
            for i in 0..np {
                // Pick three distinct indices != i.
                let (a, b, c) = distinct_three(&mut rng, np, i);
                // Mutation + binomial crossover.
                let jrand = rng.random_range(0..dims);
                let mut trial = pop[i].clone();
                for j in 0..dims {
                    if j == jrand || rng.random::<f64>() < self.crossover {
                        let v = pop[a][j] + self.weight * (pop[b][j] - pop[c][j]);
                        let (lo, hi) = self.bounds[j];
                        // Reflect out-of-bounds trials back inside.
                        trial[j] = reflect_into(v, lo, hi);
                    }
                }
                let f = objective(&trial);
                evaluations += 1;
                if f <= fitness[i] {
                    pop[i] = trial;
                    fitness[i] = f;
                    if f < fitness[best] {
                        best = i;
                    }
                }
            }
            // Convergence: population objective spread small relative to mean.
            let fmin = fitness[best];
            let fmax = fitness.iter().cloned().fold(f64::MIN, f64::max);
            if (fmax - fmin).abs() <= self.tolerance * (1.0 + fmin.abs()) {
                converged = true;
                break;
            }
        }

        Ok(OptimResult {
            x: pop[best].clone(),
            value: fitness[best],
            evaluations,
            iterations,
            converged,
        })
    }
}

/// Nelder–Mead downhill-simplex local minimiser.
///
/// Used to polish the DE winner so the frequency-bias estimate reaches
/// sub-bin (hertz-level) resolution without thousands of extra DE
/// generations.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `start` is empty or `scale` is
/// not positive.
pub fn nelder_mead<F>(
    mut objective: F,
    start: &[f64],
    scale: f64,
    max_iters: usize,
    tolerance: f64,
) -> Result<OptimResult, DspError>
where
    F: FnMut(&[f64]) -> f64,
{
    if start.is_empty() {
        return Err(DspError::InvalidParameter { reason: "start point must be non-empty" });
    }
    if scale <= 0.0 || !scale.is_finite() {
        return Err(DspError::InvalidParameter { reason: "scale must be positive and finite" });
    }
    let n = start.len();
    // Build initial simplex.
    let mut simplex: Vec<Vec<f64>> = vec![start.to_vec()];
    for j in 0..n {
        let mut v = start.to_vec();
        v[j] += scale * if v[j].abs() > 1e-12 { v[j].abs() } else { 1.0 };
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|x| objective(x)).collect();
    let mut evaluations = n + 1;

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..max_iters {
        iterations = it + 1;
        // Order simplex by objective.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let reordered: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let revalues: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        simplex = reordered;
        values = revalues;

        if (values[n] - values[0]).abs() <= tolerance * (1.0 + values[0].abs()) {
            converged = true;
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for v in &simplex[..n] {
            for j in 0..n {
                centroid[j] += v[j] / n as f64;
            }
        }
        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b.iter()).map(|(&x, &y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[n], -alpha);
        let fr = objective(&reflected);
        evaluations += 1;
        if fr < values[0] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[n], -gamma);
            let fe = objective(&expanded);
            evaluations += 1;
            if fe < fr {
                simplex[n] = expanded;
                values[n] = fe;
            } else {
                simplex[n] = reflected;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = reflected;
            values[n] = fr;
        } else {
            // Contraction.
            let contracted = lerp(&centroid, &simplex[n], rho);
            let fc = objective(&contracted);
            evaluations += 1;
            if fc < values[n] {
                simplex[n] = contracted;
                values[n] = fc;
            } else {
                // Shrink toward best.
                for i in 1..=n {
                    simplex[i] = lerp(&simplex[0], &simplex[i], sigma);
                    values[i] = objective(&simplex[i]);
                    evaluations += 1;
                }
            }
        }
    }

    let best = argmin(&values);
    Ok(OptimResult {
        x: simplex[best].clone(),
        value: values[best],
        evaluations,
        iterations,
        converged,
    })
}

/// Golden-section search for a 1-D unimodal minimum on `[lo, hi]`.
///
/// # Errors
///
/// Returns [`DspError::InvalidBounds`] unless `lo < hi` and both are finite.
pub fn golden_section<F>(mut f: F, lo: f64, hi: f64, tolerance: f64) -> Result<(f64, f64), DspError>
where
    F: FnMut(f64) -> f64,
{
    if lo >= hi || !lo.is_finite() || !hi.is_finite() {
        return Err(DspError::InvalidBounds { reason: "need finite lo < hi" });
    }
    let inv_phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tolerance {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let x = (a + b) / 2.0;
    let v = f(x);
    Ok((x, v))
}

fn argmin(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    best
}

fn distinct_three(rng: &mut StdRng, np: usize, exclude: usize) -> (usize, usize, usize) {
    debug_assert!(np >= 4);
    let mut pick = |used: &[usize]| loop {
        let k = rng.random_range(0..np);
        if k != exclude && !used.contains(&k) {
            return k;
        }
    };
    let a = pick(&[]);
    let b = pick(&[a]);
    let c = pick(&[a, b]);
    (a, b, c)
}

fn reflect_into(v: f64, lo: f64, hi: f64) -> f64 {
    let mut x = v;
    let span = hi - lo;
    // A couple of reflections almost always suffice; clamp as a backstop.
    for _ in 0..4 {
        if x < lo {
            x = lo + (lo - x);
        } else if x > hi {
            x = hi - (x - hi);
        } else {
            return x;
        }
        if !x.is_finite() {
            break;
        }
        // Guard against points far outside.
        if (x - lo).abs() > 2.0 * span {
            break;
        }
    }
    x.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (0..x.len() - 1)
            .map(|i| 100.0 * (x[i + 1] - x[i] * x[i]).powi(2) + (1.0 - x[i]).powi(2))
            .sum()
    }

    /// Multi-modal objective similar in shape to the FB least-squares
    /// surface: a cosine comb with a global quadratic envelope.
    fn comb(x: &[f64]) -> f64 {
        let v = x[0];
        (v - 2.0) * (v - 2.0) + 5.0 * (1.0 - (3.0 * (v - 2.0)).cos())
    }

    #[test]
    fn de_minimizes_sphere() {
        let de = DifferentialEvolution::new(vec![(-10.0, 10.0); 4]).with_seed(1);
        let r = de.minimize(sphere).unwrap();
        assert!(r.value < 1e-6, "value {}", r.value);
        for v in &r.x {
            assert!(v.abs() < 1e-2);
        }
    }

    #[test]
    fn de_minimizes_rosenbrock_2d() {
        let de =
            DifferentialEvolution::new(vec![(-5.0, 5.0); 2]).with_seed(2).with_max_generations(600);
        let r = de.minimize(rosenbrock).unwrap();
        assert!(r.value < 1e-4, "value {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 0.05);
        assert!((r.x[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn de_escapes_local_minima_of_comb() {
        let de = DifferentialEvolution::new(vec![(-10.0, 10.0)]).with_seed(3);
        let r = de.minimize(comb).unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-3, "x {}", r.x[0]);
    }

    #[test]
    fn de_is_deterministic_for_fixed_seed() {
        let de = DifferentialEvolution::new(vec![(-3.0, 3.0); 2]).with_seed(99);
        let r1 = de.minimize(sphere).unwrap();
        let r2 = de.minimize(sphere).unwrap();
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.value, r2.value);
    }

    #[test]
    fn de_never_worse_than_best_initial_population_member() {
        // Run a single generation and confirm monotone improvement.
        let de =
            DifferentialEvolution::new(vec![(-8.0, 8.0); 3]).with_seed(5).with_max_generations(1);
        let r = de.minimize(sphere).unwrap();
        // The best initial member of a uniform population on [-8,8]^3 has
        // an expected value far above machine epsilon; here we only check
        // the invariant that the result respects the bounds.
        for (v, &(lo, hi)) in r.x.iter().zip([(-8.0, 8.0); 3].iter()) {
            assert!(*v >= lo && *v <= hi);
        }
        assert!(r.evaluations > 0);
    }

    #[test]
    fn de_validates_bounds() {
        assert!(DifferentialEvolution::new(vec![]).minimize(sphere).is_err());
        assert!(DifferentialEvolution::new(vec![(1.0, 1.0)]).minimize(sphere).is_err());
        assert!(DifferentialEvolution::new(vec![(2.0, -2.0)]).minimize(sphere).is_err());
        assert!(DifferentialEvolution::new(vec![(f64::NAN, 1.0)]).minimize(sphere).is_err());
    }

    #[test]
    fn nelder_mead_polishes_to_high_precision() {
        let r = nelder_mead(sphere, &[0.3, -0.2], 0.1, 500, 1e-15).unwrap();
        assert!(r.value < 1e-12, "value {}", r.value);
    }

    #[test]
    fn nelder_mead_on_rosenbrock() {
        let r = nelder_mead(rosenbrock, &[-1.2, 1.0], 0.5, 2000, 1e-14).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-4);
        assert!((r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_validates() {
        assert!(nelder_mead(sphere, &[], 0.1, 10, 1e-6).is_err());
        assert!(nelder_mead(sphere, &[1.0], 0.0, 10, 1e-6).is_err());
        assert!(nelder_mead(sphere, &[1.0], f64::INFINITY, 10, 1e-6).is_err());
    }

    #[test]
    fn de_then_nm_pipeline() {
        // The production FB estimator runs DE coarse + NM polish; verify the
        // pipeline reaches near machine precision on a nasty objective.
        let de =
            DifferentialEvolution::new(vec![(-10.0, 10.0)]).with_seed(7).with_max_generations(60);
        let coarse = de.minimize(comb).unwrap();
        let fine = nelder_mead(comb, &coarse.x, 0.01, 300, 1e-15).unwrap();
        assert!((fine.x[0] - 2.0).abs() < 1e-8, "x {}", fine.x[0]);
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let (x, v) = golden_section(|x| (x - 1.5) * (x - 1.5) + 2.0, -10.0, 10.0, 1e-10).unwrap();
        // Accuracy near the minimum is limited by the flatness of the
        // objective in f64 (differences below ~1e-16 of the offset are
        // unresolvable), so expect ~sqrt(eps) localisation.
        assert!((x - 1.5).abs() < 1e-6);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn golden_section_validates() {
        assert!(golden_section(|x| x, 1.0, 1.0, 1e-6).is_err());
        assert!(golden_section(|x| x, 2.0, 1.0, 1e-6).is_err());
    }

    #[test]
    fn reflect_into_stays_in_bounds() {
        for v in [-100.0, -1.1, 0.0, 0.5, 1.0, 1.7, 55.0] {
            let x = reflect_into(v, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x), "{v} -> {x}");
        }
    }
}
