//! The gravity traffic model behind [`DemandSpec::Gravity`] and
//! [`StreamModel::DiurnalGravity`] — the SMORE-style WAN workload
//! (`[KYY+18a/b]`, Section 1.1 of the paper).
//!
//! [`DemandSpec::Gravity`]: crate::DemandSpec::Gravity
//! [`StreamModel::DiurnalGravity`]: crate::StreamModel::DiurnalGravity

use rand::Rng;
use ssor_flow::Demand;
use ssor_graph::VertexId;

/// Gravity-model demand generator with diurnal drift.
///
/// Router weights are heavy-tailed (Pareto-like, via `u^{-1/a}`);
/// `d(s, t) ∝ w_s * w_t`, modulated per snapshot by a sinusoidal diurnal
/// factor with per-source phase plus multiplicative noise.
#[derive(Debug, Clone)]
pub(crate) struct GravityModel {
    weights: Vec<f64>,
    phases: Vec<f64>,
    /// Total demand volume per snapshot (before modulation).
    total: f64,
    /// Relative amplitude of the diurnal swing (0..1).
    amplitude: f64,
    /// Log-normal noise sigma.
    noise: f64,
}

impl GravityModel {
    /// Samples router weights and phases for an `n`-router network.
    pub(crate) fn sample<R: Rng + ?Sized>(n: usize, total: f64, rng: &mut R) -> Self {
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.01..1.0);
                u.powf(-1.0 / 1.5) // Pareto(1.5) tail
            })
            .collect();
        let phases: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..(2.0 * std::f64::consts::PI)))
            .collect();
        GravityModel {
            weights,
            phases,
            total,
            amplitude: 0.4,
            noise: 0.2,
        }
    }

    /// The demand snapshot at time `t` of `period` (e.g. hour `t` of 24).
    pub(crate) fn snapshot<R: Rng + ?Sized>(&self, t: usize, period: usize, rng: &mut R) -> Demand {
        let wsum: f64 = self.weights.iter().sum();
        let mut d = Demand::new();
        let angle = 2.0 * std::f64::consts::PI * (t as f64) / (period as f64);
        for (s, (&w_s, &phase)) in self.weights.iter().zip(&self.phases).enumerate() {
            let diurnal = 1.0 + self.amplitude * (angle + phase).sin();
            for (tt, &w_t) in self.weights.iter().enumerate() {
                if s == tt {
                    continue;
                }
                let base = self.total * w_s * w_t / (wsum * wsum);
                // Log-normal noise.
                let z: f64 = {
                    // Box-Muller from two uniforms.
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen::<f64>();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                let noise = (self.noise * z).exp();
                let v = base * diurnal * noise;
                if v > 1e-9 {
                    d.set(s as VertexId, tt as VertexId, v);
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gravity_snapshots_vary_but_keep_support() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = GravityModel::sample(12, 50.0, &mut rng);
        let a = model.snapshot(0, 24, &mut rng);
        let b = model.snapshot(12, 24, &mut rng);
        assert_eq!(
            a.support_len(),
            b.support_len(),
            "gravity support is dense and stable"
        );
        // Diurnal + noise means the values differ.
        let (pair, _) = a.iter().next().expect("dense support");
        assert_ne!(a.get(pair.0, pair.1), b.get(pair.0, pair.1));
    }
}
