//! Reproduction harness for every table and figure in the paper's
//! evaluation.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows; the `repro_*` binaries print them in the paper's
//! layout, each beside the paper's value (module `figN`/`tableN` is paper
//! Fig./Table N; `attack_e2e` is §8.1.1, `campus` §8.2).
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p softlora-bench --bin repro_table1
//! cargo run --release -p softlora-bench --bin repro_fig14
//! ```

pub mod alloc_counter;
pub mod experiments;
pub mod table;

/// Shared helpers for building captures and deliveries across experiments.
pub mod common {
    use softlora_dsp::Complex;
    use softlora_phy::noise::{GaussianNoise, NoiseSource, RealNoiseEmulator};
    use softlora_phy::oscillator::Oscillator;
    use softlora_phy::sdr::{IqCapture, SdrReceiver};
    use softlora_phy::PhyConfig;

    /// The paper's carrier frequency.
    pub const FC: f64 = 869.75e6;

    /// Builds a clean two-chirp SDR capture with the given transmitter
    /// bias (Hz), receiver bias (ppm) and lead samples.
    pub fn capture(
        phy: &PhyConfig,
        chirps: usize,
        delta_tx_hz: f64,
        rx_bias_ppm: f64,
        lead: usize,
        seed: u64,
    ) -> IqCapture {
        let osc = Oscillator::with_bias_ppm(rx_bias_ppm, FC, seed).with_jitter_hz(0.0);
        let mut rx = SdrReceiver::new(osc).without_quantisation();
        let theta = 0.1 + 0.61 * (seed % 10) as f64;
        rx.capture_chirps(phy, chirps, delta_tx_hz, theta, 1.0, lead).expect("capture construction")
    }

    /// Adds noise at an SNR referenced to the unit-amplitude chirp (the
    /// silent lead does not dilute the reference).
    pub fn with_noise(cap: &IqCapture, snr_db: f64, real_noise: bool, seed: u64) -> IqCapture {
        let noise_power = 10f64.powf(-snr_db / 10.0);
        let mut z = cap.to_complex();
        let noise: Vec<Complex> = if real_noise {
            let mut src = RealNoiseEmulator::with_power(noise_power, seed);
            src.generate(z.len())
        } else {
            let mut src = GaussianNoise::with_power(noise_power, seed);
            src.generate(z.len())
        };
        for (s, n) in z.iter_mut().zip(noise.iter()) {
            *s += *n;
        }
        IqCapture::from_complex(&z, cap.sample_rate, cap.true_onset)
    }
}
