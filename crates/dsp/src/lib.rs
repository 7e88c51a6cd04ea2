//! Signal-processing substrate for the SoftLoRa reproduction.
//!
//! The paper ("Attack-Aware Data Timestamping in Low-Power Synchronization-Free
//! LoRaWAN", ICDCS 2020) builds its gateway defence out of a small set of
//! time-domain signal-processing primitives applied to I/Q traces captured by a
//! cheap SDR receiver:
//!
//! * a short-time FFT **spectrogram** (paper Fig. 6) — [`spectrogram`],
//! * a Hilbert-transform **envelope detector** for preamble onset picking
//!   (paper §6.1.2, Fig. 9a) — [`hilbert`], [`envelope`],
//! * an autoregressive **AIC picker** borrowed from seismology (paper §6.1.2,
//!   Fig. 9b) — [`aic`],
//! * **phase unwrapping** and **linear regression** for the closed-form
//!   frequency-bias estimator (paper §7.1.1, Fig. 12) — [`unwrap`],
//!   [`regression`],
//! * **differential evolution** for the low-SNR least-squares frequency-bias
//!   estimator (paper §7.1.2, Fig. 14) — [`optimize`].
//!
//! None of these exist in the offline dependency set, so this crate implements
//! them from scratch on top of a minimal [`Complex`] type and a radix-2
//! [`fft`]. Everything is pure, deterministic (given a seeded RNG) and
//! `f64`-based.
//!
//! # Example
//!
//! ```
//! use softlora_dsp::{Complex, fft::fft_forward};
//!
//! // FFT of a pure tone concentrates energy in one bin.
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|i| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 4.0 * i as f64 / n as f64))
//!     .collect();
//! let spec = fft_forward(&tone);
//! let peak = spec
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak, 4);
//! ```

pub mod aic;
pub mod complex;
pub mod envelope;
pub mod fft;
pub mod filter;
pub mod kernels;
pub mod math;
pub mod optimize;
pub mod regression;
pub mod scratch;
pub mod spectrogram;
pub mod stats;
pub mod unwrap;
pub mod window;

pub mod hilbert;

pub use complex::Complex;
pub use fft::{FftPlan, FftPlanner};
pub use kernels::{fast_kernels, set_fast_kernels, FftKernel};
pub use scratch::DspScratch;

/// Errors returned by fallible DSP routines.
///
/// Most routines in this crate validate their inputs (empty traces, windows
/// longer than the signal, malformed optimisation bounds) and return this
/// error rather than panicking, so that upstream gateway code can degrade
/// gracefully on truncated SDR captures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input slice was empty or shorter than the algorithm requires.
    InputTooShort {
        /// Minimum number of samples required.
        required: usize,
        /// Number of samples actually provided.
        actual: usize,
    },
    /// A window/segment length parameter was invalid (zero, or larger than
    /// the signal it is applied to).
    InvalidWindow {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// Optimisation bounds were malformed (`lo >= hi`, NaN, or empty).
    InvalidBounds {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// A numeric parameter was out of its documented domain.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
}

impl std::fmt::Display for DspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DspError::InputTooShort { required, actual } => {
                write!(f, "input too short: need at least {required} samples, got {actual}")
            }
            DspError::InvalidWindow { reason } => write!(f, "invalid window: {reason}"),
            DspError::InvalidBounds { reason } => write!(f, "invalid bounds: {reason}"),
            DspError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
        }
    }
}

impl std::error::Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = DspError::InputTooShort { required: 8, actual: 3 };
        assert!(e.to_string().contains("8"));
        assert!(e.to_string().contains("3"));
        let e = DspError::InvalidWindow { reason: "window longer than signal" };
        assert!(e.to_string().contains("window"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
