//! LoRa PHY parameters: spreading factors, bandwidths, coding rates,
//! channel definitions and air-time arithmetic.
//!
//! All defaults follow the paper's experimental configuration: an EU868
//! channel at `fc = 869.75 MHz` with `W = 125 kHz`, SDR sampling at
//! 2.4 Msps, and the SX1276 demodulation SNR floors from the datasheet the
//! paper cites \[3\].

use crate::PhyError;

/// LoRa spreading factor, `S ∈ [6, 12]`.
///
/// The chirp time is `2^S / W` seconds; each symbol carries `S` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF6 (special short-range mode; implicit header only on real chips).
    Sf6,
    /// SF7 — the paper's Table 1 baseline.
    Sf7,
    /// SF8 — minimum SF that crosses the paper's building floors (§8.1.1).
    Sf8,
    /// SF9.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11 (low-data-rate optimisation applies at 125 kHz).
    Sf11,
    /// SF12 — the paper's default for the building/campus experiments.
    Sf12,
}

impl SpreadingFactor {
    /// All spreading factors in ascending order.
    pub const ALL: [SpreadingFactor; 7] = [
        SpreadingFactor::Sf6,
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The integer value `S`.
    pub const fn value(self) -> u32 {
        match self {
            SpreadingFactor::Sf6 => 6,
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// Chips (and possible symbol values) per symbol: `2^S`.
    pub const fn chips(self) -> usize {
        1usize << self.value()
    }

    /// Constructs from the integer value.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if `s` is outside `[6, 12]`.
    pub fn from_value(s: u32) -> Result<Self, PhyError> {
        match s {
            6 => Ok(SpreadingFactor::Sf6),
            7 => Ok(SpreadingFactor::Sf7),
            8 => Ok(SpreadingFactor::Sf8),
            9 => Ok(SpreadingFactor::Sf9),
            10 => Ok(SpreadingFactor::Sf10),
            11 => Ok(SpreadingFactor::Sf11),
            12 => Ok(SpreadingFactor::Sf12),
            _ => Err(PhyError::InvalidConfig { reason: "spreading factor must be 6..=12" }),
        }
    }

    /// Minimum SNR (dB) for reliable SX1276 demodulation at this spreading
    /// factor (datasheet values cited by the paper: −7.5 dB at SF7 down to
    /// −20 dB at SF12).
    pub fn demod_floor_db(self) -> f64 {
        match self {
            SpreadingFactor::Sf6 => -5.0,
            SpreadingFactor::Sf7 => -7.5,
            SpreadingFactor::Sf8 => -10.0,
            SpreadingFactor::Sf9 => -12.5,
            SpreadingFactor::Sf10 => -15.0,
            SpreadingFactor::Sf11 => -17.5,
            SpreadingFactor::Sf12 => -20.0,
        }
    }
}

impl std::fmt::Display for SpreadingFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SF{}", self.value())
    }
}

/// LoRa channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 125 kHz — the EU868 default used throughout the paper.
    Khz125,
    /// 250 kHz.
    Khz250,
    /// 500 kHz.
    Khz500,
}

impl Bandwidth {
    /// Bandwidth in hertz.
    pub const fn hz(self) -> f64 {
        match self {
            Bandwidth::Khz125 => 125_000.0,
            Bandwidth::Khz250 => 250_000.0,
            Bandwidth::Khz500 => 500_000.0,
        }
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} kHz", self.hz() / 1000.0)
    }
}

/// LoRa forward-error-correction coding rate `4/(4+cr)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingRate {
    /// 4/5 — single parity bit, error detection only.
    Cr4_5,
    /// 4/6 — two parity bits.
    Cr4_6,
    /// 4/7 — Hamming(7,4), corrects one bit per codeword.
    Cr4_7,
    /// 4/8 — extended Hamming(8,4), corrects one bit and detects two.
    Cr4_8,
}

impl CodingRate {
    /// The `cr` in `4/(4+cr)`, i.e. parity bits per nibble.
    pub const fn parity_bits(self) -> usize {
        match self {
            CodingRate::Cr4_5 => 1,
            CodingRate::Cr4_6 => 2,
            CodingRate::Cr4_7 => 3,
            CodingRate::Cr4_8 => 4,
        }
    }

    /// Codeword length in bits (`4 + cr`).
    pub const fn codeword_bits(self) -> usize {
        4 + self.parity_bits()
    }

    /// Constructs from the number of parity bits (1..=4).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] for values outside `1..=4`.
    pub fn from_parity_bits(cr: usize) -> Result<Self, PhyError> {
        match cr {
            1 => Ok(CodingRate::Cr4_5),
            2 => Ok(CodingRate::Cr4_6),
            3 => Ok(CodingRate::Cr4_7),
            4 => Ok(CodingRate::Cr4_8),
            _ => Err(PhyError::InvalidConfig { reason: "coding rate parity bits must be 1..=4" }),
        }
    }
}

impl std::fmt::Display for CodingRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "4/{}", 4 + self.parity_bits())
    }
}

/// A LoRa RF channel: centre frequency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoRaChannel {
    /// Centre frequency in Hz.
    pub center_hz: f64,
    /// Bandwidth.
    pub bandwidth: Bandwidth,
}

impl LoRaChannel {
    /// The paper's experimental channel: 869.75 MHz, 125 kHz.
    pub const PAPER: LoRaChannel =
        LoRaChannel { center_hz: 869.75e6, bandwidth: Bandwidth::Khz125 };

    /// Converts a frequency offset in Hz to parts-per-million of this
    /// channel's centre frequency — the unit the paper reports FBs in.
    pub fn hz_to_ppm(&self, hz: f64) -> f64 {
        hz / self.center_hz * 1e6
    }

    /// Converts ppm of the centre frequency to Hz.
    pub fn ppm_to_hz(&self, ppm: f64) -> f64 {
        ppm * self.center_hz / 1e6
    }
}

impl Default for LoRaChannel {
    fn default() -> Self {
        LoRaChannel::PAPER
    }
}

/// Complete PHY transmission configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyConfig {
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Coding rate for the payload (the header always uses 4/8).
    pub cr: CodingRate,
    /// RF channel.
    pub channel: LoRaChannel,
    /// Number of preamble up-chirps (LoRaWAN default: 8).
    pub preamble_chirps: usize,
    /// Whether an explicit PHY header is transmitted (LoRaWAN uplinks: yes).
    pub explicit_header: bool,
    /// Whether a payload CRC-16 is appended (LoRaWAN uplinks: yes).
    pub payload_crc: bool,
    /// Low-data-rate optimisation (mandatory for SF11/SF12 at 125 kHz).
    pub low_data_rate: bool,
}

impl PhyConfig {
    /// LoRaWAN-style uplink defaults for a spreading factor on the paper's
    /// channel: CR 4/5, 8 preamble chirps, explicit header, CRC on, LDRO
    /// auto-enabled for SF11/SF12.
    pub fn uplink(sf: SpreadingFactor) -> Self {
        PhyConfig {
            sf,
            cr: CodingRate::Cr4_5,
            channel: LoRaChannel::PAPER,
            preamble_chirps: 8,
            explicit_header: true,
            payload_crc: true,
            low_data_rate: sf >= SpreadingFactor::Sf11,
        }
    }

    /// Chirp (symbol) time `2^S / W` in seconds.
    pub fn chirp_time(&self) -> f64 {
        self.sf.chips() as f64 / self.channel.bandwidth.hz()
    }

    /// Duration of the preamble chirps only (`preamble_chirps * chirp_time`).
    pub fn preamble_time(&self) -> f64 {
        self.preamble_chirps as f64 * self.chirp_time()
    }

    /// Number of payload symbols for `payload_len` bytes, per the standard
    /// LoRa air-time formula (SX1276 datasheet):
    ///
    /// `8 + max(ceil((8L − 4S + 28 + 16·CRC − 20·IH) / (4(S − 2·DE))) · (CR+4), 0)`
    pub fn payload_symbols(&self, payload_len: usize) -> usize {
        let s = self.sf.value() as i64;
        let l = payload_len as i64;
        let crc = if self.payload_crc { 1 } else { 0 };
        let ih = if self.explicit_header { 0 } else { 1 };
        let de = if self.low_data_rate { 1 } else { 0 };
        let num = 8 * l - 4 * s + 28 + 16 * crc - 20 * ih;
        let den = 4 * (s - 2 * de);
        let blocks = if num > 0 { (num + den - 1) / den } else { 0 };
        (8 + blocks * (self.cr.parity_bits() as i64 + 4)) as usize
    }

    /// Total frame air time in seconds, including the preamble (the `+4.25`
    /// accounts for the sync word and SFD quarter chirp).
    pub fn airtime(&self, payload_len: usize) -> f64 {
        (self.preamble_chirps as f64 + 4.25 + self.payload_symbols(payload_len) as f64)
            * self.chirp_time()
    }

    /// Duration from frame start to the end of the PHY header block in
    /// seconds: preamble + sync/SFD (4.25 chirps) + the first 8-symbol
    /// interleaving block that carries the header. Jamming after this point
    /// corrupts only the payload and therefore raises a CRC alert instead of
    /// a silent drop (paper §4.3).
    pub fn header_end_time(&self) -> f64 {
        (self.preamble_chirps as f64 + 4.25 + 8.0) * self.chirp_time()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] when preamble length is below the
    /// 6 chirps the receiver needs to lock, or when LDRO is missing where
    /// the LoRaWAN regional parameters mandate it.
    pub fn validate(&self) -> Result<(), PhyError> {
        if self.preamble_chirps < 6 {
            return Err(PhyError::InvalidConfig {
                reason: "preamble must contain at least 6 chirps for receiver lock",
            });
        }
        if self.sf >= SpreadingFactor::Sf11
            && self.channel.bandwidth == Bandwidth::Khz125
            && !self.low_data_rate
        {
            return Err(PhyError::InvalidConfig {
                reason: "low data rate optimisation is mandatory for SF11/SF12 at 125 kHz",
            });
        }
        Ok(())
    }
}

/// EU868 regulatory constants used by the paper's overhead analysis (§3.2).
pub mod eu868 {
    /// Duty-cycle limit in the 868 MHz sub-band (1 %).
    pub const DUTY_CYCLE: f64 = 0.01;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_roundtrip_and_chips() {
        for sf in SpreadingFactor::ALL {
            assert_eq!(SpreadingFactor::from_value(sf.value()).unwrap(), sf);
            assert_eq!(sf.chips(), 1 << sf.value());
        }
        assert!(SpreadingFactor::from_value(5).is_err());
        assert!(SpreadingFactor::from_value(13).is_err());
    }

    #[test]
    fn demod_floor_monotone() {
        for pair in SpreadingFactor::ALL.windows(2) {
            assert!(pair[0].demod_floor_db() > pair[1].demod_floor_db());
        }
        assert_eq!(SpreadingFactor::Sf7.demod_floor_db(), -7.5);
        assert_eq!(SpreadingFactor::Sf12.demod_floor_db(), -20.0);
    }

    #[test]
    fn chirp_time_matches_paper_table1() {
        // Paper Table 1: chirp times 1.024 / 2.048 / 4.096 ms for SF 7/8/9.
        let t7 = PhyConfig::uplink(SpreadingFactor::Sf7).chirp_time();
        let t8 = PhyConfig::uplink(SpreadingFactor::Sf8).chirp_time();
        let t9 = PhyConfig::uplink(SpreadingFactor::Sf9).chirp_time();
        assert!((t7 - 1.024e-3).abs() < 1e-9);
        assert!((t8 - 2.048e-3).abs() < 1e-9);
        assert!((t9 - 4.096e-3).abs() < 1e-9);
    }

    #[test]
    fn preamble_time_matches_paper_table1() {
        // Paper Table 1: preamble times 8.2 / 16.4 / 32.8 ms for SF 7/8/9.
        for (sf, want) in [
            (SpreadingFactor::Sf7, 8.2e-3),
            (SpreadingFactor::Sf8, 16.4e-3),
            (SpreadingFactor::Sf9, 32.8e-3),
        ] {
            let t = PhyConfig::uplink(sf).preamble_time();
            assert!((t - want).abs() < 0.1e-3, "{sf}: {t}");
        }
    }

    #[test]
    fn payload_symbol_count_known_values() {
        // Standard formula check: SF7, CR4/5, CRC on, explicit header, 20 B.
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        // num = 160 - 28 + 28 + 16 = 176; den = 28 -> ceil = 7 -> 8 + 35 = 43.
        assert_eq!(cfg.payload_symbols(20), 43);
        // SF12 with LDRO: den = 4*(12-2) = 40.
        let cfg12 = PhyConfig::uplink(SpreadingFactor::Sf12);
        assert!(cfg12.low_data_rate);
        // num = 8*30 - 48 + 28 + 16 = 236; ceil(236/40) = 6 -> 8 + 30 = 38.
        assert_eq!(cfg12.payload_symbols(30), 38);
    }

    #[test]
    fn airtime_increases_with_payload_and_sf() {
        let cfg7 = PhyConfig::uplink(SpreadingFactor::Sf7);
        assert!(cfg7.airtime(20) > cfg7.airtime(10));
        let cfg9 = PhyConfig::uplink(SpreadingFactor::Sf9);
        assert!(cfg9.airtime(10) > cfg7.airtime(10));
    }

    #[test]
    fn sf12_30byte_airtime_order_of_magnitude() {
        // The paper's §3.2 example: SF12, 30-byte frames; ~24 frames/hour at
        // 1% duty cycle implies airtime ~1.5 s.
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf12);
        let at = cfg.airtime(30);
        assert!(at > 1.0 && at < 2.5, "airtime {at}");
        let frames_per_hour = (3600.0 * eu868::DUTY_CYCLE / at).floor();
        assert!((20.0..30.0).contains(&frames_per_hour), "{frames_per_hour}");
    }

    #[test]
    fn header_end_before_frame_end() {
        for sf in [SpreadingFactor::Sf7, SpreadingFactor::Sf9, SpreadingFactor::Sf12] {
            let cfg = PhyConfig::uplink(sf);
            assert!(cfg.header_end_time() < cfg.airtime(20));
            assert!(cfg.header_end_time() > cfg.preamble_time());
        }
    }

    #[test]
    fn validation_rules() {
        let mut cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        assert!(cfg.validate().is_ok());
        cfg.preamble_chirps = 4;
        assert!(cfg.validate().is_err());
        let mut cfg12 = PhyConfig::uplink(SpreadingFactor::Sf12);
        cfg12.low_data_rate = false;
        assert!(cfg12.validate().is_err());
    }

    #[test]
    fn channel_ppm_conversions() {
        let ch = LoRaChannel::PAPER;
        // Paper: 120 Hz is 0.14 ppm of 869.75 MHz.
        assert!((ch.hz_to_ppm(120.0) - 0.138).abs() < 0.005);
        assert!((ch.ppm_to_hz(ch.hz_to_ppm(543.0)) - 543.0).abs() < 1e-9);
    }

    #[test]
    fn coding_rate_accessors() {
        assert_eq!(CodingRate::Cr4_5.codeword_bits(), 5);
        assert_eq!(CodingRate::Cr4_8.codeword_bits(), 8);
        assert_eq!(CodingRate::from_parity_bits(3).unwrap(), CodingRate::Cr4_7);
        assert!(CodingRate::from_parity_bits(0).is_err());
        assert!(CodingRate::from_parity_bits(5).is_err());
    }

    #[test]
    fn display_impls() {
        assert_eq!(SpreadingFactor::Sf7.to_string(), "SF7");
        assert_eq!(Bandwidth::Khz125.to_string(), "125 kHz");
        assert_eq!(CodingRate::Cr4_5.to_string(), "4/5");
    }
}
