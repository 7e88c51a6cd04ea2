//! Class A end device (paper §3.1, §3.2).
//!
//! The device buffers sensor records with local-clock times of interest,
//! and on transmission replaces them with elapsed times (the
//! synchronization-free scheme). It enforces the EU868 duty cycle, runs
//! the Class A receive-window schedule, and needs *no clock
//! synchronisation code at all* — which is the paper's headline efficiency
//! claim for the approach.

use crate::elapsed::{ElapsedCodec, SensorRecord, MAX_ELAPSED_S};
use crate::frame::{DataFrame, DeviceKeys, FrameType};
use crate::region::DutyCycleTracker;
use crate::LorawanError;
use softlora_phy::PhyConfig;

/// Class A receive-window delays (LoRaWAN 1.0.2 defaults).
pub const RX1_DELAY_S: f64 = 1.0;
/// Second receive-window delay.
pub const RX2_DELAY_S: f64 = 2.0;

/// Static device configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device address.
    pub dev_addr: u32,
    /// Session keys.
    pub keys: DeviceKeys,
    /// PHY parameters for uplinks.
    pub phy: PhyConfig,
    /// Application port used for data frames.
    pub fport: u8,
    /// Maximum records buffered before transmission is forced.
    pub max_buffered: usize,
}

impl DeviceConfig {
    /// Reasonable defaults for an address: test keys, the given PHY,
    /// port 1, up to 6 records per frame.
    pub fn new(dev_addr: u32, phy: PhyConfig) -> Self {
        DeviceConfig {
            dev_addr,
            keys: DeviceKeys::derive_for_tests(dev_addr),
            phy,
            fport: 1,
            max_buffered: 6,
        }
    }
}

/// A frame handed to the radio, with everything the simulator needs.
#[derive(Debug, Clone)]
pub struct UplinkTransmission {
    /// Serialized PHY payload (encrypted + MIC).
    pub bytes: Vec<u8>,
    /// Air time of the frame in seconds.
    pub airtime_s: f64,
    /// Frame counter used.
    pub fcnt: u16,
    /// Number of sensor records inside.
    pub record_count: usize,
    /// Local-clock transmission time the elapsed fields are relative to.
    pub tx_local_s: f64,
}

/// A Class A LoRaWAN end device with synchronization-free timestamping.
///
/// # Example
///
/// ```
/// use softlora_lorawan::{ClassADevice, DeviceConfig};
/// use softlora_phy::{PhyConfig, SpreadingFactor};
///
/// let cfg = DeviceConfig::new(0x2601_0001, PhyConfig::uplink(SpreadingFactor::Sf7));
/// let mut dev = ClassADevice::new(cfg);
/// dev.sense(42, 10.0)?;
/// let tx = dev.try_transmit(12.5)?;
/// assert_eq!(tx.record_count, 1);
/// # Ok::<(), softlora_lorawan::LorawanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassADevice {
    config: DeviceConfig,
    duty: DutyCycleTracker,
    fcnt: u16,
    buffer: Vec<SensorRecord>,
}

impl ClassADevice {
    /// Creates a device with an empty buffer and EU868 duty cycling.
    pub fn new(config: DeviceConfig) -> Self {
        ClassADevice { config, duty: DutyCycleTracker::eu868(), fcnt: 0, buffer: Vec::new() }
    }

    /// The device address.
    pub fn dev_addr(&self) -> u32 {
        self.config.dev_addr
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Current frame counter (next uplink's value).
    pub fn fcnt(&self) -> u16 {
        self.fcnt
    }

    /// Number of buffered records.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the buffer has reached the forced-transmission size.
    pub fn buffer_full(&self) -> bool {
        self.buffer.len() >= self.config.max_buffered
    }

    /// Records a sensor reading taken at `local_time_s` on the device
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`LorawanError::OutOfRange`] when the buffer is full —
    /// the application must transmit (or drop data) first.
    pub fn sense(&mut self, value: u16, local_time_s: f64) -> Result<(), LorawanError> {
        if self.buffer_full() {
            return Err(LorawanError::OutOfRange { reason: "record buffer full" });
        }
        self.buffer.push(SensorRecord { value, local_time_s });
        Ok(())
    }

    /// Oldest buffered record's age at `now_local_s`, if any.
    pub fn oldest_record_age(&self, now_local_s: f64) -> Option<f64> {
        self.buffer
            .iter()
            .map(|r| now_local_s - r.local_time_s)
            .fold(None, |acc, age| Some(acc.map_or(age, |a: f64| a.max(age))))
    }

    /// Whether a record would overflow the elapsed-time range if the device
    /// waited until `now_local_s + margin_s` to transmit.
    pub fn must_transmit_soon(&self, now_local_s: f64, margin_s: f64) -> bool {
        self.oldest_record_age(now_local_s)
            .map(|age| age + margin_s >= MAX_ELAPSED_S)
            .unwrap_or(false)
    }

    /// Attempts to transmit all buffered records at local time
    /// `now_local_s`.
    ///
    /// On success the buffer is drained, the frame counter advances, the
    /// duty-cycle silence period starts, and the serialized frame is
    /// returned for the radio/simulator to put on the air.
    ///
    /// # Errors
    ///
    /// * [`LorawanError::OutOfRange`] if the buffer is empty or a record
    ///   exceeds the elapsed-time range.
    /// * [`LorawanError::DutyCycleExceeded`] when the ETSI rule forbids
    ///   transmitting now (nothing is consumed in that case).
    pub fn try_transmit(&mut self, now_local_s: f64) -> Result<UplinkTransmission, LorawanError> {
        if self.buffer.is_empty() {
            return Err(LorawanError::OutOfRange { reason: "no records to transmit" });
        }
        if !self.duty.can_transmit(now_local_s) {
            return Err(LorawanError::DutyCycleExceeded { wait_s: self.duty.wait_s(now_local_s) });
        }
        // Payload: record count byte + packed records.
        let encoded = ElapsedCodec::encode(&self.buffer, now_local_s)?;
        let mut payload = Vec::with_capacity(1 + encoded.len());
        payload.push(self.buffer.len() as u8);
        payload.extend_from_slice(&encoded);

        let frame = DataFrame {
            frame_type: FrameType::UnconfirmedUp,
            dev_addr: self.config.dev_addr,
            fcnt: self.fcnt,
            fport: self.config.fport,
            payload,
        };
        let bytes = frame.encode(&self.config.keys)?;
        let airtime = self.config.phy.airtime(bytes.len());
        self.duty.record(now_local_s, airtime)?;

        let tx = UplinkTransmission {
            bytes,
            airtime_s: airtime,
            fcnt: self.fcnt,
            record_count: self.buffer.len(),
            tx_local_s: now_local_s,
        };
        self.fcnt = self.fcnt.wrapping_add(1);
        self.buffer.clear();
        Ok(tx)
    }

    /// The two Class A receive windows after an uplink that ended at
    /// `tx_end_local_s`: `(rx1_open, rx2_open)`.
    pub fn rx_windows(&self, tx_end_local_s: f64) -> (f64, f64) {
        (tx_end_local_s + RX1_DELAY_S, tx_end_local_s + RX2_DELAY_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_phy::SpreadingFactor;

    fn device() -> ClassADevice {
        ClassADevice::new(DeviceConfig::new(0x2601_0001, PhyConfig::uplink(SpreadingFactor::Sf7)))
    }

    #[test]
    fn transmit_drains_buffer_and_advances_counter() {
        let mut d = device();
        d.sense(1, 0.0).unwrap();
        d.sense(2, 1.0).unwrap();
        assert_eq!(d.buffered(), 2);
        let tx = d.try_transmit(2.0).unwrap();
        assert_eq!(tx.record_count, 2);
        assert_eq!(tx.fcnt, 0);
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.fcnt(), 1);
        assert!(tx.airtime_s > 0.0);
    }

    #[test]
    fn empty_buffer_cannot_transmit() {
        let mut d = device();
        assert!(matches!(d.try_transmit(0.0), Err(LorawanError::OutOfRange { .. })));
    }

    #[test]
    fn duty_cycle_enforced_between_uplinks() {
        let mut d = device();
        d.sense(1, 0.0).unwrap();
        let tx = d.try_transmit(0.1).unwrap();
        d.sense(2, 0.2).unwrap();
        // Immediately after, the silence period blocks.
        let err = d.try_transmit(0.2).unwrap_err();
        assert!(matches!(err, LorawanError::DutyCycleExceeded { .. }));
        // Buffer intact after rejection.
        assert_eq!(d.buffered(), 1);
        // After ~100x the airtime, allowed again.
        let later = 0.1 + tx.airtime_s * 101.0;
        assert!(d.try_transmit(later).is_ok());
    }

    #[test]
    fn buffer_capacity_enforced() {
        let mut d = device();
        for i in 0..6 {
            d.sense(i, i as f64).unwrap();
        }
        assert!(d.buffer_full());
        assert!(d.sense(99, 7.0).is_err());
    }

    #[test]
    fn stale_record_rejected_at_encode() {
        let mut d = device();
        d.sense(1, 0.0).unwrap();
        let err = d.try_transmit(300.0).unwrap_err();
        assert!(matches!(err, LorawanError::OutOfRange { .. }));
    }

    #[test]
    fn must_transmit_soon_logic() {
        let mut d = device();
        assert!(!d.must_transmit_soon(0.0, 10.0));
        d.sense(1, 0.0).unwrap();
        assert!(!d.must_transmit_soon(10.0, 10.0));
        assert!(d.must_transmit_soon(255.0, 10.0)); // 255 + 10 > 262.1
        assert!((d.oldest_record_age(100.0).unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn rx_window_schedule() {
        let d = device();
        let (rx1, rx2) = d.rx_windows(10.0);
        assert_eq!(rx1, 11.0);
        assert_eq!(rx2, 12.0);
    }

    #[test]
    fn frame_decodes_with_matching_keys() {
        let mut d = device();
        d.sense(777, 5.0).unwrap();
        let tx = d.try_transmit(6.25).unwrap();
        let decoded = crate::frame::DataFrame::decode(&tx.bytes, &d.config().keys, 0).unwrap();
        assert_eq!(decoded.dev_addr, 0x2601_0001);
        assert_eq!(decoded.payload[0], 1); // record count
        let recs = ElapsedCodec::decode(&decoded.payload[1..], 1).unwrap();
        assert_eq!(recs[0].0, 777);
        assert!((recs[0].1 - 1.25).abs() < 1e-3);
    }
}
