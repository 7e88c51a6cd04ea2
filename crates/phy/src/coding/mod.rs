//! Bit-level primitives of the LoRa frame format: whitening, diagonal
//! interleaving, Gray mapping and the payload CRC-16.
//!
//! LoRa processes payload bits through these stages before they become
//! chirp symbols: the payload is **whitened** (XOR with an LFSR sequence),
//! Hamming codewords are **diagonally interleaved** across blocks of `SF`
//! codewords to spread burst errors over many symbols, and the resulting
//! symbol values are **Gray-demapped** so that a ±1 chip timing error
//! corrupts only one bit. The gateway never runs this chain (the commodity
//! radio decodes the frame and the SDR captures only the preamble); each
//! stage is kept as a standalone, invertible map.

pub mod gray;
pub mod interleaver;
pub mod whitening;

pub use gray::{gray_decode, gray_encode};
pub use interleaver::{deinterleave_block, deinterleave_block_into, interleave_block};
pub use whitening::Whitener;

/// CRC-16/CCITT (polynomial 0x1021, init 0xFFFF) used as the LoRa payload
/// integrity check.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn crc16_detects_single_bit_flip() {
        let mut data = b"hello lorawan".to_vec();
        let orig = crc16_ccitt(&data);
        data[3] ^= 0x10;
        assert_ne!(crc16_ccitt(&data), orig);
    }

    #[test]
    fn crc16_empty() {
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
    }
}
