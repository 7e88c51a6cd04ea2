//! The network server's wire-protocol front door.
//!
//! Everything upstream of this crate feeds uplinks to
//! [`softlora::NetworkServer`] through in-process calls. This crate puts
//! the verdict pipeline behind an actual socket:
//!
//! * [`protocol`] — a Semtech-UDP-style binary gateway protocol:
//!   versioned, CRC-framed datagrams (`PUSH_DATA` uplink batches,
//!   `PUSH_ACK`, `PULL_DATA` keepalives, a `STATS` query) built on
//!   `softlora-store`'s [`Encoder`]/[`Decoder`] discipline;
//! * [`listener`] — [`listener::NetServer`], a UDP/loopback listener that
//!   accepts frames from many simulated gateways, reassembles per-uplink
//!   copy groups in watermark order, and hands them to an off-thread
//!   commit worker — **bit-for-bit** identical to handing the same
//!   groups to `NetworkServer::process_batch` directly, with acks
//!   decoupled from commit latency;
//! * [`ingest`] — the pipelined-ingest machinery behind the listener: a
//!   pooled reassembly window ([`ingest::Reassembler`]) and the bounded
//!   SPSC commit handoff ([`ingest::CommitPipe`]);
//! * [`export`] — turns a simulated fleet's [`UplinkDeliveries`] stream
//!   into per-gateway wire streams (what each gateway would have sent);
//! * [`loadgen`] — a thread-per-gateway lock-step client replaying
//!   those streams against a live listener.
//!
//! [`Encoder`]: softlora_store::Encoder
//! [`Decoder`]: softlora_store::Decoder
//! [`UplinkDeliveries`]: softlora_sim::UplinkDeliveries

#![warn(missing_docs)]

pub mod export;
pub mod ingest;
pub mod listener;
pub mod loadgen;
pub mod protocol;

pub use export::gateway_streams;
pub use ingest::{CommitPipe, CommitSink, CommitTelemetry, CopyHeader, Reassembler};
pub use listener::{NetRunReport, NetServer, NetServerConfig};
pub use protocol::{
    decode_frame, encode_frame, Frame, NetCounters, PushData, ServerRole, WireBlockStats,
    WireDelivery, WireRuntime, WireStats, WireUplink,
};

use softlora_store::CodecError;

/// Everything that can go wrong on the wire path.
#[derive(Debug)]
pub enum NetError {
    /// A primitive failed to decode (truncated buffer, bad presence byte).
    Codec(CodecError),
    /// The datagram was too short to hold even the fixed header + CRC.
    TooShort {
        /// Bytes in the datagram.
        len: usize,
    },
    /// The magic bytes did not identify a softlora-net datagram.
    BadMagic {
        /// The first two bytes, little-endian.
        found: u16,
    },
    /// The protocol version byte is unknown.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The frame-type byte is unknown.
    BadFrameType {
        /// The type byte found.
        found: u8,
    },
    /// The trailing CRC-32 did not match the frame bytes.
    BadCrc {
        /// CRC computed over the frame bytes.
        expected: u32,
        /// CRC carried by the datagram.
        found: u32,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Undecoded byte count.
        remaining: usize,
    },
    /// A delivery carried a spreading factor outside 6..=12.
    BadSpreadingFactor {
        /// The value found.
        found: u8,
    },
    /// A metrics snapshot carried a histogram bucket index outside the
    /// fixed log2 bucket range.
    BadBucketIndex {
        /// The bucket index found.
        found: u8,
    },
    /// A socket operation failed.
    Io(std::io::Error),
    /// The server tail failed while committing a batch.
    Server(softlora::SoftLoraError),
    /// The peer never acknowledged a datagram within the retry budget.
    AckTimeout {
        /// Gateway that gave up.
        gateway: u32,
        /// Sequence number of the unacknowledged datagram.
        seq: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::TooShort { len } => write!(f, "datagram too short: {len} bytes"),
            NetError::BadMagic { found } => write!(f, "bad magic {found:#06x}"),
            NetError::BadVersion { found } => write!(f, "unknown protocol version {found}"),
            NetError::BadFrameType { found } => write!(f, "unknown frame type {found:#04x}"),
            NetError::BadCrc { expected, found } => {
                write!(f, "CRC mismatch: computed {expected:#010x}, datagram carried {found:#010x}")
            }
            NetError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
            NetError::BadSpreadingFactor { found } => {
                write!(f, "spreading factor {found} outside 6..=12")
            }
            NetError::BadBucketIndex { found } => {
                write!(f, "histogram bucket index {found} outside the log2 bucket range")
            }
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Server(e) => write!(f, "server error: {e}"),
            NetError::AckTimeout { gateway, seq } => {
                write!(f, "gateway {gateway}: datagram seq {seq} never acknowledged")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            NetError::Io(e) => Some(e),
            NetError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<softlora::SoftLoraError> for NetError {
    fn from(e: softlora::SoftLoraError) -> Self {
        NetError::Server(e)
    }
}
