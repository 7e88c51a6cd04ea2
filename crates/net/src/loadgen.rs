//! A lock-step fleet replay client: N concurrent gateway sockets replaying
//! a simulated fleet's traffic against a live listener.
//!
//! Each gateway runs on its own thread with its own UDP socket and plays
//! its wire stream (from [`crate::gateway_streams`]) in lock-step: send a
//! `PUSH_DATA` datagram, wait for the `PUSH_ACK`, retransmit on timeout.
//! Lock-step bounds the fleet's in-flight datagrams at one per gateway —
//! well under default socket buffers even at hundreds of gateways.
//! Retransmissions double as organic duplicate traffic for the listener's
//! dedup path.
//!
//! Since the listener commits off-thread, every ack also carries the
//! server's committed watermark. Once its stream ends, a gateway polls
//! keepalives until that watermark covers its last uplink (bounded by a
//! fixed wait), so a finished replay means the fleet's traffic is
//! committed, not just acknowledged.
//!
//! Throughput and latency under load are measured by the wire-to-verdict
//! benchmark (`w2vbench/`), not here.

use crate::export::gateway_streams;
use crate::protocol::{decode_frame, encode_frame_into, Frame, PushData, WireUplink};
use crate::NetError;
use softlora_sim::UplinkDeliveries;
use softlora_store::Encoder;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Uplink copies packed into one `PUSH_DATA` datagram.
const COPIES_PER_DATAGRAM: usize = 8;
/// How long a gateway waits for an ack before retransmitting.
const ACK_TIMEOUT: Duration = Duration::from_millis(250);
/// Retransmissions per datagram before the gateway gives up.
const MAX_RETRIES: u32 = 40;
/// After a gateway's stream ends, how long it keeps polling keepalives
/// for the commit watermark to cover its last uplink.
const COMMIT_WAIT: Duration = Duration::from_secs(5);

/// Replays a fleet group stream against a listener at `data_addr` from
/// `gateway_count` concurrent lock-step sockets, and returns the number
/// of uplink groups the listener acknowledged (each group's first copy,
/// or its empty-group marker, counted once).
///
/// # Errors
///
/// Socket failures, or [`NetError::AckTimeout`] when the listener stops
/// acknowledging a gateway within the retry budget.
pub fn replay_fleet(
    groups: &[UplinkDeliveries],
    gateway_count: usize,
    data_addr: SocketAddr,
) -> Result<usize, NetError> {
    let streams = gateway_streams(groups, gateway_count);
    let runs: Vec<Result<usize, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(gateway, stream)| {
                scope.spawn(move || run_gateway(gateway as u32, stream, data_addr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("gateway thread panicked")).collect()
    });
    runs.into_iter().sum()
}

/// One gateway's lock-step replay loop. Returns how many groups it
/// acknowledged the first copy (or marker) of.
fn run_gateway(
    gateway: u32,
    stream: Vec<WireUplink>,
    data_addr: SocketAddr,
) -> Result<usize, NetError> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.connect(data_addr)?;
    socket.set_read_timeout(Some(ACK_TIMEOUT))?;

    let mut scratch = Encoder::new();
    let mut seq = 0u64;
    let mut committed = 0u64;
    let mut first_copies = 0usize;
    let chunks: Vec<&[WireUplink]> = stream.chunks(COPIES_PER_DATAGRAM).collect();
    for (k, chunk) in chunks.iter().enumerate() {
        // Promise everything strictly below the next chunk's first id;
        // the final chunk releases the whole stream.
        let watermark = chunks.get(k + 1).map_or(u64::MAX, |next| next[0].uplink);
        let frame = Frame::PushData(PushData { gateway, seq, watermark, uplinks: chunk.to_vec() });
        committed = send_acked(&socket, &mut scratch, &frame, gateway, seq)?;
        first_copies += chunk.iter().filter(|u| u.copy_index == 0).count();
        seq += 1;
    }
    if chunks.is_empty() {
        // A silent gateway still has to release the fleet barrier.
        let frame = Frame::PullData { gateway, seq, watermark: u64::MAX };
        send_acked(&socket, &mut scratch, &frame, gateway, seq)?;
        return Ok(0);
    }

    // Wait (bounded) until the commit watermark covers the last uplink.
    let last_uplink = stream.last().map_or(0, |u| u.uplink);
    let deadline = Instant::now() + COMMIT_WAIT;
    while committed <= last_uplink && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        let frame = Frame::PullData { gateway, seq, watermark: u64::MAX };
        committed = send_acked(&socket, &mut scratch, &frame, gateway, seq)?;
        seq += 1;
    }
    Ok(first_copies)
}

/// Sends one datagram and blocks until its ack, retransmitting on
/// timeout. Returns the commit watermark the matching ack carried.
fn send_acked(
    socket: &UdpSocket,
    scratch: &mut Encoder,
    frame: &Frame,
    gateway: u32,
    seq: u64,
) -> Result<u64, NetError> {
    scratch.clear();
    encode_frame_into(frame, scratch);
    let mut buf = [0u8; 256];
    for _ in 0..=MAX_RETRIES {
        socket.send(scratch.as_bytes())?;
        let deadline = Instant::now() + ACK_TIMEOUT;
        loop {
            match socket.recv(&mut buf) {
                Ok(len) => match decode_frame(&buf[..len]) {
                    Ok(
                        Frame::PushAck { gateway: g, seq: s, committed }
                        | Frame::PullAck { gateway: g, seq: s, committed },
                    ) if g == gateway && s == seq => return Ok(committed),
                    // A stale ack (earlier retransmission) or noise:
                    // keep listening until the deadline.
                    _ => {}
                },
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(NetError::Io(e)),
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    Err(NetError::AckTimeout { gateway, seq })
}
