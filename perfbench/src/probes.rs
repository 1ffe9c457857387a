//! Floor probes run by traced runs: the bare transport echo under every
//! remote round trip, and the content digest the payload cache pays per
//! cacheable payload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bf_model::VirtualTime;
use bf_rpc::{duplex, ClientId, Request, RequestEnvelope, Response, ResponseEnvelope};

use crate::harness::percentile;

/// Median ns of a bare `bf_rpc::duplex` ping-pong: one thread sends
/// `GetDeviceInfo`, an echo thread answers `Ack`, for `budget` of wall
/// time. No codec work beyond the frames, no manager, no reactor.
///
/// # Errors
///
/// Fails when the echo thread reports a transport error or panics.
pub fn transport_rtt_ns(budget: Duration) -> Result<u64, String> {
    let (client, server) = duplex();
    let echo = std::thread::Builder::new()
        .name("perfbench-echo".to_string())
        .spawn(move || -> Result<(), String> {
            // Ends when the client hangs up.
            while let Ok(req) = server.recv() {
                server
                    .send(&ResponseEnvelope {
                        tag: req.tag,
                        sent_at: VirtualTime::ZERO,
                        body: Response::Ack,
                    })
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;

    let mut samples = Vec::new();
    let began = Instant::now();
    let mut tag = 0u64;
    let mut failure = None;
    while began.elapsed() < budget || samples.len() < 100 {
        tag += 1;
        let t0 = Instant::now();
        let sent = client.send(&RequestEnvelope {
            tag,
            client: ClientId(1),
            sent_at: VirtualTime::ZERO,
            body: Request::GetDeviceInfo,
        });
        match sent
            .map_err(|e| e.to_string())
            .and_then(|()| client.recv().map_err(|e| e.to_string()))
        {
            Ok(resp) if resp.tag == tag && resp.body == Response::Ack => {
                samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            Ok(resp) => {
                failure = Some(format!("echo answered {resp:?} to tag {tag}"));
                break;
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    drop(client);
    let joined = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    joined?;
    match failure {
        Some(e) => Err(e),
        None => Ok(percentile(&samples, 0.5)),
    }
}

/// Median ns of `bf_cache::content_digest` over `len`-byte payloads, for
/// at least `budget` and 20 samples.
pub fn digest_ns(len: usize, budget: Duration) -> u64 {
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let mut samples = Vec::new();
    let began = Instant::now();
    while began.elapsed() < budget || samples.len() < 20 {
        let t0 = Instant::now();
        black_box(bf_cache::content_digest(black_box(&payload)));
        samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    percentile(&samples, 0.5)
}
