//! The in-process duplex channel standing in for one gRPC connection.
//!
//! Every message is *actually encoded* to bytes on send and decoded on
//! receive, so the codec is exercised on every hop and message sizes feed
//! the serialization cost model. The response stream doubles as the Remote
//! Library's **completion queue** (paper Fig. 2, steps 4–5): the manager
//! pushes tagged responses, the client's reactor pulls them and dispatches
//! on the tag.
//!
//! Both directions are **bounded** (configurable via [`duplex_with_depth`]):
//! a full queue makes [`ClientChannel::try_send`]/[`ServerChannel::try_send`]
//! surface [`TransportError::Backpressure`] while the blocking `send`
//! variants park the caller until the peer drains — explicit flow control
//! instead of unbounded buffering behind a slow peer. Each receive
//! direction can additionally be tapped through a [`FrameRx`] and plugged
//! into a [`crate::Poller`], which is how one dispatcher thread multiplexes
//! many connections.
//!
//! A tap can also be **claimed** by a thread that is about to block on the
//! stream itself ([`FrameRx::claim`]). While any claim is held, pushes wake
//! only the claimant (blocked in [`FrameRx::recv_frame`]) and skip the
//! poller, and the queue reports itself not ready; [`FrameRx::release`]
//! hands whatever is left back to the poller.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::codec::{CodecError, WireDecode, WireEncode};
use crate::poller::NotifyHub;
use crate::proto::{RequestEnvelope, ResponseEnvelope};
use crate::sync::{Condvar, MonoTime, Mutex};

/// Default per-direction frame depth of [`duplex`].
pub const DEFAULT_DEPTH: usize = 256;

/// Transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer hung up.
    Closed,
    /// A frame failed to decode.
    Codec(CodecError),
    /// A blocking receive timed out.
    Timeout,
    /// The bounded queue is full: the peer is not draining fast enough.
    /// Retry after the peer reads, or use the blocking `send`.
    Backpressure,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Codec(e) => write!(f, "frame decode failure: {e}"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::Backpressure => write!(f, "bounded channel full (backpressure)"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

/// Mutable state of one direction, guarded by [`FrameQueue::frames`].
#[derive(Debug)]
struct QueueState {
    items: VecDeque<Bytes>,
    senders: usize,
    receivers: usize,
    /// Poller notification hook: bumped on push and on sender close,
    /// carrying the queue's slot index within its poller.
    watch: Option<(Arc<NotifyHub>, usize)>,
    /// Outstanding [`FrameRx::claim`]s. While non-zero the poller is
    /// neither bumped nor shown the queue as ready.
    claims: usize,
}

impl QueueState {
    /// The poller hook to bump now, if the queue is unclaimed.
    fn unclaimed_watch(&self) -> Option<(Arc<NotifyHub>, usize)> {
        if self.claims == 0 {
            self.watch.clone()
        } else {
            None
        }
    }
}

/// One bounded direction of a duplex connection, built directly on
/// `parking_lot` primitives so readiness hooks live inside the queue (the
/// vendored channel substrate has no selector).
#[derive(Debug)]
pub(crate) struct FrameQueue {
    cap: usize,
    frames: Mutex<QueueState>,
    readable: Condvar,
    writable: Condvar,
}

impl FrameQueue {
    fn new(depth: usize) -> Arc<FrameQueue> {
        Arc::new(FrameQueue {
            cap: depth.max(1),
            frames: Mutex::new(QueueState {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                watch: None,
                claims: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }

    fn push(&self, frame: Bytes, block: bool) -> Result<(), TransportError> {
        let mut q = self.frames.lock();
        loop {
            if q.receivers == 0 {
                return Err(TransportError::Closed);
            }
            if q.items.len() < self.cap {
                break;
            }
            if !block {
                return Err(TransportError::Backpressure);
            }
            self.writable.wait(&mut q);
        }
        q.items.push_back(frame);
        let watch = q.unclaimed_watch();
        drop(q);
        self.readable.notify_one();
        if let Some((hub, idx)) = watch {
            hub.bump(idx);
        }
        Ok(())
    }

    fn pop(&self) -> Result<Bytes, TransportError> {
        let mut q = self.frames.lock();
        loop {
            if let Some(frame) = q.items.pop_front() {
                drop(q);
                self.writable.notify_one();
                return Ok(frame);
            }
            if q.senders == 0 {
                return Err(TransportError::Closed);
            }
            self.readable.wait(&mut q);
        }
    }

    fn pop_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        let deadline = MonoTime::after(timeout);
        let mut q = self.frames.lock();
        loop {
            if let Some(frame) = q.items.pop_front() {
                drop(q);
                self.writable.notify_one();
                return Ok(frame);
            }
            if q.senders == 0 {
                return Err(TransportError::Closed);
            }
            if deadline.has_passed() {
                return Err(TransportError::Timeout);
            }
            let _ = self.readable.wait_for(&mut q, deadline.remaining());
        }
    }

    fn try_pop(&self) -> Result<Option<Bytes>, TransportError> {
        let mut q = self.frames.lock();
        match q.items.pop_front() {
            Some(frame) => {
                drop(q);
                self.writable.notify_one();
                Ok(Some(frame))
            }
            None if q.senders == 0 => Err(TransportError::Closed),
            None => Ok(None),
        }
    }

    /// Receive-readiness: a pending frame, or a closed sender side (so a
    /// poller consumer observes `Closed` instead of blocking forever). A
    /// claimed queue is never ready: its claimant consumes it.
    fn ready(&self) -> bool {
        let q = self.frames.lock();
        q.claims == 0 && (!q.items.is_empty() || q.senders == 0)
    }

    fn claim(&self) {
        self.frames.lock().claims += 1;
    }

    fn release(&self) {
        let mut q = self.frames.lock();
        q.claims = q.claims.saturating_sub(1);
        let leftover = !q.items.is_empty() || q.senders == 0;
        let watch = if leftover { q.unclaimed_watch() } else { None };
        drop(q);
        // The pushes (or the close) that landed while claimed bumped
        // nobody: re-raise the edge so the poller picks up the rest.
        if let Some((hub, idx)) = watch {
            hub.bump(idx);
        }
    }

    fn set_watch(&self, hub: Arc<NotifyHub>, idx: usize) {
        self.frames.lock().watch = Some((hub, idx));
    }

    fn clear_watch(&self) {
        self.frames.lock().watch = None;
    }

    fn drain(&self) {
        let mut q = self.frames.lock();
        q.items.clear();
        drop(q);
        self.writable.notify_all();
    }

    fn len(&self) -> usize {
        self.frames.lock().items.len()
    }
}

/// Owning sender half of one direction; closing the last one wakes the
/// receiver (and any watching poller) with `Closed`.
#[derive(Debug)]
pub(crate) struct TxHalf {
    q: Arc<FrameQueue>,
}

impl TxHalf {
    pub(crate) fn push(&self, frame: Bytes) -> Result<(), TransportError> {
        self.q.push(frame, true)
    }

    pub(crate) fn try_push(&self, frame: Bytes) -> Result<(), TransportError> {
        // bf-flow: allow(hot_alloc): FrameQueue is a depth-bounded ring —
        // a full queue returns Backpressure instead of growing
        self.q.push(frame, false)
    }
}

impl Clone for TxHalf {
    fn clone(&self) -> Self {
        self.q.frames.lock().senders += 1;
        TxHalf { q: self.q.clone() }
    }
}

impl Drop for TxHalf {
    fn drop(&mut self) {
        let mut q = self.q.frames.lock();
        q.senders -= 1;
        let closed = q.senders == 0;
        let watch = if closed { q.unclaimed_watch() } else { None };
        drop(q);
        if closed {
            self.q.readable.notify_all();
            if let Some((hub, idx)) = watch {
                hub.bump(idx);
            }
        }
    }
}

/// Owning receiver half of one direction; closing the last one fails
/// subsequent sends with `Closed`.
#[derive(Debug)]
struct RxHalf {
    q: Arc<FrameQueue>,
}

impl Clone for RxHalf {
    fn clone(&self) -> Self {
        self.q.frames.lock().receivers += 1;
        RxHalf { q: self.q.clone() }
    }
}

impl Drop for RxHalf {
    fn drop(&mut self) {
        let mut q = self.q.frames.lock();
        q.receivers -= 1;
        let closed = q.receivers == 0;
        drop(q);
        if closed {
            // Blocked senders must observe the hang-up.
            self.q.writable.notify_all();
        }
    }
}

/// A non-owning tap on one receive direction, registerable with a
/// [`crate::Poller`]. Unlike the channel halves it carries no open/closed
/// ownership: dropping it never closes the connection.
#[derive(Debug, Clone)]
pub struct FrameRx {
    q: Arc<FrameQueue>,
}

impl FrameRx {
    /// Non-blocking raw-frame receive. `Ok(None)` means no frame pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the queue is drained and
    /// every sender is gone.
    pub fn try_recv_frame(&self) -> Result<Option<Bytes>, TransportError> {
        self.q.try_pop()
    }

    /// Blocking raw-frame receive, for a thread holding a
    /// [`claim`](Self::claim): a push wakes it directly.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the queue is drained and
    /// every sender is gone.
    pub fn recv_frame(&self) -> Result<Bytes, TransportError> {
        self.q.pop()
    }

    /// Takes the stream away from its poller: until the matching
    /// [`release`](Self::release), pushes and the sender close wake only
    /// threads blocked in [`recv_frame`](Self::recv_frame), and the poller
    /// sees the queue as not ready. Claims nest.
    pub fn claim(&self) {
        self.q.claim();
    }

    /// Drops one [`claim`](Self::claim). When the last claim goes and
    /// frames, or a closed sender, are left, the poller is bumped so
    /// nothing pushed during the claim is stranded.
    pub fn release(&self) {
        self.q.release();
    }

    pub(crate) fn ready(&self) -> bool {
        self.q.ready()
    }

    pub(crate) fn set_watch(&self, hub: Arc<NotifyHub>, idx: usize) {
        self.q.set_watch(hub, idx);
    }

    pub(crate) fn clear_watch(&self) {
        self.q.clear_watch();
    }

    pub(crate) fn drain(&self) {
        self.q.drain();
    }
}

/// Builds the depth-1 nudge queue behind a [`crate::Waker`].
pub(crate) fn waker_channel() -> (TxHalf, FrameRx) {
    let q = FrameQueue::new(1);
    (TxHalf { q: q.clone() }, FrameRx { q })
}

/// Client side of a connection: sends requests, receives tagged responses.
#[derive(Debug, Clone)]
pub struct ClientChannel {
    req: TxHalf,
    resp: RxHalf,
}

/// Server side of a connection: receives requests, pushes tagged responses.
#[derive(Debug, Clone)]
pub struct ServerChannel {
    req: RxHalf,
    resp: TxHalf,
}

/// Creates a connected client/server channel pair with the default
/// per-direction depth ([`DEFAULT_DEPTH`]).
pub fn duplex() -> (ClientChannel, ServerChannel) {
    duplex_with_depth(DEFAULT_DEPTH)
}

/// Creates a connected client/server channel pair whose directions each
/// hold at most `depth` frames (minimum 1).
pub fn duplex_with_depth(depth: usize) -> (ClientChannel, ServerChannel) {
    let req = FrameQueue::new(depth);
    let resp = FrameQueue::new(depth);
    (
        ClientChannel {
            req: TxHalf { q: req.clone() },
            resp: RxHalf { q: resp.clone() },
        },
        ServerChannel {
            req: RxHalf { q: req },
            resp: TxHalf { q: resp },
        },
    )
}

impl ClientChannel {
    /// Encodes and sends one request, blocking while the request queue is
    /// full (flow control against a busy manager).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the manager hung up.
    pub fn send(&self, req: &RequestEnvelope) -> Result<(), TransportError> {
        self.req.push(req.to_bytes())
    }

    /// Non-blocking send.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Backpressure`] when the request queue is
    /// full, or [`TransportError::Closed`] if the manager hung up.
    pub fn try_send(&self, req: &RequestEnvelope) -> Result<(), TransportError> {
        self.req.try_push(req.to_bytes())
    }

    /// Blocks for the next tagged response from the completion stream.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn recv(&self) -> Result<ResponseEnvelope, TransportError> {
        Ok(ResponseEnvelope::from_bytes(self.resp.q.pop()?)?)
    }

    /// Like [`ClientChannel::recv`] with a wall-clock timeout (used by
    /// blocking callers to notice shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`], [`TransportError::Closed`] or a
    /// codec failure.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ResponseEnvelope, TransportError> {
        Ok(ResponseEnvelope::from_bytes(
            self.resp.q.pop_timeout(timeout)?,
        )?)
    }

    /// Non-blocking poll of the completion stream. `Ok(None)` means no
    /// response is pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn try_recv(&self) -> Result<Option<ResponseEnvelope>, TransportError> {
        match self.resp.q.try_pop()? {
            Some(frame) => Ok(Some(ResponseEnvelope::from_bytes(frame)?)),
            None => Ok(None),
        }
    }

    /// A poller-registerable tap on the completion stream.
    pub fn completions(&self) -> FrameRx {
        FrameRx {
            q: self.resp.q.clone(),
        }
    }

    /// Per-direction frame capacity.
    pub fn depth(&self) -> usize {
        self.req.q.cap
    }

    /// Responses currently queued and not yet received.
    pub fn pending_responses(&self) -> usize {
        self.resp.q.len()
    }
}

impl ServerChannel {
    /// Blocks for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn recv(&self) -> Result<RequestEnvelope, TransportError> {
        Ok(RequestEnvelope::from_bytes(self.req.q.pop()?)?)
    }

    /// Like [`ServerChannel::recv`] with a wall-clock timeout.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`], [`TransportError::Closed`] or a
    /// codec failure.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<RequestEnvelope, TransportError> {
        Ok(RequestEnvelope::from_bytes(
            self.req.q.pop_timeout(timeout)?,
        )?)
    }

    /// Non-blocking poll of the request stream. `Ok(None)` means no request
    /// is pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn try_recv(&self) -> Result<Option<RequestEnvelope>, TransportError> {
        match self.req.q.try_pop()? {
            Some(frame) => Ok(Some(RequestEnvelope::from_bytes(frame)?)),
            None => Ok(None),
        }
    }

    /// Pushes one tagged response onto the client's completion stream,
    /// blocking while the stream is full.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the client hung up.
    pub fn send(&self, resp: &ResponseEnvelope) -> Result<(), TransportError> {
        self.resp.push(resp.to_bytes())
    }

    /// Non-blocking response push.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Backpressure`] when the completion stream
    /// is full, or [`TransportError::Closed`] if the client hung up.
    pub fn try_send(&self, resp: &ResponseEnvelope) -> Result<(), TransportError> {
        self.resp.try_push(resp.to_bytes())
    }

    /// A poller-registerable tap on the request stream.
    pub fn requests(&self) -> FrameRx {
        FrameRx {
            q: self.req.q.clone(),
        }
    }

    /// Per-direction frame capacity.
    pub fn depth(&self) -> usize {
        self.resp.q.cap
    }
}

#[cfg(test)]
mod tests {
    use bf_model::VirtualTime;

    use super::*;
    use crate::proto::{ClientId, Request, Response};

    fn req(tag: u64) -> RequestEnvelope {
        RequestEnvelope {
            tag,
            client: ClientId(1),
            sent_at: VirtualTime::from_nanos(10),
            body: Request::CreateContext,
        }
    }

    fn resp(tag: u64) -> ResponseEnvelope {
        ResponseEnvelope {
            tag,
            sent_at: VirtualTime::ZERO,
            body: Response::Ack,
        }
    }

    #[test]
    fn request_response_round_trip() {
        let (client, server) = duplex();
        client.send(&req(1)).expect("send");
        let got = server.recv().expect("recv");
        assert_eq!(got.tag, 1);
        assert_eq!(got.body, Request::CreateContext);
        server
            .send(&ResponseEnvelope {
                tag: 1,
                sent_at: VirtualTime::from_nanos(20),
                body: Response::Handle { id: 5 },
            })
            .expect("send resp");
        let resp = client.recv().expect("recv resp");
        assert_eq!(resp.body, Response::Handle { id: 5 });
    }

    #[test]
    fn closed_peer_is_detected() {
        let (client, server) = duplex();
        drop(server);
        assert_eq!(client.send(&req(1)), Err(TransportError::Closed));
        assert_eq!(client.recv().expect_err("closed"), TransportError::Closed);
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (client, server) = duplex();
        assert_eq!(client.try_recv().expect("empty"), None);
        server.send(&resp(9)).expect("send");
        assert!(client.try_recv().expect("one frame").is_some());
    }

    #[test]
    fn timeout_fires_when_idle() {
        let (client, _server) = duplex();
        let err = client
            .recv_timeout(Duration::from_millis(5))
            .expect_err("should time out");
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn responses_preserve_order_per_connection() {
        let (client, server) = duplex();
        for tag in 0..10u64 {
            server
                .send(&ResponseEnvelope {
                    tag,
                    sent_at: VirtualTime::ZERO,
                    body: Response::Enqueued,
                })
                .expect("send");
        }
        for tag in 0..10u64 {
            assert_eq!(client.recv().expect("recv").tag, tag);
        }
    }

    #[test]
    fn full_queue_surfaces_backpressure_then_drains() {
        let (client, server) = duplex_with_depth(4);
        for tag in 0..4 {
            client.try_send(&req(tag)).expect("below capacity");
        }
        assert_eq!(client.try_send(&req(4)), Err(TransportError::Backpressure));
        // One read frees one slot.
        assert_eq!(server.recv().expect("recv").tag, 0);
        client.try_send(&req(4)).expect("slot freed");
        // Same in the response direction.
        for tag in 0..4 {
            server.try_send(&resp(tag)).expect("below capacity");
        }
        assert_eq!(server.try_send(&resp(4)), Err(TransportError::Backpressure));
        assert_eq!(client.recv().expect("recv").tag, 0);
        server.try_send(&resp(4)).expect("slot freed");
    }

    #[test]
    fn blocking_send_waits_for_the_reader() {
        let (client, server) = duplex_with_depth(2);
        let producer = std::thread::spawn(move || {
            for tag in 0..32 {
                client.send(&req(tag)).expect("send");
            }
        });
        for tag in 0..32 {
            assert_eq!(server.recv().expect("recv").tag, tag);
        }
        producer.join().expect("producer");
    }

    #[test]
    fn depth_is_clamped_to_at_least_one() {
        let (client, server) = duplex_with_depth(0);
        client.try_send(&req(1)).expect("one slot");
        assert_eq!(client.try_send(&req(2)), Err(TransportError::Backpressure));
        assert_eq!(server.recv().expect("recv").tag, 1);
    }

    #[test]
    fn closed_is_reported_only_after_the_queue_drains() {
        let (client, server) = duplex();
        server.send(&resp(7)).expect("send");
        drop(server);
        // The buffered frame is still delivered before Closed.
        assert_eq!(client.recv().expect("buffered").tag, 7);
        assert_eq!(client.recv().expect_err("drained"), TransportError::Closed);
    }
}
