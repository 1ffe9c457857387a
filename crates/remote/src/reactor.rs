//! The client-side reactor: one dispatcher thread multiplexing every
//! connection's completion stream.
//!
//! Each [`Connection`] registers its completion-stream tap ([`FrameRx`])
//! here; the reactor polls all taps through one [`Poller`] (round-robin
//! fairness), decodes each tagged response and dispatches it on the owning
//! connection (Fig. 2 steps 5–6).
//!
//! The reactor is off the synchronous path: a caller blocked on its own
//! reply claims the stream and dispatches it itself, and a claimed stream
//! never wakes the reactor. What reaches the reactor is what nobody is
//! blocked on — asynchronous events, completion callbacks, fire-and-forget
//! acks — and the frames a driving caller leaves behind. It only ever
//! *tries* to take a connection's dispatch role, skipping the connection
//! while a caller holds it, so its loop never blocks on a caller.
//!
//! The reactor holds only a `Weak` reference to each connection, so a
//! dropped `Connection` is not kept alive by its own completion stream:
//! the client's request sender drops with it, the manager reaps the
//! session, the server side closes, and the closed stream is the readiness
//! edge that tells the reactor to forget the slot — shutdown is
//! event-driven end to end.
//!
//! [`Connection`]: crate::connection::Connection

use std::sync::{OnceLock, Weak};

use bf_rpc::{FrameRx, PollEvent, Poller, Token, Waker};
// bf-lint: allow(raw_sync): control-plane channel into the reactor loop;
// only try_recv'd after a modeled waker readiness edge
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};

use crate::connection::{self, ConnectionInner};

/// Frames handled per readiness event before the next round-robin scan, so
/// one chatty manager connection cannot starve the others.
const FRAME_BATCH: usize = 32;

pub(crate) enum Control {
    Register {
        frames: FrameRx,
        conn: Weak<ConnectionInner>,
    },
}

/// Handle to a completion-dispatching reactor thread.
///
/// Most callers use the process-wide instance via [`Connection::new`];
/// [`Reactor::new`] spawns a private one (tests, isolation).
///
/// [`Connection::new`]: crate::connection::Connection::new
#[derive(Clone)]
pub struct Reactor {
    control: Sender<Control>,
    waker: Waker,
}

impl Default for Reactor {
    fn default() -> Self {
        Reactor::new()
    }
}

impl Reactor {
    /// Spawns a dedicated reactor thread. The thread exits once every
    /// handle to this `Reactor` is dropped and no live connection remains.
    pub fn new() -> Reactor {
        let mut poller = Poller::new();
        let (wake_token, waker) = poller.add_waker();
        let (control, control_rx) = bounded(64);
        std::thread::Builder::new()
            .name("bf-remote-reactor".to_string())
            .spawn(move || reactor_thread(control_rx, poller, wake_token))
            // bf-lint: allow(panic): thread-spawn failure is OS resource
            // exhaustion — a client library without its reactor is dead.
            .expect("spawn remote reactor thread");
        Reactor { control, waker }
    }

    /// The process-wide reactor shared by default-constructed connections.
    pub fn global() -> &'static Reactor {
        static GLOBAL: OnceLock<Reactor> = OnceLock::new();
        GLOBAL.get_or_init(Reactor::new)
    }

    /// Adopts one connection's completion stream.
    pub(crate) fn register(&self, frames: FrameRx, conn: Weak<ConnectionInner>) {
        if self
            .control
            .send(Control::Register { frames, conn })
            .is_ok()
        {
            self.waker.wake();
        }
        // A dead reactor thread (impossible while this handle exists, since
        // it only exits once control disconnects) would leave responses
        // unpulled; sends surface that through sync-call channel errors.
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").finish_non_exhaustive()
    }
}

// bf-flow: entry(remote_reactor)
fn reactor_thread(control_rx: Receiver<Control>, mut poller: Poller, wake_token: Token) {
    let mut conns: std::collections::HashMap<Token, Weak<ConnectionInner>> =
        std::collections::HashMap::new();
    let mut control_open = true;
    loop {
        if !control_open && conns.is_empty() {
            return;
        }
        match poller.poll(None) {
            PollEvent::TimedOut => {}
            PollEvent::Ready(token) if token == wake_token => loop {
                match control_rx.try_recv() {
                    Ok(Control::Register { frames, conn }) => {
                        let token = poller.register(frames);
                        // bf-flow: allow(hot_alloc): one entry per live
                        // connection, forgotten when its stream closes —
                        // bounded by connection count, not by traffic
                        conns.insert(token, conn);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        control_open = false;
                        poller.deregister(wake_token);
                        break;
                    }
                }
            },
            PollEvent::Ready(token) => {
                let dead = match conns.get(&token).map(Weak::upgrade) {
                    None => false,
                    // Every handle is gone: nobody can wait on the stream.
                    Some(None) => true,
                    // A closed stream (manager gone) has failed the
                    // connection's outstanding operations; forget the slot.
                    Some(Some(inner)) => connection::reactor_dispatch(&inner, FRAME_BATCH),
                };
                if dead {
                    poller.deregister(token);
                    conns.remove(&token);
                }
            }
        }
    }
}
