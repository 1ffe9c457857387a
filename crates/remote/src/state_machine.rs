//! Per-operation event state machines (paper Fig. 2).
//!
//! Every asynchronous OpenCL call is tracked by a small state machine that
//! the dispatching thread (the reactor, or a blocked caller driving its
//! connection) advances as tagged responses arrive:
//!
//! * **INIT** — the call metadata has been sent to the Device Manager;
//! * **FIRST** — the manager acknowledged the command entering the
//!   client's open task ([`bf_rpc::Response::Enqueued`]);
//! * **BUFFER** — bulk data is in flight (reads: the result payload is
//!   being copied out of the completion);
//! * **COMPLETE** — the operation finished; the OpenCL event status turns
//!   `Complete` and waiters are released.

use bf_ocl::CommandType;

/// The Fig. 2 states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineState {
    /// Call metadata sent.
    Init,
    /// Command accepted into the open task.
    First,
    /// Bulk data transfer step.
    Buffer,
    /// Terminal success.
    Complete,
    /// Terminal failure.
    Failed,
}

impl MachineState {
    /// Whether the machine has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, MachineState::Complete | MachineState::Failed)
    }
}

/// Every legal Fig. 2 transition, as `(from, to)` pairs.
///
/// Progress is strictly forward: `INIT` may be skipped past when responses
/// race on the wire (a completion can overtake the `Enqueued` ack), both
/// terminals absorb, and nothing ever returns to an earlier state.
/// Identity pairs are deliberately absent — a no-op must be filtered by
/// the caller, not recorded as a transition.
pub const LEGAL_TRANSITIONS: &[(MachineState, MachineState)] = &[
    (MachineState::Init, MachineState::First),
    (MachineState::Init, MachineState::Buffer),
    (MachineState::Init, MachineState::Complete),
    (MachineState::Init, MachineState::Failed),
    (MachineState::First, MachineState::Buffer),
    (MachineState::First, MachineState::Complete),
    (MachineState::First, MachineState::Failed),
    (MachineState::Buffer, MachineState::Complete),
    (MachineState::Buffer, MachineState::Failed),
];

/// Whether `from → to` appears in [`LEGAL_TRANSITIONS`].
pub fn is_legal_transition(from: MachineState, to: MachineState) -> bool {
    LEGAL_TRANSITIONS.contains(&(from, to))
}

/// One operation's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStateMachine {
    kind: CommandType,
    state: MachineState,
}

impl OpStateMachine {
    /// Creates a machine in `INIT` for the given command.
    pub fn new(kind: CommandType) -> Self {
        OpStateMachine {
            kind,
            state: MachineState::Init,
        }
    }

    /// The tracked command type.
    pub fn kind(&self) -> CommandType {
        self.kind
    }

    /// Current state.
    pub fn state(&self) -> MachineState {
        self.state
    }

    /// The manager acknowledged the command (`Enqueued`): INIT → FIRST.
    /// Late or duplicate acks are ignored.
    pub fn on_enqueued(&mut self) {
        if self.state == MachineState::Init {
            self.transition(MachineState::First);
        }
    }

    /// The operation completed. Reads pass through `BUFFER` (payload
    /// copy-out) before `COMPLETE`; other commands go straight to
    /// `COMPLETE`. Returns whether the transition was accepted.
    pub fn on_completed(&mut self) -> bool {
        if self.state.is_terminal() {
            return false;
        }
        self.transition(MachineState::Complete);
        true
    }

    /// The read payload is being copied out: FIRST/INIT → BUFFER.
    pub fn on_buffer(&mut self) {
        if !self.state.is_terminal() && self.state != MachineState::Buffer {
            self.transition(MachineState::Buffer);
        }
    }

    /// The operation failed. Returns whether the transition was accepted.
    pub fn on_error(&mut self) -> bool {
        if self.state.is_terminal() {
            return false;
        }
        self.transition(MachineState::Failed);
        true
    }

    /// Central transition funnel: every state change passes through here,
    /// so a debug build catches any advance not in [`LEGAL_TRANSITIONS`]
    /// the moment it happens.
    fn transition(&mut self, to: MachineState) {
        debug_assert!(
            is_legal_transition(self.state, to),
            "illegal Fig. 2 transition {:?} -> {to:?} for {:?}",
            self.state,
            self.kind,
        );
        self.state = to;
    }

    /// Test-only: drive the funnel with an arbitrary target state to
    /// exercise the debug assertion.
    #[cfg(test)]
    pub(crate) fn force_transition(&mut self, to: MachineState) {
        self.transition(to);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn transition_table_is_a_strict_forward_order() {
        for &(from, to) in LEGAL_TRANSITIONS {
            assert!(
                !from.is_terminal(),
                "terminal {from:?} must absorb, not transition"
            );
            assert_ne!(from, to, "identity pairs are no-ops, not transitions");
        }
        // Nothing ever returns to Init, and terminals have no successors.
        for &to in &[
            MachineState::Init,
            MachineState::First,
            MachineState::Buffer,
            MachineState::Complete,
        ] {
            assert!(!is_legal_transition(MachineState::Complete, to));
            assert!(!is_legal_transition(MachineState::Failed, to));
            assert!(!is_legal_transition(to, MachineState::Init));
        }
        assert!(!is_legal_transition(
            MachineState::Buffer,
            MachineState::First
        ));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn illegal_transition_panics_in_debug_builds() {
        let result = std::thread::Builder::new()
            .name("bf-illegal-transition".into())
            .spawn(|| {
                let mut m = OpStateMachine::new(CommandType::WriteBuffer);
                assert!(m.on_completed());
                // Complete is terminal: forcing a regression must trip the
                // debug assertion.
                m.force_transition(MachineState::First);
            })
            .expect("spawn probe thread")
            .join();
        assert!(
            result.is_err(),
            "regressing out of a terminal state must panic"
        );
    }

    proptest! {
        #[test]
        fn random_interleavings_never_produce_illegal_transitions(
            seq in proptest::collection::vec(0u8..4, 0..16),
        ) {
            // Whatever order acks, buffers, completions, and errors arrive
            // in, every observed state change is in LEGAL_TRANSITIONS.
            let mut m = OpStateMachine::new(CommandType::ReadBuffer);
            let mut prev = m.state();
            for step in seq {
                match step {
                    0 => m.on_enqueued(),
                    1 => m.on_buffer(),
                    2 => {
                        m.on_completed();
                    }
                    _ => {
                        m.on_error();
                    }
                }
                let state = m.state();
                prop_assert!(
                    state == prev || is_legal_transition(prev, state),
                    "illegal {prev:?} -> {state:?}",
                );
                prev = state;
            }
        }
    }

    #[test]
    fn write_lifecycle() {
        let mut m = OpStateMachine::new(CommandType::WriteBuffer);
        assert_eq!(m.state(), MachineState::Init);
        m.on_enqueued();
        assert_eq!(m.state(), MachineState::First);
        assert!(m.on_completed());
        assert_eq!(m.state(), MachineState::Complete);
        assert!(m.state().is_terminal());
    }

    #[test]
    fn read_passes_through_buffer() {
        let mut m = OpStateMachine::new(CommandType::ReadBuffer);
        m.on_enqueued();
        m.on_buffer();
        assert_eq!(m.state(), MachineState::Buffer);
        assert!(m.on_completed());
    }

    #[test]
    fn completion_without_ack_is_accepted() {
        // The Enqueued ack and the completion race on the wire; a machine
        // must tolerate the completion arriving first.
        let mut m = OpStateMachine::new(CommandType::NdRangeKernel);
        assert!(m.on_completed());
        m.on_enqueued(); // late ack ignored
        assert_eq!(m.state(), MachineState::Complete);
    }

    #[test]
    fn terminal_states_absorb_everything() {
        let mut m = OpStateMachine::new(CommandType::WriteBuffer);
        assert!(m.on_error());
        assert!(!m.on_completed());
        assert!(!m.on_error());
        m.on_buffer();
        assert_eq!(m.state(), MachineState::Failed);
    }

    #[test]
    fn machine_state_is_monotone_under_any_response_order() {
        // Exhaustive over all 4^5 transition sequences: the observed state
        // sequence never regresses and at most one terminal is reached.
        fn apply(m: &mut OpStateMachine, t: u8) {
            match t {
                0 => m.on_enqueued(),
                1 => m.on_buffer(),
                2 => {
                    m.on_completed();
                }
                _ => {
                    m.on_error();
                }
            }
        }
        fn rank(s: MachineState) -> u8 {
            match s {
                MachineState::Init => 0,
                MachineState::First => 1,
                MachineState::Buffer => 2,
                MachineState::Complete | MachineState::Failed => 3,
            }
        }
        for seq in 0..4u32.pow(5) {
            let mut m = OpStateMachine::new(CommandType::ReadBuffer);
            let mut prev = rank(m.state());
            let mut terminal: Option<MachineState> = None;
            for step in 0..5 {
                apply(&mut m, ((seq >> (2 * step)) & 3) as u8);
                let state = m.state();
                assert!(rank(state) >= prev, "regressed in seq {seq}");
                prev = rank(state);
                match (terminal, state.is_terminal()) {
                    (None, true) => terminal = Some(state),
                    (Some(t), true) => assert_eq!(t, state, "terminal flipped in seq {seq}"),
                    _ => {}
                }
            }
        }
    }
}
