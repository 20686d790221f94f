//! Completion tracking and retirement ordering.
//!
//! The streamer's completion queue is "a reorder buffer containing the
//! necessary information to finalize processing for each command, along
//! with one bit indicating its completion status. While the completion
//! bits may be set out-of-order, the NVMe Streamer processes them
//! in-order" (paper Sec 4.2). This module is that structure, generic over
//! the per-command payload, with the Sec 7 out-of-order issue extension
//! as a mode switch.

use crate::config::RetirementMode;
use std::collections::{HashMap, VecDeque};

/// One tracked command.
#[derive(Debug)]
struct RobEntry<T> {
    payload: T,
    complete: bool,
    ok: bool,
}

/// The reorder buffer.
pub struct CommandRob<T> {
    depth: u16,
    mode: RetirementMode,
    next_cid: u16,
    entries: HashMap<u16, RobEntry<T>>,
    /// Issue order (front = oldest).
    order: VecDeque<u16>,
    /// Commands issued to the device and not yet completed.
    inflight_device: u16,
}

impl<T> CommandRob<T> {
    /// A ROB for `depth` in-flight commands under the given policy.
    pub fn new(depth: u16, mode: RetirementMode) -> Self {
        assert!(depth > 0);
        CommandRob {
            depth,
            mode,
            next_cid: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            inflight_device: 0,
        }
    }

    /// May a new command be issued right now?
    ///
    /// * In-order: the window counts every unretired command — this is the
    ///   paper's "issues new commands only after the first previous
    ///   command is completed" head-of-line constraint.
    /// * Out-of-order: only device-inflight commands count.
    pub fn can_issue(&self) -> bool {
        match self.mode {
            RetirementMode::InOrder => (self.order.len() as u16) < self.depth,
            RetirementMode::OutOfOrder => self.inflight_device < self.depth,
        }
    }

    /// Track a newly issued command; returns its command id.
    pub fn issue(&mut self, payload: T) -> u16 {
        assert!(self.can_issue(), "issue() without can_issue()");
        let cid = self.next_cid;
        self.next_cid = (self.next_cid + 1) % 4096;
        let prev = self.entries.insert(
            cid,
            RobEntry {
                payload,
                complete: false,
                ok: false,
            },
        );
        assert!(prev.is_none(), "cid collision — window exceeds cid space");
        self.order.push_back(cid);
        self.inflight_device += 1;
        cid
    }

    /// Mark a command complete (a CQE arrived). Unknown cids are ignored
    /// (a spurious/duplicate completion).
    pub fn complete(&mut self, cid: u16, ok: bool) {
        if let Some(e) = self.entries.get_mut(&cid) {
            if !e.complete {
                e.complete = true;
                e.ok = ok;
                self.inflight_device -= 1;
            }
        }
    }

    /// Commands tracked (issued, unretired).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the ROB empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Re-arm an in-flight command for replay under a fresh cid, keeping
    /// its slot in the retirement order — in-order delivery survives the
    /// retry because the command never leaves the queue. Returns the new
    /// cid, or `None` if `cid` is unknown or already completed. The entry
    /// stays incomplete and device-inflight, so a late CQE still carrying
    /// the old cid becomes a harmless no-op in [`CommandRob::complete`].
    pub fn replay(&mut self, cid: u16) -> Option<u16> {
        if self.entries.get(&cid).is_none_or(|e| e.complete) {
            return None;
        }
        let mut new_cid = self.next_cid;
        // Skip cids still tracked (reachable when replays lap the
        // monotonic counter inside the 4096-cid space).
        while self.entries.contains_key(&new_cid) {
            new_cid = (new_cid + 1) % 4096;
        }
        self.next_cid = (new_cid + 1) % 4096;
        let entry = self.entries.remove(&cid).expect("checked above");
        self.entries.insert(new_cid, entry);
        let slot = self
            .order
            .iter()
            .position(|&c| c == cid)
            .expect("tracked cid is ordered");
        self.order[slot] = new_cid;
        Some(new_cid)
    }

    /// Completion flag of a tracked command (`None` if untracked).
    pub fn is_complete(&self, cid: u16) -> Option<bool> {
        self.entries.get(&cid).map(|e| e.complete)
    }

    /// Payload of a tracked command.
    pub fn payload(&self, cid: u16) -> Option<&T> {
        self.entries.get(&cid).map(|e| &e.payload)
    }

    /// Mutable payload of a tracked command.
    pub fn payload_mut(&mut self, cid: u16) -> Option<&mut T> {
        self.entries.get_mut(&cid).map(|e| &mut e.payload)
    }

    /// The oldest command, if it has completed: `(cid, ok, &payload)`.
    pub fn front_ready(&self) -> Option<(u16, bool, &T)> {
        let cid = *self.order.front()?;
        let e = &self.entries[&cid];
        e.complete.then_some((cid, e.ok, &e.payload))
    }

    /// Retire the oldest command (must be complete). Returns its payload.
    pub fn retire_front(&mut self) -> (u16, bool, T) {
        let cid = *self.order.front().expect("retire on empty ROB");
        let e = self.entries.get(&cid).expect("entry exists");
        assert!(e.complete, "retiring an incomplete command");
        self.order.pop_front();
        let e = self.entries.remove(&cid).expect("entry exists");
        (cid, e.ok, e.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_retirement_despite_ooo_completion() {
        let mut rob = CommandRob::new(4, RetirementMode::InOrder);
        let a = rob.issue("a");
        let b = rob.issue("b");
        let c = rob.issue("c");
        rob.complete(c, true);
        rob.complete(b, true);
        assert!(rob.front_ready().is_none(), "head incomplete");
        rob.complete(a, true);
        assert_eq!(rob.retire_front().2, "a");
        assert_eq!(rob.retire_front().2, "b");
        assert_eq!(rob.retire_front().2, "c");
        assert!(rob.is_empty());
    }

    #[test]
    fn in_order_issue_window_blocks_on_head() {
        let mut rob = CommandRob::new(2, RetirementMode::InOrder);
        let a = rob.issue(0);
        let b = rob.issue(1);
        assert!(!rob.can_issue());
        // Completing the *younger* command does not open the window.
        rob.complete(b, true);
        assert!(!rob.can_issue());
        // Completing and retiring the head does.
        rob.complete(a, true);
        rob.retire_front();
        assert!(rob.can_issue());
    }

    #[test]
    fn ooo_issue_window_opens_on_any_completion() {
        let mut rob = CommandRob::new(2, RetirementMode::OutOfOrder);
        let _a = rob.issue(0);
        let b = rob.issue(1);
        assert!(!rob.can_issue());
        rob.complete(b, true);
        assert!(rob.can_issue(), "OoO frees the slot at completion");
        // Retirement (data delivery) is still in-order.
        assert!(rob.front_ready().is_none());
    }

    #[test]
    fn error_status_propagates() {
        let mut rob = CommandRob::new(2, RetirementMode::InOrder);
        let a = rob.issue("x");
        rob.complete(a, false);
        let (cid, ok, _) = rob.retire_front();
        assert_eq!(cid, a);
        assert!(!ok);
    }

    #[test]
    fn replay_preserves_retirement_order() {
        let mut rob = CommandRob::new(4, RetirementMode::InOrder);
        let a = rob.issue("a");
        let b = rob.issue("b");
        let c = rob.issue("c");
        // The middle command failed transiently and is replayed.
        let b2 = rob.replay(b).expect("b is replayable");
        assert_ne!(b2, b);
        // A late CQE for the old cid is ignored.
        rob.complete(b, false);
        assert_eq!(rob.inflight_device, 3);
        rob.complete(a, true);
        rob.complete(c, true);
        rob.complete(b2, true);
        assert_eq!(rob.retire_front().2, "a");
        let (cid, ok, p) = rob.retire_front();
        assert_eq!((cid, ok, p), (b2, true, "b"));
        assert_eq!(rob.retire_front().2, "c");
    }

    #[test]
    fn replay_of_unknown_or_complete_cid_refused() {
        let mut rob = CommandRob::new(2, RetirementMode::InOrder);
        assert_eq!(rob.replay(9), None);
        let a = rob.issue(());
        rob.complete(a, true);
        assert_eq!(rob.replay(a), None);
    }

    #[test]
    fn duplicate_completion_ignored() {
        let mut rob = CommandRob::new(2, RetirementMode::InOrder);
        let a = rob.issue(());
        rob.complete(a, true);
        rob.complete(a, true);
        assert_eq!(rob.inflight_device, 0);
    }

    proptest! {
        /// For any completion permutation, retirement yields payloads in
        /// exact issue order.
        #[test]
        fn retires_in_issue_order(n in 1usize..64, perm_seed in any::<u64>()) {
            let mut rob = CommandRob::new(64, RetirementMode::InOrder);
            let cids: Vec<u16> = (0..n).map(|i| rob.issue(i)).collect();
            // Deterministic shuffle of completion order.
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = perm_seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let mut retired = Vec::new();
            for &i in &order {
                rob.complete(cids[i], true);
                while rob.front_ready().is_some() {
                    retired.push(rob.retire_front().2);
                }
            }
            prop_assert_eq!(retired, (0..n).collect::<Vec<_>>());
        }

        /// OoO mode: inflight_device never exceeds depth, and every issued
        /// command eventually retires exactly once.
        #[test]
        fn ooo_conserves_commands(total in 1usize..300) {
            let depth = 8u16;
            let mut rob = CommandRob::new(depth, RetirementMode::OutOfOrder);
            let mut issued = 0usize;
            let mut pending: Vec<u16> = Vec::new();
            let mut retired = 0usize;
            let mut s = 12345u64;
            while retired < total {
                if issued < total && rob.can_issue() {
                    pending.push(rob.issue(issued));
                    issued += 1;
                } else if !pending.is_empty() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
                    let i = (s >> 33) as usize % pending.len();
                    let cid = pending.swap_remove(i);
                    rob.complete(cid, true);
                }
                while rob.front_ready().is_some() {
                    rob.retire_front();
                    retired += 1;
                }
                prop_assert!(rob.inflight_device <= depth);
            }
            prop_assert_eq!(retired, total);
            prop_assert!(rob.is_empty());
        }
    }
}
