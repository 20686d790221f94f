//! AXI4-Stream channels.
//!
//! SNAcc abstracts NVMe access behind standard AXI4-Stream interfaces
//! (paper Sec 4.1): commands and data are beats on ready/valid channels,
//! with TLAST delimiting transfers. We model a channel as a bounded queue
//! of byte-chunk beats: `ready` is "the queue has space", `valid` is "the
//! queue has data", and hooks wake producers/consumers on transitions —
//! the same event discipline an RTL handshake creates, at chunk rather
//! than cycle granularity.

use snacc_sim::{Engine, Payload};
use snacc_trace as trace;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One stream beat: a chunk of bytes plus the TLAST marker. The bytes
/// are a shared [`Payload`] window, so beats clone/split without copying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamBeat {
    /// Payload bytes of this beat.
    pub data: Payload,
    /// TLAST: final beat of the current transfer.
    pub last: bool,
}

impl StreamBeat {
    /// A beat with TLAST clear.
    pub fn mid(data: impl Into<Payload>) -> Self {
        StreamBeat {
            data: data.into(),
            last: false,
        }
    }

    /// A beat with TLAST set.
    pub fn last(data: impl Into<Payload>) -> Self {
        StreamBeat {
            data: data.into(),
            last: true,
        }
    }

    /// Beat length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the beat empty? (Zero-length TLAST-only beats are allowed.)
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

type Hook = Rc<RefCell<dyn FnMut(&mut Engine)>>;

/// A bounded AXI4-Stream channel.
pub struct AxisChannel {
    name: String,
    capacity_bytes: u64,
    queue: VecDeque<StreamBeat>,
    queued_bytes: u64,
    data_hook: Option<Hook>,
    space_hook: Option<Hook>,
    /// A producer was refused for lack of space and no pop has freed
    /// space since — the channel is exerting backpressure. Tracked so the
    /// tracer records stall *transitions* (two events per episode) rather
    /// than per-beat noise.
    stalled: bool,
}

impl AxisChannel {
    /// Create a channel holding up to `capacity_bytes` of queued beats.
    pub fn new(name: impl Into<String>, capacity_bytes: u64) -> Rc<RefCell<AxisChannel>> {
        assert!(capacity_bytes > 0);
        Rc::new(RefCell::new(AxisChannel {
            name: name.into(),
            capacity_bytes,
            queue: VecDeque::new(),
            queued_bytes: 0,
            data_hook: None,
            space_hook: None,
            stalled: false,
        }))
    }

    /// Channel name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes currently queued.
    pub fn occupancy(&self) -> u64 {
        self.queued_bytes
    }

    /// Beats currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Would a beat of `len` bytes fit right now? Zero-length beats always
    /// fit.
    pub fn has_space(&self, len: usize) -> bool {
        self.queued_bytes + len as u64 <= self.capacity_bytes
    }

    /// Is the channel empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Install the data-available hook (consumer wake-up).
    pub fn set_data_hook(&mut self, hook: impl FnMut(&mut Engine) + 'static) {
        self.data_hook = Some(Rc::new(RefCell::new(hook)));
    }

    /// Install the space-available hook (producer wake-up).
    pub fn set_space_hook(&mut self, hook: impl FnMut(&mut Engine) + 'static) {
        self.space_hook = Some(Rc::new(RefCell::new(hook)));
    }
}

/// Push a beat; returns `false` (and leaves the beat with the caller) when
/// the channel is full — retry on the space hook.
pub fn push(rc: &Rc<RefCell<AxisChannel>>, en: &mut Engine, beat: StreamBeat) -> bool {
    let hook = {
        let mut c = rc.borrow_mut();
        if !c.has_space(beat.len()) {
            if !c.stalled {
                c.stalled = true;
                if trace::enabled() {
                    trace::instant(
                        en,
                        &format!("axis.{}", c.name),
                        "axis.stall",
                        &[
                            ("occupancy", c.queued_bytes),
                            ("refused_bytes", beat.len() as u64),
                        ],
                    );
                }
            }
            return false;
        }
        c.queued_bytes += beat.len() as u64;
        c.queue.push_back(beat);
        c.data_hook.clone()
    };
    if let Some(h) = hook {
        (h.borrow_mut())(en);
    }
    true
}

/// Pop the next beat, waking the producer if space freed up.
pub fn pop(rc: &Rc<RefCell<AxisChannel>>, en: &mut Engine) -> Option<StreamBeat> {
    let (beat, hook) = {
        let mut c = rc.borrow_mut();
        let beat = c.queue.pop_front()?;
        c.queued_bytes -= beat.len() as u64;
        if c.stalled {
            c.stalled = false;
            if trace::enabled() {
                trace::instant(
                    en,
                    &format!("axis.{}", c.name),
                    "axis.resume",
                    &[("occupancy", c.queued_bytes)],
                );
            }
        }
        (beat, c.space_hook.clone())
    };
    if let Some(h) = hook {
        (h.borrow_mut())(en);
    }
    Some(beat)
}

/// Peek at the head beat's length and TLAST without consuming it.
pub fn peek(rc: &Rc<RefCell<AxisChannel>>) -> Option<(usize, bool)> {
    let c = rc.borrow();
    c.queue.front().map(|b| (b.len(), b.last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_tlast() {
        let mut en = Engine::new();
        let ch = AxisChannel::new("t", 1 << 20);
        assert!(push(&ch, &mut en, StreamBeat::mid(vec![1, 2])));
        assert!(push(&ch, &mut en, StreamBeat::last(vec![3])));
        assert_eq!(peek(&ch), Some((2, false)));
        let a = pop(&ch, &mut en).unwrap();
        assert_eq!(a.data, vec![1, 2]);
        assert!(!a.last);
        let b = pop(&ch, &mut en).unwrap();
        assert!(b.last);
        assert!(pop(&ch, &mut en).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut en = Engine::new();
        let ch = AxisChannel::new("t", 10);
        assert!(push(&ch, &mut en, StreamBeat::mid(vec![0; 6])));
        assert!(!push(&ch, &mut en, StreamBeat::mid(vec![0; 6])));
        assert!(push(&ch, &mut en, StreamBeat::mid(vec![0; 4])));
        assert_eq!(ch.borrow().occupancy(), 10);
    }

    #[test]
    fn zero_length_tlast_beat_allowed() {
        let mut en = Engine::new();
        let ch = AxisChannel::new("t", 4);
        assert!(push(&ch, &mut en, StreamBeat::mid(vec![0; 4])));
        // Channel byte-full, but a 0-byte TLAST beat still fits.
        assert!(push(&ch, &mut en, StreamBeat::last(vec![])));
        assert_eq!(ch.borrow().pending(), 2);
    }

    #[test]
    fn hooks_fire() {
        let mut en = Engine::new();
        let ch = AxisChannel::new("t", 8);
        let data_hits = Rc::new(RefCell::new(0u32));
        let space_hits = Rc::new(RefCell::new(0u32));
        let d = data_hits.clone();
        let s = space_hits.clone();
        ch.borrow_mut().set_data_hook(move |_| *d.borrow_mut() += 1);
        ch.borrow_mut()
            .set_space_hook(move |_| *s.borrow_mut() += 1);
        push(&ch, &mut en, StreamBeat::mid(vec![0; 4]));
        assert_eq!(*data_hits.borrow(), 1);
        pop(&ch, &mut en);
        assert_eq!(*space_hits.borrow(), 1);
    }
}
