// Fixture: a clean simulation-crate file — no rule should fire. The
// comment mentions Instant, thread_rng, Mutex and .unwrap( to prove the
// sanitizer masks comments before matching.

pub fn advance(now: SimTime, step: SimDuration) -> SimTime {
    now + step
}

pub fn drain(rc: &Rc<RefCell<State>>, en: &mut Engine) {
    let next = {
        let st = rc.borrow();
        st.next_deadline
    };
    let rc2 = rc.clone();
    en.schedule_at(next, move |en| {
        rc2.borrow_mut().fire(en);
    });
}

pub fn ring_doorbell(fabric: &RefCell<Fabric>, en: &mut Engine, db: u64, head: u32) {
    // A dropped result is a use, not a hidden binding.
    let _ = fabric
        .borrow_mut()
        .write_u32(en, db, head);
    let _ = log_line(head);
}

// Calls each `pub fn` above, so none of them is uncalled (SL010).
fn tick(st: &Rc<RefCell<State>>, fabric: &RefCell<Fabric>, en: &mut Engine) {
    let next = advance(en.now(), SimDuration::from_ns(1));
    drain(st, en);
    ring_doorbell(fabric, en, next.doorbell, 1);
}
