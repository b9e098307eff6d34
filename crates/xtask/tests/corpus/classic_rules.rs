// lint-rules: signatures float-eq sim-loops
//
// The pre-existing rule families, exercised through the same harness so a
// refactor of the engine cannot silently change what they match.

pub fn raw_power(p: f64) -> f64 {
    //~^ ERROR raw-float-signature
    p * 2.0
}

pub fn newtype_power(p: Power) -> Power {
    p
}

pub(crate) fn crate_private_floats_are_fine(p: f64) -> f64 {
    p
}

// Rc/RefCell and unwrap/expect are clippy's to reject (see
// tests/clippy_corpus.rs); the lexical lint has no copy of those bans.
pub struct Shared {
    inner: Rc<RefCell<u32>>,
}

pub fn fallible(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("present");
    a + b
}

pub fn close_enough(x: Ratio) -> bool {
    x.value() == 1.0 //~ ERROR float-eq
}

pub fn manual_loop(cap: &mut Supercap) {
    let mut t = Seconds::ZERO;
    let t_end = Seconds::new(10.0);
    while t < t_end {
        //~^ ERROR adhoc-sim-loop
        cap.step(DT, Power::ZERO, Power::ZERO);
        t += DT;
    }
}

pub fn scheduled_loop(sched: &mut Scheduler) {
    sched.run_until(Seconds::new(10.0));
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_exempt() {
        let x: f64 = Some(1.0).unwrap();
        assert!(x == 1.0);
        let cell = RefCell::new(3u32);
        drop(cell);
    }
}
