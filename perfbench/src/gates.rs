//! Correctness gates. Every gate returns `Err` with a one-line reason,
//! and [`Tally`] turns gate results into the node-day counts the result
//! line reports as `attempted` and `failed`.

use solarml_fleet::FleetReport;

/// Node-days checked and node-days that failed a gate, with reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Node-days that went through at least one gate.
    pub attempted: u64,
    /// Node-days quarantined or failing a gate.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `node_days` as attempted, and as failed when `result` is an
    /// error: a gate over a whole report fails all of its node-days.
    pub fn check(&mut self, node_days: u64, result: Result<(), String>) {
        self.attempted += node_days;
        if let Err(reason) = result {
            self.failed += node_days;
            self.failures.push(reason);
        }
    }

    /// Counts a gate that can fail without attempting new node-days (the
    /// node-days were counted by an earlier gate on the same report).
    pub fn require(&mut self, node_days: u64, result: Result<(), String>) {
        if let Err(reason) = result {
            self.failed += node_days;
            self.failures.push(reason);
        }
    }

    /// Share of attempted node-days that passed every gate.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted as f64
    }
}

/// Byte equality of two rendered reports; names the first differing byte.
pub fn same_bytes(label: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.len().min(got.len()));
    Err(format!(
        "{label}: reports differ at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// A report has every node, none quarantined, and every ledger residual
/// inside the 1 nJ tolerance.
pub fn healthy(label: &str, report: &FleetReport, nodes: usize) -> Result<(), String> {
    let a = &report.aggregate;
    let folded = a.nodes as usize + report.failed.len();
    if report.nodes != nodes || folded != nodes {
        return Err(format!(
            "{label}: expected {nodes} node-days, report has {} ({folded} folded or quarantined)",
            report.nodes
        ));
    }
    if !report.failed.is_empty() {
        return Err(format!(
            "{label}: {} node-days quarantined, first: {}",
            report.failed.len(),
            report.failed[0].message
        ));
    }
    if a.residual_violations > 0 {
        return Err(format!(
            "{label}: {} node-days above the 1 nJ residual tolerance",
            a.residual_violations
        ));
    }
    Ok(())
}

/// The sweep edit must move at least one content key, and the edited
/// variant must miss exactly the keys it moved. A zero-radius edit would
/// make `misses == affected` hold vacuously, so it is a failure here.
pub fn sweep_radius(affected: usize, misses_b: u64) -> Result<(), String> {
    if affected == 0 {
        return Err("sweep edit moved no content key: the miss gate would be vacuous".to_string());
    }
    if misses_b != affected as u64 {
        return Err(format!(
            "edited variant missed {misses_b} entries, key diff says {affected}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failed_node_days() {
        let mut t = Tally::default();
        t.check(10, Ok(()));
        t.check(6, Err("bad".into()));
        t.require(2, Err("worse".into()));
        assert_eq!((t.attempted, t.failed), (16, 8));
        assert!((t.ok_frac() - 0.5).abs() < 1e-12);
        assert_eq!(t.failures.len(), 2);
    }

    #[test]
    fn byte_compare_names_the_first_difference() {
        assert!(same_bytes("x", "abc", "abc").is_ok());
        let err = same_bytes("x", "abc", "abd").expect_err("differs");
        assert!(err.contains("byte 2"), "{err}");
        assert!(same_bytes("x", "abc", "abcd").is_err());
    }

    #[test]
    fn zero_radius_and_miscounted_sweeps_fail() {
        assert!(sweep_radius(0, 0).is_err(), "0 == 0 is not a pass");
        assert!(sweep_radius(5, 4).is_err());
        assert!(sweep_radius(5, 5).is_ok());
    }
}
