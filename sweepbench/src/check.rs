//! Failure accounting, determinism checks and order statistics.

use dlp_common::SimStats;
use dlp_core::{CellOutcome, SweepReport};

/// Attempted and failed cells. A cell fails when it is `Failed`,
/// `Skipped`, or `Ran` with a mismatch; a failed cell is counted, never
/// fatal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, outcome: &CellOutcome) {
        self.attempted += 1;
        if !outcome.verified() {
            self.failed += 1;
        }
    }

    pub fn add_report(&mut self, report: &SweepReport) {
        for cell in &report.cells {
            self.add(&cell.outcome);
        }
    }
}

/// The cells of `report` that did not verify, as `kernel/config` names.
pub fn unverified(report: &SweepReport) -> Vec<String> {
    report
        .cells
        .iter()
        .filter(|c| !c.outcome.verified())
        .map(|c| format!("{}/{}", c.kernel, c.config))
        .collect()
}

/// Records every failed determinism check instead of aborting on it.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// `got` must equal the canonical report `want` byte for byte.
    pub fn same_canonical(&mut self, want: &str, got: &str, what: &str) {
        self.require(want == got, || format!("canonical report differs: {what}"));
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Simulated statistics summed over every cell that ran.
pub fn simulated_totals(report: &SweepReport) -> SimStats {
    let mut total = SimStats::new();
    for stats in report.cells.iter().filter_map(|c| c.outcome.stats()) {
        total += *stats;
    }
    total
}

/// The `q` quantile (0..=1) of `xs` by linear interpolation between
/// order statistics. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ran(mismatch: Option<usize>) -> CellOutcome {
        CellOutcome::Ran {
            stats: SimStats::new(),
            mismatch,
        }
    }

    #[test]
    fn every_non_verified_outcome_is_a_failed_attempt() {
        let outcomes = [
            ran(None),
            ran(Some(3)),
            CellOutcome::Failed {
                error: "watchdog".into(),
                kind: "watchdog".into(),
                attempts: 1,
                timed_out: false,
            },
            CellOutcome::Skipped {
                reason: "breaker".into(),
                failures: 2,
            },
            ran(None),
        ];
        let mut tally = Tally::default();
        for o in &outcomes {
            tally.add(o);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }

    #[test]
    fn a_failed_check_is_recorded_not_fatal() {
        let mut checks = Checks::default();
        checks.same_canonical("a", "a", "equal");
        assert!(checks.ok());
        checks.same_canonical("a", "b", "differs");
        checks.require(true, || unreachable!());
        assert_eq!(checks.failures.len(), 1);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
