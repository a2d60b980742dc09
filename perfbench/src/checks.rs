//! Output checks. They run outside every timed region; a failed check
//! ends the run with a non-zero exit and no result line.

use fcdpm_runner::{execute, JobMetrics, JobSpec, PolicySpec, WorkloadSpec};

/// The paper's reference trace seed.
pub const PAPER_SEED: u64 = 0xDAC0_2007;

/// Table 2 of the paper: FC-DPM uses 30.8% of Conv-DPM's fuel.
pub const TABLE2_PERCENT: f64 = 30.8;

/// `expected` and `got` must be the same bytes.
pub fn same_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{what}: output differs from the control at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// The exact text of one job's result: every metric with all its
/// digits, or the error message.
pub fn outcome_text(result: &Result<JobMetrics, String>) -> String {
    format!("{result:?}")
}

/// Every job's result must be exactly the control's.
pub fn same_outcomes(what: &str, expected: &[String], got: &[String]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} results against {} in the control",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(job) => Err(format!(
            "{what}: job {job} differs from the control\n  control: {}\n  got:     {}",
            expected[job], got[job]
        )),
    }
}

/// The FC-DPM/Conv-DPM fuel ratio must round to Table 2's 30.8%.
pub fn table2_ratio(conv_fuel_as: f64, fcdpm_fuel_as: f64) -> Result<f64, String> {
    let percent = 100.0 * fcdpm_fuel_as / conv_fuel_as;
    if (percent * 10.0).round() == TABLE2_PERCENT * 10.0 {
        Ok(percent)
    } else {
        Err(format!(
            "FC-DPM uses {percent:.3}% of Conv-DPM's fuel on the paper seed; Table 2 says {TABLE2_PERCENT}%"
        ))
    }
}

/// Runs Conv-DPM and FC-DPM on Experiment 1 with the paper seed and
/// checks their fuel ratio against Table 2.
pub fn table2() -> Result<f64, String> {
    let fuel = |policy| {
        execute(&JobSpec::new(policy, WorkloadSpec::Experiment1(PAPER_SEED)))
            .map(|m| m.fuel_as)
            .map_err(|e| format!("paper-seed job failed: {e}"))
    };
    table2_ratio(fuel(PolicySpec::Conv)?, fuel(PolicySpec::FcDpm)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_check_passes_on_the_paper_seed_and_trips_on_a_wrong_ratio() {
        let percent = table2().expect("the seed commit reproduces Table 2");
        assert!((percent - 30.8).abs() < 0.05);
        assert!(table2_ratio(2535.8, 781.8).is_ok());
        assert!(table2_ratio(2535.8, 790.0).is_err());
        assert!(table2_ratio(2535.8, 2535.8 * 0.3085).is_err());
    }

    #[test]
    fn a_perturbed_job_metric_trips_the_outcome_check() {
        let job = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment2(7));
        let control = vec![outcome_text(&execute(&job))];
        assert!(same_outcomes("rerun", &control, &[outcome_text(&execute(&job))]).is_ok());
        let mut metrics = execute(&job).expect("runs");
        metrics.fuel_as = f64::from_bits(metrics.fuel_as.to_bits() + 1);
        let perturbed = vec![outcome_text(&Ok(metrics))];
        assert!(same_outcomes("perturbed", &control, &perturbed).is_err());
        assert!(same_outcomes("short", &control, &[]).is_err());
    }

    #[test]
    fn byte_check_reports_the_first_difference() {
        assert!(same_bytes("same", b"abc", b"abc").is_ok());
        let err = same_bytes("flip", b"abc", b"abd").expect_err("differs");
        assert!(err.contains("byte 2"), "{err}");
        assert!(same_bytes("short", b"abc", b"ab").is_err());
    }
}
