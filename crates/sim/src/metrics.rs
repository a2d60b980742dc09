//! Simulation metrics.

use core::fmt;

use fcdpm_fuelcell::FuelGauge;
use fcdpm_units::{Amps, Charge, Seconds};

/// Aggregate results of one simulation run.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize)]
pub struct SimMetrics {
    /// Fuel consumption (`∫ I_fc dt`) and elapsed time.
    pub fuel: FuelGauge,
    /// Total charge drawn by the load.
    pub load_charge: Charge,
    /// Total charge delivered by the FC system (`∫ I_F dt`).
    pub delivered_charge: Charge,
    /// Charge dissipated through the bleeder by-pass (storage overflow).
    pub bled_charge: Charge,
    /// Unmet load charge (brownouts).
    pub deficit_charge: Charge,
    /// Total wall-clock time the load spent browned out.
    ///
    /// Unlike the chunk count it replaces, this is invariant under the
    /// control-step length and under chunk coalescing: within each
    /// integration step the brownout duration is apportioned as
    /// `dt · deficit / (deficit + discharged)`.
    pub deficit_time: Seconds,
    /// Number of slots in which the DPM layer slept.
    pub sleeps: usize,
    /// Number of slots simulated.
    pub slots: usize,
    /// Accumulated task latency from wake-up/start-up transitions.
    pub task_latency: Seconds,
    /// Storage state of charge at the end of the run.
    pub final_soc: Charge,
    /// Work counter: control chunks integrated one at a time.
    pub chunks_stepped: u64,
    /// Work counter: control chunks subsumed by coalesced segments
    /// (the chunks the fast path did *not* have to step).
    pub chunks_coalesced: u64,
    /// Work counter: policy consultations (`steady_current` hints plus
    /// `segment_current` calls).
    pub policy_consultations: u64,
    /// Fault events applied during the run (zero without an attached
    /// [`FaultSchedule`](fcdpm_faults::FaultSchedule)).
    pub faults_applied: u64,
    /// Downward degradation-ladder transitions the FC policy reported
    /// (zero for ordinary, non-resilient policies).
    pub degradations: u64,
    /// Wall-clock time the FC policy spent in a degraded fallback mode.
    pub time_in_fallback: Seconds,
    /// The portion of [`deficit_time`](Self::deficit_time) accrued while
    /// at least one injected fault was shaping the physics.
    pub fault_deficit_time: Seconds,
}

impl SimMetrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total wall-clock duration of the run.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.fuel.elapsed()
    }

    /// Mean FC system output current over the run.
    #[must_use]
    pub fn mean_output_current(&self) -> Amps {
        if self.duration().is_zero() {
            Amps::ZERO
        } else {
            self.delivered_charge / self.duration()
        }
    }

    /// Mean stack current (the fuel-consumption rate).
    #[must_use]
    pub fn mean_stack_current(&self) -> Amps {
        self.fuel.mean_stack_current()
    }

    /// This run's fuel as a fraction of `baseline`'s (the paper's
    /// normalized-fuel tables). Durations are normalized out so runs of
    /// slightly different wall-clock lengths compare fairly.
    ///
    /// # Panics
    ///
    /// Panics if either run has zero duration or the baseline consumed no
    /// fuel.
    #[must_use]
    #[track_caller]
    pub fn normalized_fuel(&self, baseline: &Self) -> f64 {
        assert!(
            !self.duration().is_zero() && !baseline.duration().is_zero(),
            "cannot normalize zero-duration runs"
        );
        let own_rate = self.fuel.total().amp_seconds() / self.duration().seconds();
        let base_rate = baseline.fuel.total().amp_seconds() / baseline.duration().seconds();
        assert!(base_rate > 0.0, "baseline consumed no fuel");
        own_rate / base_rate
    }

    /// Lifetime extension over `other` for the same fuel tank: lifetime is
    /// inversely proportional to the fuel rate, so this is
    /// `other_rate / own_rate` (the paper's 1.32× for FC-DPM vs
    /// ASAP-DPM).
    ///
    /// # Panics
    ///
    /// Panics if either run has zero duration or this run consumed no
    /// fuel.
    #[must_use]
    #[track_caller]
    pub fn lifetime_extension_over(&self, other: &Self) -> f64 {
        1.0 / self.normalized_fuel(other)
    }

    /// Fraction of load charge that went unserved.
    #[must_use]
    pub fn brownout_fraction(&self) -> f64 {
        if self.load_charge.is_zero() {
            0.0
        } else {
            self.deficit_charge / self.load_charge
        }
    }

    /// True when the run completed without bleeding or brownouts.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bled_charge.is_zero() && self.deficit_charge.is_zero()
    }

    /// A copy with the work counters (`chunks_stepped`,
    /// `chunks_coalesced`, `policy_consultations`) zeroed.
    ///
    /// The counters describe *how* a run was integrated, not *what* it
    /// computed, so they legitimately differ between the coalesced and
    /// per-chunk paths. Comparisons that care about the physics — the
    /// cross-path determinism suite, for one — compare
    /// `a.without_work_counters()` against `b.without_work_counters()`.
    #[must_use]
    pub fn without_work_counters(&self) -> Self {
        Self {
            chunks_stepped: 0,
            chunks_coalesced: 0,
            policy_consultations: 0,
            ..self.clone()
        }
    }
}

// Deserialization is hand-written (the vendored derive has no
// attribute support) so manifests predating the work and fault-injection
// counters read back with those counters zeroed. Manifests carrying only
// the retired `deficit_chunks` count are rejected outright: the chunk
// count scaled with the control step, so no faithful `deficit_time` can
// be recovered from it, and its two-release migration window has closed.
impl serde::Deserialize for SimMetrics {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        use serde::de::field_or_missing;
        let (mut fuel, mut load_charge, mut delivered_charge) = (None, None, None);
        let (mut bled_charge, mut deficit_charge, mut task_latency) = (None, None, None);
        let (mut sleeps, mut slots, mut final_soc) = (None, None, None);
        // Optional: absent (or null) in older manifests.
        let mut deficit_time: Option<Option<Seconds>> = None;
        let mut deficit_chunks: Option<Option<u64>> = None;
        let mut counters: [Option<Option<u64>>; 5] = [None; 5];
        let mut fault_times: [Option<Option<Seconds>>; 2] = [None; 2];
        de.begin_object()?;
        while let Some(key) = de.next_key()? {
            match &*key {
                "fuel" => de.field(&mut fuel, "fuel")?,
                "load_charge" => de.field(&mut load_charge, "load_charge")?,
                "delivered_charge" => de.field(&mut delivered_charge, "delivered_charge")?,
                "bled_charge" => de.field(&mut bled_charge, "bled_charge")?,
                "deficit_charge" => de.field(&mut deficit_charge, "deficit_charge")?,
                "deficit_time" => de.field(&mut deficit_time, "deficit_time")?,
                "deficit_chunks" => de.field(&mut deficit_chunks, "deficit_chunks")?,
                "sleeps" => de.field(&mut sleeps, "sleeps")?,
                "slots" => de.field(&mut slots, "slots")?,
                "task_latency" => de.field(&mut task_latency, "task_latency")?,
                "final_soc" => de.field(&mut final_soc, "final_soc")?,
                "chunks_stepped" => de.field(&mut counters[0], "chunks_stepped")?,
                "chunks_coalesced" => de.field(&mut counters[1], "chunks_coalesced")?,
                "policy_consultations" => de.field(&mut counters[2], "policy_consultations")?,
                "faults_applied" => de.field(&mut counters[3], "faults_applied")?,
                "degradations" => de.field(&mut counters[4], "degradations")?,
                "time_in_fallback" => de.field(&mut fault_times[0], "time_in_fallback")?,
                "fault_deficit_time" => de.field(&mut fault_times[1], "fault_deficit_time")?,
                _ => de.skip_value()?,
            }
        }
        let deficit_time = match deficit_time.flatten() {
            Some(t) => t,
            None if deficit_chunks.flatten().is_some() => {
                return Err(serde::Error::custom(
                    "SimMetrics: the `deficit_chunks` schema was retired — the chunk \
                     count scaled with the control step and cannot be converted to \
                     `deficit_time`; regenerate the manifest with a current build",
                ));
            }
            None => Seconds::ZERO,
        };
        let [chunks_stepped, chunks_coalesced, policy_consultations, faults_applied, degradations] =
            counters.map(|c| c.flatten().unwrap_or(0));
        let [time_in_fallback, fault_deficit_time] =
            fault_times.map(|t| t.flatten().unwrap_or(Seconds::ZERO));
        Ok(Self {
            fuel: field_or_missing(fuel, "fuel")?,
            load_charge: field_or_missing(load_charge, "load_charge")?,
            delivered_charge: field_or_missing(delivered_charge, "delivered_charge")?,
            bled_charge: field_or_missing(bled_charge, "bled_charge")?,
            deficit_charge: field_or_missing(deficit_charge, "deficit_charge")?,
            deficit_time,
            sleeps: field_or_missing(sleeps, "sleeps")?,
            slots: field_or_missing(slots, "slots")?,
            task_latency: field_or_missing(task_latency, "task_latency")?,
            final_soc: field_or_missing(final_soc, "final_soc")?,
            // Absent in pre-coalescing manifests: zero work recorded.
            chunks_stepped,
            chunks_coalesced,
            policy_consultations,
            // Absent in pre-fault-injection manifests: nothing injected.
            faults_applied,
            degradations,
            time_in_fallback,
            fault_deficit_time,
        })
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuel {:.1} over {:.1} min (mean I_fc {:.4})",
            self.fuel.total(),
            self.duration().minutes(),
            self.mean_stack_current()
        )?;
        writeln!(
            f,
            "delivered {:.1}, load {:.1}, bled {:.2}, deficit {:.3}",
            self.delivered_charge, self.load_charge, self.bled_charge, self.deficit_charge
        )?;
        write!(
            f,
            "slots {}, sleeps {}, task latency {:.1}, final SoC {:.2}",
            self.slots, self.sleeps, self.task_latency, self.final_soc
        )?;
        if self.faults_applied > 0 {
            write!(
                f,
                "\nfaults {}, degradations {}, fallback {:.1}, deficit under fault {:.3}",
                self.faults_applied,
                self.degradations,
                self.time_in_fallback,
                self.fault_deficit_time
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(fuel_amps: f64, secs: f64) -> SimMetrics {
        let mut m = SimMetrics::new();
        m.fuel.consume(Amps::new(fuel_amps), Seconds::new(secs));
        m
    }

    #[test]
    fn normalization_is_rate_based() {
        let a = metrics_with(0.4, 100.0);
        let b = metrics_with(1.3, 200.0); // longer run, higher rate
        let norm = a.normalized_fuel(&b);
        assert!((norm - 0.4 / 1.3).abs() < 1e-12);
    }

    #[test]
    fn lifetime_extension_is_inverse() {
        let fc = metrics_with(0.308, 100.0);
        let asap = metrics_with(0.408, 100.0);
        let ext = fc.lifetime_extension_over(&asap);
        assert!((ext - 0.408 / 0.308).abs() < 1e-12);
        assert!((ext - 1.32).abs() < 0.01); // the paper's headline
    }

    #[test]
    fn brownout_fraction() {
        let mut m = metrics_with(1.0, 10.0);
        m.load_charge = Charge::new(10.0);
        m.deficit_charge = Charge::new(1.0);
        assert!((m.brownout_fraction() - 0.1).abs() < 1e-12);
        assert!(!m.is_clean());
        assert_eq!(SimMetrics::new().brownout_fraction(), 0.0);
    }

    #[test]
    fn mean_currents() {
        let mut m = metrics_with(0.5, 10.0);
        m.delivered_charge = Charge::new(6.0);
        assert!((m.mean_output_current().amps() - 0.6).abs() < 1e-12);
        assert!((m.mean_stack_current().amps() - 0.5).abs() < 1e-12);
        assert_eq!(SimMetrics::new().mean_output_current(), Amps::ZERO);
    }

    #[test]
    fn display_renders_summary() {
        let mut m = metrics_with(0.4, 60.0);
        m.slots = 3;
        m.sleeps = 2;
        let text = m.to_string();
        assert!(text.contains("mean I_fc 0.4000"));
        assert!(text.contains("slots 3, sleeps 2"));
    }

    #[test]
    #[should_panic(expected = "zero-duration")]
    fn zero_duration_normalization_panics() {
        let a = SimMetrics::new();
        let b = metrics_with(1.0, 1.0);
        let _ = a.normalized_fuel(&b);
    }

    #[test]
    fn serde_round_trip_preserves_all_fields() {
        let mut m = metrics_with(0.4, 60.0);
        m.load_charge = Charge::new(20.0);
        m.delivered_charge = Charge::new(24.0);
        m.bled_charge = Charge::new(1.0);
        m.deficit_charge = Charge::new(0.5);
        m.deficit_time = Seconds::new(1.25);
        m.sleeps = 2;
        m.slots = 3;
        m.task_latency = Seconds::new(4.5);
        m.final_soc = Charge::new(3.0);
        m.chunks_stepped = 120;
        m.chunks_coalesced = 480;
        m.policy_consultations = 126;
        m.faults_applied = 3;
        m.degradations = 2;
        m.time_in_fallback = Seconds::new(42.0);
        m.fault_deficit_time = Seconds::new(0.5);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: SimMetrics = serde_json::from_str(&json).expect("round trip");
        assert_eq!(m, back);
    }

    /// `m`'s JSON with the top-level keys `drop` removed and the raw
    /// `key: value` entries of `add` appended.
    fn edited_json(m: &SimMetrics, drop: &[&str], add: &[&str]) -> String {
        let json = serde_json::to_string(m).expect("serializes");
        let doc: serde_json::Value = serde_json::from_str(&json).expect("parses");
        let serde_json::Value::Map(map) = doc else {
            panic!("expected an object");
        };
        let mut entries: Vec<String> = map
            .iter()
            .filter(|(k, _)| !drop.contains(&k.as_str()))
            .map(|(k, v)| format!("{k:?}:{}", serde_json::to_string(v).expect("serializes")))
            .collect();
        entries.extend(add.iter().map(|e| (*e).to_owned()));
        format!("{{{}}}", entries.join(","))
    }

    #[test]
    fn serde_no_longer_emits_deficit_chunks_alias() {
        // The retired field must never reappear on the writer side.
        let mut m = SimMetrics::new();
        m.deficit_time = Seconds::new(1.25);
        let json = serde_json::to_string(&m).expect("serializes");
        assert!(!json.contains("deficit_chunks"), "{json}");
        assert!(json.contains(r#""deficit_time":1.25"#), "{json}");
    }

    #[test]
    fn serde_rejects_retired_deficit_chunks_manifests() {
        // A pre-deficit_time manifest carrying only the retired chunk
        // count: the count scaled with the control step, so rather than
        // guess a conversion the reader refuses with a clear error.
        let mut m = SimMetrics::new();
        m.fuel.consume(Amps::new(1.0), Seconds::new(10.0));
        let legacy = edited_json(&m, &["deficit_time"], &[r#""deficit_chunks":4"#]);
        let err = serde_json::from_str::<SimMetrics>(&legacy).expect_err("legacy schema");
        let msg = err.to_string();
        assert!(msg.contains("deficit_chunks"), "{msg}");
        assert!(msg.contains("regenerate"), "{msg}");
    }

    #[test]
    fn serde_defaults_optional_counters_when_absent() {
        // Manifests predating the work/fault counters (but written after
        // `deficit_time` replaced the chunk count) still read back, with
        // the missing counters zeroed.
        let mut m = SimMetrics::new();
        m.fuel.consume(Amps::new(1.0), Seconds::new(10.0));
        m.deficit_time = Seconds::new(2.0);
        let old = edited_json(
            &m,
            &[
                "chunks_stepped",
                "chunks_coalesced",
                "policy_consultations",
                "faults_applied",
                "degradations",
                "time_in_fallback",
                "fault_deficit_time",
            ],
            &[],
        );
        let back: SimMetrics = serde_json::from_str(&old).expect("pre-counter manifest");
        assert_eq!(back.deficit_time, Seconds::new(2.0));
        assert_eq!(back.chunks_stepped, 0);
        assert_eq!(back.chunks_coalesced, 0);
        assert_eq!(back.policy_consultations, 0);
        assert_eq!(back.faults_applied, 0);
        assert_eq!(back.degradations, 0);
        assert_eq!(back.time_in_fallback, Seconds::ZERO);
        assert_eq!(back.fault_deficit_time, Seconds::ZERO);
    }

    #[test]
    fn serde_still_requires_the_core_fields() {
        let m = SimMetrics::new();
        let err = serde_json::from_str::<SimMetrics>(&edited_json(&m, &["slots"], &[]))
            .expect_err("slots is required");
        assert_eq!(err.to_string(), "missing field `slots`");
        // Unknown keys are skipped; a null counter reads as zero.
        let json = edited_json(&m, &["sleeps"], &[r#""sleeps":5"#, r#""future":[{}]"#]);
        let json = json.replace(r#""degradations":0"#, r#""degradations":null"#);
        let back: SimMetrics = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.sleeps, 5);
        assert_eq!(back.degradations, 0);
    }

    #[test]
    fn without_work_counters_zeroes_only_the_counters() {
        let mut m = metrics_with(0.4, 60.0);
        m.deficit_time = Seconds::new(0.75);
        m.chunks_stepped = 10;
        m.chunks_coalesced = 20;
        m.policy_consultations = 11;
        let stripped = m.without_work_counters();
        assert_eq!(stripped.chunks_stepped, 0);
        assert_eq!(stripped.chunks_coalesced, 0);
        assert_eq!(stripped.policy_consultations, 0);
        assert_eq!(stripped.deficit_time, m.deficit_time);
        assert_eq!(stripped.fuel, m.fuel);
    }
}
