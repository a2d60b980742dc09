//! Simulation over unstructured load profiles.
//!
//! [`HybridSimulator::run_profile`] drives an FC output policy over a
//! piecewise-constant [`LoadProfile`] with no slot structure — the
//! representation multi-device compositions produce. Policies that need
//! slot boundaries (FC-DPM) are not meaningful here; the load-following
//! and windowed-averaging policies are.
//!
//! A profile plays through the same plan loop as a slot trace: each
//! merged run of equal-load points is one constant-load stretch, planned
//! by [`FcOutputPolicy::begin_segment`] and integrated in closed form,
//! split at SoC crossings and fault boundaries exactly as
//! [`run`](HybridSimulator::run) splits a merged segment.

use fcdpm_core::policy::{FcOutputPolicy, PolicyPhase};
use fcdpm_faults::FaultState;
use fcdpm_storage::ChargeStorage;
use fcdpm_units::Seconds;
use fcdpm_workload::LoadProfile;

use crate::{HybridSimulator, SimError, SimMetrics, SimResult};

impl HybridSimulator<'_> {
    /// Runs `policy` over an unstructured load profile.
    ///
    /// Immediately following points with the same load merge into one
    /// stretch, integrated exactly as a merged slot segment in
    /// [`run`](Self::run) — closed-form plans, analytic crossing splits,
    /// and the attached fault schedule. Every stretch presents as
    /// [`PolicyPhase::Active`] since there is no slot structure to
    /// distinguish phases; predictor faults count as applied but have
    /// no predictor to act on.
    ///
    /// # Errors
    ///
    /// Propagates fuel-model errors.
    pub fn run_profile(
        &self,
        profile: &LoadProfile,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
    ) -> Result<SimResult, SimError> {
        let mut metrics = SimMetrics::new();
        let mut time = Seconds::ZERO;
        let mut faults = self.fault_schedule().map(FaultState::new);
        let mut points = profile
            .points()
            .iter()
            .filter(|p| p.duration > Seconds::ZERO)
            .peekable();
        while let Some(point) = points.next() {
            let mut duration = point.duration;
            while let Some(next) = points.next_if(|p| p.current == point.current) {
                duration += next.duration;
            }
            self.integrate_stretch(
                PolicyPhase::Active,
                point.current,
                duration,
                &mut time,
                policy,
                storage,
                &mut metrics,
                &mut faults,
                &mut None,
            )?;
        }
        Ok(Self::finish(metrics, policy, storage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_core::policy::{AsapDpm, ConvDpm, WindowedAverage};
    use fcdpm_device::presets;
    use fcdpm_storage::IdealStorage;
    use fcdpm_units::{Amps, Charge};
    use fcdpm_workload::LoadPoint;

    fn square_wave(cycles: usize) -> LoadProfile {
        let mut points = Vec::new();
        for _ in 0..cycles {
            points.push(LoadPoint {
                duration: Seconds::new(10.0),
                current: Amps::new(0.2),
            });
            points.push(LoadPoint {
                duration: Seconds::new(10.0),
                current: Amps::new(1.0),
            });
        }
        LoadProfile::new("square", points)
    }

    #[test]
    fn conv_fuel_matches_closed_form_on_profile() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(5);
        let mut storage = IdealStorage::new(Charge::new(1e6), Charge::new(5e5));
        let m = sim
            .run_profile(&profile, &mut ConvDpm::dac07(), &mut storage)
            .unwrap()
            .metrics;
        let expect = 1.3061 * profile.total_duration().seconds();
        assert!((m.fuel.total().amp_seconds() - expect).abs() < 0.1);
    }

    #[test]
    fn windowed_average_beats_following_on_square_wave() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(30);
        let cap = Charge::new(30.0);
        let run = |policy: &mut dyn FcOutputPolicy| {
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            sim.run_profile(&profile, policy, &mut storage)
                .unwrap()
                .metrics
        };
        let asap = run(&mut AsapDpm::dac07(cap));
        let windowed = run(&mut WindowedAverage::dac07());
        assert!(
            windowed.fuel.total() < asap.fuel.total(),
            "windowed {} ≥ asap {}",
            windowed.fuel.total(),
            asap.fuel.total()
        );
        // And no brownouts with an adequate buffer.
        assert!(windowed.deficit_charge.is_zero());
    }

    #[test]
    fn profile_run_conserves_charge() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(10);
        let cap = Charge::new(30.0);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let initial = storage.soc();
        let mut policy = WindowedAverage::dac07();
        let m = sim
            .run_profile(&profile, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        let lhs = m.delivered_charge.amp_seconds();
        let rhs = m.load_charge.amp_seconds()
            + (m.final_soc - initial).amp_seconds()
            + m.bled_charge.amp_seconds()
            - m.deficit_charge.amp_seconds();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn residual_float_chunk_is_absorbed() {
        // 0.7 s at a 0.1 s step: `remaining -= dt` leaves a ~2.8e-17 s
        // residual that used to become an eighth ghost chunk. The epsilon
        // floor folds it into the seventh. Only the per-chunk oracle
        // steps chunks, so that is where the floor lives.
        use fcdpm_fuelcell::LinearEfficiency;
        use fcdpm_units::CurrentRange;
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::new(
            &spec,
            Box::new(LinearEfficiency::dac07()),
            CurrentRange::dac07(),
            Seconds::new(0.1),
        )
        .unwrap()
        .without_coalescing();
        let profile = LoadProfile::new(
            "residual",
            vec![LoadPoint {
                duration: Seconds::new(0.7),
                current: Amps::new(0.4),
            }],
        );
        let cap = Charge::new(30.0);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut policy = AsapDpm::dac07(cap);
        let m = sim
            .run_profile(&profile, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        assert_eq!(m.chunks_stepped, 7, "ghost residual chunk leaked");
        assert!((m.duration().seconds() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn profile_fast_path_counters() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(5);
        let mut storage = IdealStorage::new(Charge::new(1e6), Charge::new(5e5));
        let m = sim
            .run_profile(&profile, &mut ConvDpm::dac07(), &mut storage)
            .unwrap()
            .metrics;
        // Ten 10 s points, each coalesced into one closed-form update of
        // twenty 0.5 s chunks' worth of work.
        assert_eq!(m.chunks_stepped, 0);
        assert_eq!(m.chunks_coalesced, 200);
        assert_eq!(m.policy_consultations, 10);
    }

    #[test]
    fn equal_load_points_merge_into_one_stretch() {
        // Three equal-load points (one of them empty) are one stretch: a
        // single plan consultation, as for a merged slot segment.
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let point = |s: f64| LoadPoint {
            duration: Seconds::new(s),
            current: Amps::new(0.6),
        };
        let profile = LoadProfile::new("flat", vec![point(3.0), point(0.0), point(4.5)]);
        let mut storage = IdealStorage::new(Charge::new(30.0), Charge::new(15.0));
        let m = sim
            .run_profile(&profile, &mut WindowedAverage::dac07(), &mut storage)
            .unwrap()
            .metrics;
        assert_eq!(m.policy_consultations, 1);
        assert_eq!(m.chunks_stepped, 0);
        assert_eq!(m.chunks_coalesced, 15);
    }

    #[test]
    fn fault_schedule_applies_to_profiles() {
        use fcdpm_faults::{FaultEvent, FaultKind, FaultSchedule, FuelStarvation};
        let spec = presets::dvd_camcorder();
        let schedule = FaultSchedule {
            seed: 1,
            events: vec![FaultEvent {
                at_s: 35.0,
                kind: FaultKind::FuelStarvation(FuelStarvation {
                    until_s: 1e9,
                    max_a: 0.15,
                }),
            }],
        };
        let profile = square_wave(10);
        let run = |sim: HybridSimulator<'_>| {
            let mut storage = IdealStorage::new(Charge::new(30.0), Charge::new(15.0));
            sim.run_profile(&profile, &mut ConvDpm::dac07(), &mut storage)
                .unwrap()
                .metrics
        };
        let nominal = run(HybridSimulator::dac07(&spec));
        let starved = run(HybridSimulator::dac07(&spec).with_faults(schedule));
        assert_eq!(starved.faults_applied, 1);
        // The starvation edge at 35 s splits the fourth point's stretch.
        assert_eq!(
            starved.policy_consultations,
            nominal.policy_consultations + 1
        );
        assert!(starved.delivered_charge < nominal.delivered_charge);
        assert!(starved.fault_deficit_time > Seconds::ZERO);
    }
}
