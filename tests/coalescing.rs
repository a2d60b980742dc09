//! Cross-step determinism of the chunk-coalescing fast path.
//!
//! Two families of guarantees:
//!
//! * **Coalesced vs per-chunk** — for every reference policy and
//!   storage model, with and without faults, the
//!   closed-form fast path and the per-chunk loop drive the identical
//!   segment-plan sequence and agree on all counts exactly and on
//!   accumulated physics to tolerance. Every shipped policy plans in
//!   closed form now (`begin_segment`), so the fast path steps zero
//!   chunks across the board — ASAP-DPM's recharge trigger included,
//!   via its analytic SoC-crossing plan.
//! * **Control-step invariance** — time-normalized metrics
//!   (`deficit_time` foremost, the bug this suite pins) do not scale
//!   with the chunk size, while the per-chunk work counters do.
//!
//! Unstructured load profiles (the multi-device workload) play through
//! the same plan loop, so the first guarantee is also checked over
//! random profiles.

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::policy::{AsapDpm, ConvDpm, FcOutputPolicy, PolicyPhase, WindowedAverage};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_runner::sweep::combined_schedule;
use fcdpm_sim::fixture::{run_reference, run_reference_on, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_storage::{ChargeStorage, IdealStorage, KineticBattery, SuperCapacitor};
use fcdpm_units::{Amps, Charge, CurrentRange, Seconds, Volts};
use fcdpm_workload::{LoadPoint, LoadProfile, Scenario};
use proptest::prelude::*;

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
}

/// The first accumulated quantity on which two runs disagree beyond
/// 1e-6 (relative), if any.
fn physics_mismatch(a: &SimMetrics, b: &SimMetrics) -> Option<String> {
    [
        (
            "fuel",
            a.fuel.total().amp_seconds(),
            b.fuel.total().amp_seconds(),
        ),
        (
            "delivered",
            a.delivered_charge.amp_seconds(),
            b.delivered_charge.amp_seconds(),
        ),
        (
            "load",
            a.load_charge.amp_seconds(),
            b.load_charge.amp_seconds(),
        ),
        (
            "bled",
            a.bled_charge.amp_seconds(),
            b.bled_charge.amp_seconds(),
        ),
        (
            "deficit",
            a.deficit_charge.amp_seconds(),
            b.deficit_charge.amp_seconds(),
        ),
        (
            "deficit_time",
            a.deficit_time.seconds(),
            b.deficit_time.seconds(),
        ),
        (
            "final_soc",
            a.final_soc.amp_seconds(),
            b.final_soc.amp_seconds(),
        ),
    ]
    .into_iter()
    .find(|&(_, x, y)| !close(x, y))
    .map(|(name, x, y)| format!("{name} diverged ({x} vs {y})"))
}

fn assert_physics_match(a: &SimMetrics, b: &SimMetrics, label: &str) {
    assert_eq!(a.slots, b.slots, "{label}: slots");
    assert_eq!(a.sleeps, b.sleeps, "{label}: sleeps");
    if let Some(mismatch) = physics_mismatch(a, b) {
        panic!("{label}: {mismatch}");
    }
}

fn sim_with_step(scenario: &Scenario, step: f64) -> HybridSimulator<'_> {
    HybridSimulator::new(
        &scenario.device,
        Box::new(LinearEfficiency::dac07()),
        CurrentRange::dac07(),
        Seconds::new(step),
    )
    .expect("valid simulator configuration")
}

#[test]
fn coalesced_and_per_chunk_agree_for_every_policy() {
    // Over every storage model, with and without faults: KiBaM's emptied
    // available well and a faded capacity behave the same whether a
    // phase is stepped or integrated whole.
    let scenario = Scenario::experiment1();
    let capacity = fcdpm_sim::fixture::reference_capacity();
    for policy in ReferencePolicy::ALL {
        for storage in 0..3 {
            for faulted in [false, true] {
                let run = |sim: HybridSimulator<'_>| {
                    let sim = if faulted {
                        sim.with_faults(combined_schedule(3))
                    } else {
                        sim
                    };
                    let mut storage = storage_model(storage, capacity);
                    let mut sleep = PredictiveSleep::new(scenario.rho);
                    let mut policy = policy.build(&scenario);
                    sim.run(
                        &scenario.trace,
                        &mut sleep,
                        policy.as_mut(),
                        storage.as_mut(),
                    )
                    .expect("runs")
                    .metrics
                };
                let fast = run(HybridSimulator::dac07(&scenario.device));
                let slow = run(HybridSimulator::dac07(&scenario.device).without_coalescing());
                let label = format!("{}, storage {storage}, faulted {faulted}", policy.label());
                assert_physics_match(&fast, &slow, &label);
                // Every shipped policy plans in closed form: the fast path
                // never steps a chunk, the per-chunk path never coalesces
                // one.
                assert_eq!(fast.chunks_stepped, 0, "{label}");
                assert_eq!(slow.chunks_coalesced, 0, "{label}");
            }
        }
    }
}

#[test]
fn piecewise_plan_drives_both_paths_identically() {
    // ASAP-DPM's trigger state machine is carried by its piecewise plan:
    // both integration modes consult `begin_segment` at the same points
    // and split at the same analytic SoC crossings, so the consultation
    // counts match exactly and the physics agree to tolerance.
    let scenario = Scenario::experiment1();
    let fast = run_reference(&scenario, ReferencePolicy::Asap).expect("coalesced run");
    let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
    let slow = run_reference_on(&slow_sim, &scenario, ReferencePolicy::Asap).expect("per-chunk");
    assert_eq!(fast.chunks_stepped, 0);
    assert!(fast.chunks_coalesced > 0);
    assert_eq!(fast.policy_consultations, slow.policy_consultations);
    assert_physics_match(&fast, &slow, "asap");
}

#[test]
fn coalesced_metrics_are_control_step_invariant() {
    // Segment plans are independent of the chunk size — steady plans
    // trivially, crossing plans because the split point comes from
    // `time_to_soc`, not the chunk grid — so on the fast path the
    // control step can only show up in the work counters.
    let scenario = Scenario::experiment1();
    for policy in ReferencePolicy::ALL {
        let reference = run_reference(&scenario, policy).expect("reference");
        for step in [0.1, 1.0] {
            let sim = sim_with_step(&scenario, step);
            let m = run_reference_on(&sim, &scenario, policy).expect("runs");
            assert_physics_match(&m, &reference, &format!("{} @ {step} s", policy.label()));
        }
    }
}

#[test]
fn per_chunk_metrics_are_control_step_invariant() {
    let scenario = Scenario::experiment1();
    let run_at = |step: f64| {
        let sim = sim_with_step(&scenario, step).without_coalescing();
        run_reference_on(&sim, &scenario, ReferencePolicy::Conv).expect("runs")
    };
    let reference = run_at(0.5);
    for step in [0.1, 1.0] {
        let m = run_at(step);
        assert_physics_match(&m, &reference, &format!("per-chunk conv @ {step} s"));
        // The work counters are the step-dependent part.
        assert!(
            (step < 0.5) == (m.chunks_stepped > reference.chunks_stepped),
            "chunk count should scale with 1/step"
        );
    }
}

#[test]
fn deficit_time_does_not_scale_with_the_control_step() {
    // The camcorder's active load (14.65 W / 12 V ≈ 1.221 A) exceeds the
    // 1.2 A stack maximum, so with a near-empty buffer Conv browns out
    // for real stretches. The legacy `deficit_chunks` counter scaled 5×
    // between 0.1 s and 0.5 s chunks; `deficit_time` must not.
    let scenario = Scenario::experiment1();
    let deficit_at = |step: f64| {
        let sim = sim_with_step(&scenario, step).without_coalescing();
        let tiny = Charge::new(0.05);
        let mut storage = IdealStorage::new(tiny, Charge::ZERO);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut policy = ConvDpm::dac07();
        sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
            .expect("runs")
            .metrics
            .deficit_time
            .seconds()
    };
    let coarse = deficit_at(0.5);
    assert!(coarse > 1.0, "fixture should brown out, got {coarse} s");
    for step in [0.1, 1.0] {
        let other = deficit_at(step);
        let ratio = other / coarse;
        assert!(
            (0.95..1.05).contains(&ratio),
            "deficit_time scaled with the step: {other} s @ {step} s vs {coarse} s @ 0.5 s"
        );
    }
}

/// A fixed setpoint, as the runner's `Constant` policy spec holds it.
#[derive(Debug)]
struct Constant(Amps);

impl FcOutputPolicy for Constant {
    fn name(&self) -> &str {
        "Constant"
    }

    fn segment_current(&mut self, _phase: PolicyPhase, _load: Amps, _soc: Charge) -> Amps {
        self.0
    }

    fn steady_current(&self, _phase: PolicyPhase, _load: Amps, _soc: Charge) -> Option<Amps> {
        Some(self.0)
    }
}

fn profile_policy(index: usize, capacity: Charge) -> Box<dyn FcOutputPolicy> {
    match index {
        0 => Box::new(ConvDpm::dac07()),
        1 => Box::new(AsapDpm::dac07(capacity)),
        2 => Box::new(WindowedAverage::dac07()),
        _ => Box::new(Constant(Amps::new(0.6))),
    }
}

/// The runner's three storage models, half charged.
fn storage_model(index: usize, capacity: Charge) -> Box<dyn ChargeStorage> {
    let initial = capacity * 0.5;
    match index {
        0 => Box::new(IdealStorage::new(capacity, initial)),
        1 => Box::new(SuperCapacitor::new(
            capacity.amp_seconds() / 6.0,
            Volts::new(6.0),
            Volts::new(12.0),
            0.0,
            initial,
        )),
        _ => Box::new(KineticBattery::new(capacity, 0.5, 0.3, 0.01)),
    }
}

proptest! {
    #[test]
    fn profile_runs_agree_with_the_per_chunk_oracle(
        points in prop::collection::vec((0.05f64..160.0, 0.0f64..1.8), 1..16),
        capacity_as in 2.0f64..40.0,
        seed in 0u64..1_000_000,
    ) {
        let profile = LoadProfile::new(
            "random",
            points
                .iter()
                .map(|&(duration, current)| LoadPoint {
                    duration: Seconds::new(duration),
                    current: Amps::new(current),
                })
                .collect(),
        );
        let device = fcdpm_device::presets::dvd_camcorder();
        let capacity = Charge::new(capacity_as);
        for faulted in [false, true] {
            let sim = || {
                let sim = HybridSimulator::dac07(&device);
                if faulted {
                    sim.with_faults(combined_schedule(seed))
                } else {
                    sim
                }
            };
            for policy in 0..4 {
                for storage in 0..3 {
                    let run = |sim: HybridSimulator<'_>| {
                        let mut policy = profile_policy(policy, capacity);
                        let mut storage = storage_model(storage, capacity);
                        sim.run_profile(&profile, policy.as_mut(), storage.as_mut())
                            .expect("profile runs")
                            .metrics
                    };
                    let fast = run(sim());
                    let slow = run(sim().without_coalescing());
                    let label = format!("policy {policy}, storage {storage}, faulted {faulted}");
                    prop_assert_eq!(fast.chunks_stepped, 0, "{}", label);
                    prop_assert_eq!(fast.faults_applied, slow.faults_applied, "{}", label);
                    let mismatch = physics_mismatch(&fast, &slow);
                    prop_assert!(mismatch.is_none(), "{}: {:?}", label, mismatch);
                }
            }
        }
    }
}
