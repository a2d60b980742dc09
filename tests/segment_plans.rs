//! Property-based pins of the segment-plan contract on randomized
//! workloads.
//!
//! The fixed-trace suite in `tests/coalescing.rs` checks the reference
//! experiment; this one draws synthetic traces (and fault schedules) at
//! random and re-asserts the same guarantees case after case:
//!
//! * **Plan completeness** — every shipped policy integrates on the
//!   fast path with zero stepped chunks, whatever the workload.
//! * **Mode agreement** — the coalesced and per-chunk integrators
//!   drive the identical plan sequence (equal consultation counts) and
//!   agree on the accumulated physics to 1e-6, with and without an
//!   active fault schedule.
//! * **Control-step invariance** — the plan split points come from
//!   `time_to_soc`, not the chunk grid, so `deficit_time` and the
//!   other time-normalized metrics do not move with the control step.
//! * **Consultation budget** — a crossing plan ends once, where the
//!   state of charge really crosses, so no policy consults much more
//!   often than Conv-DPM on any storage model or fault schedule.

use fcdpm_faults::{
    EfficiencyFade, FaultEvent, FaultKind, FaultSchedule, FuelStarvation, SelfDischarge,
};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_runner::sweep::combined_schedule;
use fcdpm_runner::{execute, JobSpec, PolicySpec, StorageSpec, WorkloadSpec};
use fcdpm_sim::fixture::{run_reference_on, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_units::{CurrentRange, Seconds, Watts};
use fcdpm_workload::{Scenario, SyntheticTrace};
use proptest::prelude::*;

/// A randomized Experiment-2-style scenario: the synthetic uniform
/// workload with drawn slot-length and power distributions. Powers up
/// to 18 W (1.5 A at the 12 V bus) exceed the 1.2 A stack rail, so a
/// share of the cases brown out and exercise the deficit accounting.
fn random_scenario(seed: u64, idle_hi: f64, active_hi: f64, p_hi: f64, horizon: f64) -> Scenario {
    let mut scenario = Scenario::experiment2_seeded(seed);
    scenario.trace = SyntheticTrace::dac07()
        .seed(seed)
        .idle_range(Seconds::new(2.0), Seconds::new(idle_hi))
        .active_range(Seconds::new(1.0), Seconds::new(active_hi))
        .power_range(Watts::new(8.0), Watts::new(p_hi))
        .horizon(Seconds::new(horizon))
        .build();
    scenario
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
}

/// The same physics comparison as `tests/coalescing.rs`, as a
/// `Result` so property bodies can `?` it and report the failing
/// metric alongside the drawn inputs.
fn physics_match(a: &SimMetrics, b: &SimMetrics, label: &str) -> Result<(), String> {
    if a.slots != b.slots {
        return Err(format!("{label}: slots {} vs {}", a.slots, b.slots));
    }
    if a.sleeps != b.sleeps {
        return Err(format!("{label}: sleeps {} vs {}", a.sleeps, b.sleeps));
    }
    let pairs = [
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
            "fault_deficit_time",
            a.fault_deficit_time.seconds(),
            b.fault_deficit_time.seconds(),
        ),
        (
            "final_soc",
            a.final_soc.amp_seconds(),
            b.final_soc.amp_seconds(),
        ),
    ];
    for (name, x, y) in pairs {
        if !close(x, y) {
            return Err(format!("{label}: {name} diverged ({x} vs {y})"));
        }
    }
    Ok(())
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

proptest! {
    /// Every shipped policy plans every segment in closed form on
    /// arbitrary synthetic workloads: the fast path steps zero chunks,
    /// both integration modes consult the policy at exactly the same
    /// points, and the physics agree to 1e-6.
    #[test]
    fn coalesced_and_per_chunk_agree_on_random_traces(
        seed in 0u64..10_000,
        idle_hi in 4.0f64..30.0,
        active_hi in 1.5f64..8.0,
        p_hi in 10.0f64..18.0,
        horizon in 40.0f64..160.0,
    ) {
        let scenario = random_scenario(seed, idle_hi, active_hi, p_hi, horizon);
        for policy in ReferencePolicy::ALL {
            let fast_sim = HybridSimulator::dac07(&scenario.device);
            let fast = run_reference_on(&fast_sim, &scenario, policy)
                .map_err(|e| format!("{}: coalesced run failed: {e}", policy.label()))?;
            let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
            let slow = run_reference_on(&slow_sim, &scenario, policy)
                .map_err(|e| format!("{}: per-chunk run failed: {e}", policy.label()))?;
            prop_assert_eq!(
                fast.chunks_stepped, 0,
                "{} stepped chunks on the fast path", policy.label()
            );
            prop_assert_eq!(
                fast.policy_consultations, slow.policy_consultations,
                "{} consultation counts diverged", policy.label()
            );
            physics_match(&fast, &slow, policy.label())?;
        }
    }

    /// Mode agreement survives an active fault schedule: efficiency
    /// fade, a fuel-starvation window and a parasitic leak injected at
    /// drawn (deliberately off-grid) instants perturb both integration
    /// modes identically.
    #[test]
    fn plans_agree_under_random_fault_schedules(
        seed in 0u64..10_000,
        p_hi in 10.0f64..18.0,
        horizon in 80.0f64..200.0,
        fade_at in 5.0f64..40.0,
        alpha_scale in 0.7f64..1.0,
        beta_scale in 1.0f64..1.3,
        starve_at in 40.0f64..80.0,
        starve_len in 5.0f64..40.0,
        starve_max in 0.3f64..0.9,
        leak_at in 80.0f64..120.0,
        leak_a in 0.001f64..0.01,
    ) {
        let scenario = random_scenario(seed, 20.0, 5.0, p_hi, horizon);
        let schedule = FaultSchedule {
            seed,
            events: vec![
                FaultEvent {
                    at_s: fade_at,
                    kind: FaultKind::EfficiencyFade(EfficiencyFade { alpha_scale, beta_scale }),
                },
                FaultEvent {
                    at_s: starve_at,
                    kind: FaultKind::FuelStarvation(FuelStarvation {
                        until_s: starve_at + starve_len,
                        max_a: starve_max,
                    }),
                },
                FaultEvent {
                    at_s: leak_at,
                    kind: FaultKind::SelfDischarge(SelfDischarge { leak_a }),
                },
            ],
        };
        for policy in ReferencePolicy::ALL {
            let fast_sim =
                HybridSimulator::dac07(&scenario.device).with_faults(schedule.clone());
            let fast = run_reference_on(&fast_sim, &scenario, policy)
                .map_err(|e| format!("{}: coalesced run failed: {e}", policy.label()))?;
            let slow_sim = HybridSimulator::dac07(&scenario.device)
                .with_faults(schedule.clone())
                .without_coalescing();
            let slow = run_reference_on(&slow_sim, &scenario, policy)
                .map_err(|e| format!("{}: per-chunk run failed: {e}", policy.label()))?;
            prop_assert_eq!(
                fast.faults_applied, slow.faults_applied,
                "{} applied different fault counts", policy.label()
            );
            prop_assert_eq!(
                fast.policy_consultations, slow.policy_consultations,
                "{} consultation counts diverged under faults", policy.label()
            );
            physics_match(&fast, &slow, policy.label())?;
        }
    }

    /// On the fast path the control step only buys resolution for the
    /// per-chunk fallback that never runs: segment plans split at
    /// analytic SoC crossings, so `deficit_time` (and every other
    /// time-normalized metric) is invariant across a 10× step change
    /// for the piecewise and steady planners alike.
    #[test]
    fn deficit_time_is_control_step_invariant_on_random_traces(
        seed in 0u64..10_000,
        p_hi in 12.0f64..18.0,
        horizon in 40.0f64..160.0,
    ) {
        let scenario = random_scenario(seed, 15.0, 6.0, p_hi, horizon);
        for policy in [
            ReferencePolicy::Asap,
            ReferencePolicy::Windowed,
            ReferencePolicy::Quantized,
        ] {
            let reference_sim = sim_with_step(&scenario, 0.5);
            let reference = run_reference_on(&reference_sim, &scenario, policy)
                .map_err(|e| format!("{}: reference run failed: {e}", policy.label()))?;
            for step in [0.1, 1.0] {
                let sim = sim_with_step(&scenario, step);
                let m = run_reference_on(&sim, &scenario, policy)
                    .map_err(|e| format!("{}: run at {step} s failed: {e}", policy.label()))?;
                prop_assert_eq!(
                    m.chunks_stepped, 0,
                    "{} stepped chunks at {} s", policy.label(), step
                );
                physics_match(&m, &reference, &format!("{} @ {step} s", policy.label()))?;
            }
        }
    }
}

/// Policy consultations may exceed Conv-DPM's on the same trace,
/// storage and fault schedule by at most this factor. Conv consults
/// once per stretch and fault span; a crossing planner adds one
/// consultation per real threshold crossing on top. A crossing
/// projected past a rail the storage or a capacity fade enforces
/// never happens, and every such phantom costs a re-plan: with
/// projections that ignore the rails, ASAP reaches 1.8× Conv on a
/// faded ideal store and 3.5× on KiBaM over these jobs.
const CONSULTATION_BUDGET: f64 = 1.25;

/// Every shipped policy × {Ideal, SuperCapacitor, KiBaM} × {no faults,
/// Combined} on Experiments 1 and 2 and the DVS workload, over several
/// trace seeds, stays within [`CONSULTATION_BUDGET`] of Conv-DPM's
/// consultations on the same job. `fcdpm bench` gates only the
/// fault-free ideal camcorder run, which sees neither rail.
#[test]
fn consultations_stay_within_budget_across_storages_and_faults() {
    let policies = [
        PolicySpec::Asap,
        PolicySpec::FcDpm,
        PolicySpec::WindowedAverage,
        PolicySpec::Quantized(12),
    ];
    let workloads: [fn(u64) -> WorkloadSpec; 3] = [
        WorkloadSpec::Experiment1,
        WorkloadSpec::Experiment2,
        WorkloadSpec::Dvs,
    ];
    let consultations = |policy: &PolicySpec, base: &JobSpec, label: &str| -> u64 {
        let mut job = base.clone();
        job.policy = policy.clone();
        execute(&job)
            .unwrap_or_else(|e| panic!("{}/{label}: {e}", policy.label()))
            .policy_consultations
    };
    let mut over = Vec::new();
    for seed in [0xDAC0_2007, 7, 17, 201] {
        for workload in workloads {
            for storage in [
                StorageSpec::Ideal,
                StorageSpec::SuperCapacitor,
                StorageSpec::Kibam,
            ] {
                for faulted in [false, true] {
                    let mut base = JobSpec::new(PolicySpec::Conv, workload(seed));
                    base.storage = Some(storage.clone());
                    base.faults = faulted.then(|| combined_schedule(seed));
                    let label = format!(
                        "{}/{storage:?}/{}",
                        base.workload.label(),
                        if faulted { "combined" } else { "no faults" }
                    );
                    let conv = consultations(&PolicySpec::Conv, &base, &label);
                    for policy in &policies {
                        let n = consultations(policy, &base, &label);
                        if n as f64 > CONSULTATION_BUDGET * conv as f64 {
                            over.push(format!(
                                "{}/{label}: {n} consultations vs Conv's {conv} ({:.2}x)",
                                policy.label(),
                                n as f64 / conv as f64
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        over.is_empty(),
        "over the {CONSULTATION_BUDGET}x Conv budget:\n{}",
        over.join("\n")
    );
}
