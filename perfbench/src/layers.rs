//! The simulator stack's primitives and reference runs, traced in every
//! traced run: they do not depend on the workload, so each traced run
//! reports them.

use std::hint::black_box;

use fcdpm_core::optimizer::{FuelOptimizer, Overhead, SlotProfile, StorageContext};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_sim::fixture::{run_reference, ReferencePolicy};
use fcdpm_storage::{ChargeStorage, KineticBattery};
use fcdpm_units::{Amps, Charge, Seconds};
use fcdpm_workload::Scenario;

use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;

/// Spans per primitive; each span times `BATCH` calls, since one call
/// takes less time than reading the clock.
const SPANS: usize = 15;
const BATCH: u64 = 4000;

/// Reference-trace runs per policy, and seeded scenarios per experiment.
const RUNS: usize = 20;

/// `(metric, span name, policy)` of each reference-trace policy run.
const REFERENCE_RUNS: [(&str, &str, ReferencePolicy); 5] = [
    ("sim.run_us.conv", "sim.run.conv", ReferencePolicy::Conv),
    ("sim.run_us.asap", "sim.run.asap", ReferencePolicy::Asap),
    ("sim.run_us.fcdpm", "sim.run.fcdpm", ReferencePolicy::FcDpm),
    (
        "sim.run_us.windowed",
        "sim.run.windowed",
        ReferencePolicy::Windowed,
    ),
    (
        "sim.run_us.quantized12",
        "sim.run.quantized12",
        ReferencePolicy::Quantized,
    ),
];

/// Runs `call` `BATCH` times per span, `SPANS` spans.
fn batches(tracer: &mut Tracer, name: &'static str, mut call: impl FnMut(u64)) {
    for span in 0..SPANS as u64 {
        tracer.record_batch(name, None, None, BATCH, || {
            for i in 0..BATCH {
                call(black_box(span * BATCH + i));
            }
        });
    }
}

/// The median over spans of the per-call time, in ns.
fn per_call_ns(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.per_call(name)) * 1e9
}

/// Traces the primitives of `crates/bench/benches/micro.rs` the
/// end-to-end workloads reach (the optimizer's slot plan, the fuel-rate
/// model, the KiBaM step, its closed-form step across a rail crossing
/// and its SoC-crossing projection), the five reference-trace policy
/// runs, and seeded scenario generation, and sets their metrics.
pub fn trace(tracer: &mut Tracer, seed: u64, layer: &mut Metrics) -> Result<(), String> {
    let optimizer = FuelOptimizer::dac07();
    let profile = SlotProfile::new(
        Seconds::new(14.0),
        Amps::new(0.2),
        Seconds::new(5.0),
        Amps::new(1.22),
    )
    .map_err(|e| format!("slot profile: {e}"))?;
    let context = StorageContext::new(Charge::new(2.5), Charge::new(3.0), Charge::new(6.0));
    let overhead = Overhead::new(
        true,
        Seconds::new(0.5),
        Amps::new(0.4),
        Seconds::new(0.5),
        Amps::new(0.4),
    );
    optimizer
        .plan_slot(&profile, &context, Some(&overhead))
        .map_err(|e| format!("plan_slot: {e}"))?;
    batches(tracer, "core.plan_slot", |_| {
        let _ = black_box(optimizer.plan_slot(black_box(&profile), &context, Some(&overhead)));
    });

    let efficiency = LinearEfficiency::dac07();
    batches(tracer, "fuelcell.stack_current", |i| {
        let current = Amps::new(0.5 + (i % 64) as f64 * 1e-3);
        let _ = black_box(efficiency.stack_current(current));
    });

    // A half-full battery for steps and projections; a nearly empty one
    // that a long discharge drives across the empty rail.
    let half = KineticBattery::new(Charge::new(100.0), 0.5, 0.3, 0.01);
    let low = KineticBattery::new(Charge::new(6.0), 0.05, 0.3, 0.01);
    batches(tracer, "storage.kibam_step", |i| {
        let mut battery = half.clone();
        let net = if i % 2 == 0 { -0.5 } else { 0.5 };
        black_box(battery.step(Amps::new(net), Seconds::new(0.5)));
    });
    let mut crossing = low.clone();
    if crossing
        .step_coalesced(Amps::new(-1.0), Seconds::new(60.0))
        .deficit
        .is_zero()
    {
        return Err("the KiBaM coalesced probe does not cross the empty rail".to_owned());
    }
    batches(tracer, "storage.kibam_coalesced", |_| {
        let mut battery = low.clone();
        black_box(battery.step_coalesced(Amps::new(-1.0), black_box(Seconds::new(60.0))));
    });
    batches(tracer, "storage.kibam_time_to_soc", |i| {
        let target = Charge::new(20.0 + (i % 16) as f64);
        black_box(half.time_to_soc(Amps::new(-0.5), target, Seconds::new(3600.0)));
    });

    let scenario = Scenario::experiment1();
    for (_, span, policy) in REFERENCE_RUNS {
        for _ in 0..RUNS {
            tracer
                .record(span, None, None, || run_reference(&scenario, policy))
                .map_err(|e| format!("{}: {e}", policy.label()))?;
        }
    }
    for i in 0..RUNS as u64 {
        let trace_seed = crate::splitmix64(seed ^ i);
        tracer.record("workload.scenario", None, None, || {
            black_box(Scenario::experiment1_seeded(trace_seed))
        });
        tracer.record("workload.scenario", None, None, || {
            black_box(Scenario::experiment2_seeded(trace_seed))
        });
    }

    layer.set("core.plan_slot_ns", per_call_ns(tracer, "core.plan_slot"));
    layer.set(
        "fuelcell.stack_current_ns",
        per_call_ns(tracer, "fuelcell.stack_current"),
    );
    layer.set(
        "storage.kibam_step_ns",
        per_call_ns(tracer, "storage.kibam_step"),
    );
    layer.set(
        "storage.kibam_coalesced_ns",
        per_call_ns(tracer, "storage.kibam_coalesced"),
    );
    layer.set(
        "storage.kibam_time_to_soc_ns",
        per_call_ns(tracer, "storage.kibam_time_to_soc"),
    );
    for (metric, span, _) in REFERENCE_RUNS {
        layer.set(metric, stats::median(&tracer.per_call(span)) * 1e6);
    }
    layer.set(
        "workload.scenario_us",
        stats::median(&tracer.per_call("workload.scenario")) * 1e6,
    );
    Ok(())
}
