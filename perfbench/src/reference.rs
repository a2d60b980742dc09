//! The `reference` workload: a single-threaded loop of
//! `fcdpm_runner::execute` calls over a seeded job list, with no grid,
//! pool or disk.

use std::time::{Duration, Instant};

use fcdpm_runner::sweep::combined_schedule;
use fcdpm_runner::{execute, JobMetrics, JobSpec, PolicySpec, StorageSpec, WorkloadSpec};

use crate::checks::{outcome_text, same_outcomes};
use crate::stats::Latencies;
use crate::trace::Tracer;
use crate::{splitmix64, stats, JobClasses, Measured, Options, SETUP_ROUNDS};

/// The five shipped policies.
const POLICIES: [PolicySpec; 5] = [
    PolicySpec::Conv,
    PolicySpec::Asap,
    PolicySpec::FcDpm,
    PolicySpec::WindowedAverage,
    PolicySpec::Quantized(12),
];

const STORAGES: [StorageSpec; 3] = [
    StorageSpec::Ideal,
    StorageSpec::SuperCapacitor,
    StorageSpec::Kibam,
];

/// Warm-up passes over the job list in each set-up round.
const WARMUP_PASSES: usize = 3;

/// Traced passes, each paired with an untraced pass, in a traced run.
const TRACED_PASSES: usize = 10;

/// Trace seeds per (workload, storage, faults) group: enough that one
/// seed's job list costs about what another's does.
const TRACES_PER_GROUP: usize = 8;

/// The job list for `seed`: the five shipped policies × {Exp1, Exp2,
/// Dvs} × {Ideal, SuperCapacitor, Kibam} × {no faults, Combined}, then
/// MultiDevice × {Conv, Asap, WindowedAverage} × the three storages
/// without faults; the whole product [`TRACES_PER_GROUP`] times. Each
/// (workload, storage, faults) group of each round replays its own
/// trace seed, derived from `seed`; a fault schedule takes the same
/// seed.
pub fn reference_jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut group = 0u64;
    let mut trace_seed = || {
        group += 1;
        splitmix64(seed ^ group.wrapping_mul(0x9E37_79B9))
    };
    let workloads: [fn(u64) -> WorkloadSpec; 3] = [
        WorkloadSpec::Experiment1,
        WorkloadSpec::Experiment2,
        WorkloadSpec::Dvs,
    ];
    for _ in 0..TRACES_PER_GROUP {
        for workload in workloads {
            for storage in &STORAGES {
                for faulted in [false, true] {
                    let trace = trace_seed();
                    for policy in &POLICIES {
                        let mut job = JobSpec::new(policy.clone(), workload(trace));
                        job.storage = Some(storage.clone());
                        job.faults = faulted.then(|| combined_schedule(trace));
                        jobs.push(job);
                    }
                }
            }
        }
        for storage in &STORAGES {
            let trace = trace_seed();
            for policy in [
                PolicySpec::Conv,
                PolicySpec::Asap,
                PolicySpec::WindowedAverage,
            ] {
                let mut job = JobSpec::new(policy, WorkloadSpec::MultiDevice(trace));
                job.storage = Some(storage.clone());
                jobs.push(job);
            }
        }
    }
    jobs
}

/// One pass over `jobs`, timing each call. Returns the pass's wall
/// seconds and its results, and adds one latency per job, in µs.
fn pass(jobs: &[JobSpec], latencies: &mut Latencies) -> (f64, Vec<Result<JobMetrics, String>>) {
    let mut results = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for job in jobs {
        let call = Instant::now();
        let result = execute(std::hint::black_box(job));
        latencies.push(call.elapsed().as_secs_f64() * 1e6);
        results.push(result);
    }
    (start.elapsed().as_secs_f64(), results)
}

/// [`pass`] with a span around every call in place of its timing.
fn traced_pass(jobs: &[JobSpec], tracer: &mut Tracer) -> (f64, Vec<Result<JobMetrics, String>>) {
    let mut results = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for (index, job) in (0u64..).zip(jobs) {
        results.push(tracer.record("runner.execute", None, Some(index), || {
            execute(std::hint::black_box(job))
        }));
    }
    (start.elapsed().as_secs_f64(), results)
}

fn texts(results: &[Result<JobMetrics, String>]) -> Vec<String> {
    results.iter().map(outcome_text).collect()
}

/// What set-up leaves for the timed and traced passes.
struct Prepared {
    jobs: Vec<JobSpec>,
    /// The first warm-up pass's results, which every later pass must
    /// repeat exactly.
    control: Vec<String>,
    setup_s: Vec<f64>,
}

/// Set-up, [`SETUP_ROUNDS`] times (once when tracing): the Table 2
/// check, the job list, and warm-up passes.
fn prepare(opts: &Options) -> Result<Prepared, String> {
    let rounds = if opts.trace { 1 } else { SETUP_ROUNDS };
    let mut setup_s = Vec::with_capacity(rounds);
    let mut control: Option<Vec<String>> = None;
    let mut jobs = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        crate::checks::table2()?;
        jobs = reference_jobs(opts.seed);
        for warmup in 0..WARMUP_PASSES {
            let got = texts(&pass(&jobs, &mut Latencies::default()).1);
            match &control {
                Some(expected) => {
                    same_outcomes(&format!("reference warm-up {warmup}"), expected, &got)?;
                }
                None => control = Some(got),
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    Ok(Prepared {
        jobs,
        control: control.ok_or("no set-up round ran")?,
        setup_s,
    })
}

pub fn run(opts: &Options) -> Result<Measured, String> {
    let Prepared {
        jobs,
        control,
        setup_s,
    } = prepare(opts)?;
    let mut measured = Measured {
        setup_s,
        ..Measured::default()
    };
    let count = jobs.len() as u64;
    if opts.trace {
        let mut untraced = Vec::with_capacity(TRACED_PASSES);
        let mut traced = Vec::with_capacity(TRACED_PASSES);
        for rep in 0..TRACED_PASSES {
            let (wall, results) = pass(&jobs, &mut Latencies::default());
            same_outcomes(
                &format!("reference untraced pass {rep}"),
                &control,
                &texts(&results),
            )?;
            untraced.push(wall);
            let (wall, results) = traced_pass(&jobs, &mut measured.tracer);
            same_outcomes(
                &format!("reference traced pass {rep}"),
                &control,
                &texts(&results),
            )?;
            traced.push(wall);
            measured.classes.extend(jobs.iter().map(JobClasses::of));
            measured.attempted += count;
            measured.failed += results.iter().filter(|r| r.is_err()).count() as u64;
            if rep == 0 {
                results
                    .iter()
                    .flatten()
                    .for_each(|m| measured.counters.add(m));
            }
        }
        let wall = stats::median(&untraced);
        let execute_s = measured.tracer.total("runner.execute").1 / TRACED_PASSES as f64;
        let layer = &mut measured.layer;
        layer.set("trace.overhead_frac", stats::median(&traced) / wall - 1.0);
        layer.set("runner.busy_frac", execute_s / wall);
        return Ok(measured);
    }
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    while measured.reps < 1 || start.elapsed() < budget {
        let (wall, results) = pass(&jobs, &mut measured.latencies);
        let failed = results.iter().filter(|r| r.is_err()).count() as u64;
        measured.rates.push((count - failed) as f64 / wall);
        measured.attempted += count;
        measured.failed += failed;
        same_outcomes(
            &format!("reference pass {}", measured.reps),
            &control,
            &texts(&results),
        )?;
        measured.reps += 1;
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_is_a_pure_function_of_the_seed() {
        let jobs = reference_jobs(3);
        assert_eq!(jobs.len(), TRACES_PER_GROUP * (5 * 3 * 3 * 2 + 3 * 3));
        assert_eq!(jobs, reference_jobs(3));
        assert_ne!(jobs, reference_jobs(4));
    }

    #[test]
    fn every_reference_job_is_accepted() {
        for (i, job) in reference_jobs(1).iter().enumerate() {
            assert!(execute(job).is_ok(), "job {i}: {job:?}");
        }
    }
}
