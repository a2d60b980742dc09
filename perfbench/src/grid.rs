//! The `fleet` and `resume` workloads: whole campaigns through
//! `fcdpm_grid::run`, and a traced serial replay of the engine's stages
//! through the grid crate's public functions.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fcdpm_grid::{
    digest_hex, partial_file_name, read_partial, read_shard, shard_file_name, spec_digest,
    write_shard, FaultPreset, GridConfig, GridJobRecord, GridRun, GridSpec, PartialShardWriter,
    SeedAxis, SeedRange, WorkloadKind,
};
use fcdpm_runner::{execute, JobOutcome, PolicySpec};

use crate::checks::same_bytes;
use crate::{splitmix64, stats, JobClasses, Measured, Options, SETUP_ROUNDS};

/// Seeds in the fleet's seed range: 50 seeds × 96 jobs = 4800 jobs,
/// the size of `examples/grid_fleet.json`.
pub const FLEET_SEEDS: u64 = 50;

/// Timed repetitions made even when one outlasts the run's seconds.
const MIN_REPS: usize = 3;

/// Jobs timed one at a time after each repetition.
const LATENCY_SLICE: usize = crate::stats::WINDOW;

/// The `grid_fleet.json` axes with the seed range starting at `seed`:
/// {Exp1, Exp2} × {Conv, Asap, FcDpm, WindowedAverage} × {None,
/// Starvation, Combined} × {50, 100} mA·min × resilient {false, true}.
pub fn fleet_spec(seed: u64) -> GridSpec {
    let mut spec = GridSpec::new(
        SeedAxis::Range(SeedRange {
            start: seed,
            count: FLEET_SEEDS,
        }),
        vec![WorkloadKind::Experiment1, WorkloadKind::Experiment2],
        vec![
            PolicySpec::Conv,
            PolicySpec::Asap,
            PolicySpec::FcDpm,
            PolicySpec::WindowedAverage,
        ],
    );
    spec.faults = Some(vec![
        FaultPreset::None,
        FaultPreset::Starvation,
        FaultPreset::Combined,
    ]);
    spec.capacities_mamin = Some(vec![50.0, 100.0]);
    spec.resilient = Some(vec![false, true]);
    spec
}

/// The default engine configuration (shard 1024, checkpoint batch 32)
/// writing to `out_dir/run_id`.
fn config(out_dir: &Path, run_id: &str, workers: usize, resume: bool) -> GridConfig {
    GridConfig {
        workers,
        out_dir: out_dir.to_owned(),
        run_id: Some(run_id.to_owned()),
        resume,
        ..GridConfig::default()
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove `{}`: {e}", dir.display()))
}

/// Copies the files of run directory `from` into a new directory `to`.
fn copy_run_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create `{}`: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list `{}`: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let target = to.join(path.file_name().unwrap_or_default());
        std::fs::copy(&path, &target)
            .map_err(|e| format!("cannot copy `{}`: {e}", path.display()))?;
    }
    Ok(())
}

/// Kill points per `resume` run. Repetitions cycle through them, so a
/// run's median covers the whole final tenth and one seed's damage
/// costs about what another's does.
pub const KILLS: u64 = 8;

/// The jobs at which `resume`'s simulated kills strike: one in each of
/// [`KILLS`] equal strata of the final tenth of a `total`-job grid, at
/// an offset chosen by `seed`.
pub fn kill_indices(seed: u64, total: u64) -> Vec<u64> {
    let window = (total / 10).max(KILLS);
    let stratum = window / KILLS;
    (0..KILLS)
        .map(|k| total - window + k * stratum + splitmix64(seed ^ k) % stratum)
        .collect()
}

/// Turns the completed run directory `dir` of `spec` into what a kill
/// while job `kill` was being checkpointed leaves behind: every earlier
/// shard promoted, the in-flight shard's checksummed checkpoint of the
/// jobs before `kill` in engine-sized batches, ending in a torn half
/// line, no later shard and no `aggregate.json`. Returns the number of
/// jobs the checkpoint holds.
pub fn damage(dir: &Path, spec: &GridSpec, kill: u64) -> Result<u64, String> {
    let defaults = GridConfig::default();
    let total = spec.total_jobs();
    let shard = kill / defaults.shard_size;
    let recoverable = kill - shard * defaults.shard_size;
    let records = read_shard(&dir.join(shard_file_name(shard)))?;
    for later in shard..total.div_ceil(defaults.shard_size) {
        let path = dir.join(shard_file_name(later));
        std::fs::remove_file(&path)
            .map_err(|e| format!("cannot remove `{}`: {e}", path.display()))?;
    }
    let aggregate = dir.join("aggregate.json");
    std::fs::remove_file(&aggregate)
        .map_err(|e| format!("cannot remove `{}`: {e}", aggregate.display()))?;
    let cut = usize::try_from(recoverable).map_err(|e| e.to_string())?;
    let batch = usize::try_from(defaults.checkpoint_batch).map_err(|e| e.to_string())?;
    let mut writer = PartialShardWriter::create(dir, shard)?;
    for chunk in records[..cut].chunks(batch.max(1)) {
        writer.append(chunk)?;
    }
    writer.append_torn(&records[cut])?;
    let status = fcdpm_grid::status(dir)?;
    if status.has_aggregate
        || status.partial_shards != 1
        || status.checkpointed != recoverable
        || status.torn_lines == 0
        || status.shards != shard
    {
        return Err(format!(
            "damaged run directory is not as planned: {status:?}"
        ));
    }
    Ok(recoverable)
}

/// What set-up leaves for the timed and traced runs.
struct Prepared {
    spec: GridSpec,
    /// A completed run at `workers = nproc`: its `aggregate.json` and
    /// shards are what every later run must reproduce.
    control_dir: PathBuf,
    control_aggregate: Vec<u8>,
    /// `resume` only: one damaged directory per kill point. Each resume
    /// starts from a fresh copy of one of them.
    templates: Vec<PathBuf>,
    setup_s: Vec<f64>,
}

/// Set-up, [`SETUP_ROUNDS`] times (once when tracing): generate the
/// spec, run it fresh at `workers = nproc` (the control) and at one
/// worker, and check the two aggregates agree; for `resume`, then build
/// the damaged templates from the control. Rounds after the first must
/// reproduce the first round's control.
fn prepare(opts: &Options, work: &Path, resume: bool) -> Result<Prepared, String> {
    let rounds = if opts.trace { 1 } else { SETUP_ROUNDS };
    let mut setup_s = Vec::with_capacity(rounds);
    let mut control_aggregate: Option<Vec<u8>> = None;
    let mut last = None;
    for round in 0..rounds {
        let start = Instant::now();
        crate::checks::table2()?;
        let spec = fleet_spec(opts.seed);
        let setup = work.join(format!("setup-{round}"));
        let control = fcdpm_grid::run(&spec, &config(&setup, "control", crate::nproc(), false))?;
        let aggregate = read(&control.dir.join("aggregate.json"))?;
        let single = fcdpm_grid::run(&spec, &config(&setup, "one-worker", 1, false))?;
        same_bytes(
            "fleet aggregate.json at 1 worker",
            &aggregate,
            &read(&single.dir.join("aggregate.json"))?,
        )?;
        remove_dir(&single.dir)?;
        let mut templates = Vec::new();
        if resume {
            for (k, kill) in kill_indices(opts.seed, spec.total_jobs())
                .into_iter()
                .enumerate()
            {
                let dir = setup.join(format!("template-{k}"));
                copy_run_dir(&control.dir, &dir)?;
                damage(&dir, &spec, kill)?;
                templates.push(dir);
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(first) = &control_aggregate {
            same_bytes(
                "control aggregate.json across set-up rounds",
                first,
                &aggregate,
            )?;
        } else {
            control_aggregate = Some(aggregate);
        }
        if let Some((old, ..)) = last.replace((setup, spec, control.dir, templates)) {
            remove_dir(&old)?;
        }
    }
    let (_, spec, control_dir, templates) = last.ok_or("no set-up round ran")?;
    Ok(Prepared {
        spec,
        control_dir,
        control_aggregate: control_aggregate.ok_or("no control aggregate")?,
        templates,
        setup_s,
    })
}

/// Repetition `rep` of the workload: one `fcdpm_grid::run` in a fresh
/// directory under `scratch` (on `resume`, a copy of template `rep`
/// modulo their number), timed, with its aggregate checked against the
/// control. Returns the wall seconds and the engine's account of the
/// run.
fn timed_run(
    prep: &Prepared,
    rep: usize,
    scratch: &Path,
    what: &str,
) -> Result<(f64, GridRun), String> {
    let resume = !prep.templates.is_empty();
    if resume {
        copy_run_dir(
            &prep.templates[rep % prep.templates.len()],
            &scratch.join("run"),
        )?;
    }
    let config = config(scratch, "run", crate::nproc(), resume);
    let start = Instant::now();
    let run = fcdpm_grid::run(&prep.spec, &config)?;
    let wall = start.elapsed().as_secs_f64();
    same_bytes(
        what,
        &prep.control_aggregate,
        &read(&run.dir.join("aggregate.json"))?,
    )?;
    remove_dir(scratch)?;
    Ok((wall, run))
}

/// Runs `fleet` (`resume = false`) or `resume`.
pub fn run(opts: &Options, work: &Path, resume: bool) -> Result<Measured, String> {
    let name = if resume { "resume" } else { "fleet" };
    let prep = prepare(opts, work, resume)?;
    let mut measured = if opts.trace {
        traced(&prep, work, name)?
    } else {
        timed(opts, &prep, work, name)?
    };
    measured.setup_s = prep.setup_s;
    Ok(measured)
}

fn timed(opts: &Options, prep: &Prepared, work: &Path, name: &str) -> Result<Measured, String> {
    let total = prep.spec.total_jobs();
    let mut measured = Measured::default();
    let mut next_job = 0;
    let start = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    while measured.reps < MIN_REPS || start.elapsed() < budget {
        let scratch = work.join(format!("rep-{}", measured.reps));
        let what = format!("{name} aggregate.json, repetition {}", measured.reps);
        let (wall, run) = timed_run(prep, measured.reps, &scratch, &what)?;
        let aggregate = &run.aggregate;
        measured.attempted += total;
        measured.failed += aggregate.failed + aggregate.timed_out;
        measured.rates.push(aggregate.completed as f64 / wall);
        measured.reps += 1;
        // Single-job latency on this workload's job mix, called
        // serially between repetitions (the engine reports no per-job
        // times), so the samples spread over the whole run.
        for _ in 0..LATENCY_SLICE {
            let job = prep.spec.job_at(next_job).ok_or("job index out of range")?;
            next_job = (next_job + 1) % total;
            let call = Instant::now();
            let result = execute(std::hint::black_box(&job));
            measured.latencies.push(call.elapsed().as_secs_f64() * 1e6);
            result.map_err(|e| format!("{name} job failed serially: {e}"))?;
        }
    }
    remove_dir(&prep.control_dir)?;
    Ok(measured)
}

/// The traced run: three untraced engine runs for the wall the stages
/// are compared against, then one serial replay of the engine's stages
/// with a span around every call. On `resume` all of them start from
/// the first kill point's template.
fn traced(prep: &Prepared, work: &Path, name: &str) -> Result<Measured, String> {
    let total = prep.spec.total_jobs();
    let mut walls = Vec::new();
    let mut last = None;
    for rep in 0..MIN_REPS {
        let what = format!("{name} aggregate.json, untraced run {rep}");
        let (wall, run) = timed_run(prep, 0, &work.join(format!("untraced-{rep}")), &what)?;
        walls.push(wall);
        last = Some(run);
    }
    let run = last.ok_or("no untraced run")?;
    let wall = stats::median(&walls);

    let dir = work.join("traced");
    let resume = !prep.templates.is_empty();
    if resume {
        copy_run_dir(&prep.templates[0], &dir)?;
    } else {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let mut measured = Measured::default();
    let replay = replay_stages(&prep.spec, &dir, resume, &mut measured)?;
    for shard in 0..replay.shards {
        let file = shard_file_name(shard);
        same_bytes(
            &format!("{name} traced replay {file}"),
            &read(&prep.control_dir.join(&file))?,
            &read(&dir.join(&file))?,
        )?;
    }
    remove_dir(&dir)?;
    remove_dir(&prep.control_dir)?;

    let tracer = &measured.tracer;
    let ms = |stage: &str| tracer.mean_per_call(stage) * 1e3;
    let us = |stage: &str| tracer.mean_per_call(stage) * 1e6;
    let serial: f64 = [
        "grid.decode",
        "grid.digest",
        "grid.read_shard",
        "grid.read_partial",
        "grid.checkpoint",
        "grid.promote",
    ]
    .iter()
    .map(|stage| tracer.total(stage).1)
    .sum();
    let execute_s = tracer.total("runner.execute").1;
    let workers = crate::nproc() as f64;
    let layer = &mut measured.layer;
    layer.set("grid.decode_us", us("grid.decode"));
    layer.set("grid.digest_us", us("grid.digest"));
    layer.set("grid.serialize_us", us("grid.serialize"));
    layer.set("grid.checkpoint_ms", ms("grid.checkpoint"));
    layer.set(
        "grid.checkpoint_batches",
        tracer.total("grid.checkpoint").0 as f64,
    );
    layer.set("grid.promote_ms", ms("grid.promote"));
    layer.set("grid.read_shard_ms", ms("grid.read_shard"));
    layer.set("grid.read_partial_ms", ms("grid.read_partial"));
    layer.set(
        "grid.bytes_per_job",
        replay.shard_bytes as f64 / total as f64,
    );
    layer.set("grid.replay_frac", run.cache_hits as f64 / total as f64);
    layer.set("grid.recovered_jobs", run.recovered_jobs as f64);
    layer.set("grid.recomputed", run.recomputed as f64);
    layer.set("grid.unaccounted_s", wall - (serial + execute_s / workers));
    layer.set("runner.busy_frac", execute_s / (workers * wall));
    Ok(measured)
}

/// What [`replay_stages`] wrote.
struct Replay {
    shards: u64,
    shard_bytes: u64,
}

/// The engine's per-shard stages, called serially through the grid
/// crate's public functions with a span around each call: decode and
/// digest every job, replay promoted shards and checkpoints (on a
/// resume), execute the misses, checkpoint them in batches, serialize
/// each record, promote the shard. Every record's metrics go to
/// `measured` for the simulator's work counters.
fn replay_stages(
    spec: &GridSpec,
    dir: &Path,
    resume: bool,
    measured: &mut Measured,
) -> Result<Replay, String> {
    let defaults = GridConfig::default();
    let total = spec.total_jobs();
    let shards = total.div_ceil(defaults.shard_size);
    let batch = usize::try_from(defaults.checkpoint_batch)
        .map_err(|e| e.to_string())?
        .max(1);
    let tracer = &mut measured.tracer;
    let root = tracer.open("grid.run", None, None);
    let mut shard_bytes = 0;
    for shard in 0..shards {
        let shard_span = tracer.open("grid.shard", Some(root), None);
        let span = Some(shard_span);
        let lo = shard * defaults.shard_size;
        let hi = (lo + defaults.shard_size).min(total);
        let mut jobs = Vec::new();
        let mut digests = Vec::new();
        for index in lo..hi {
            let job = tracer
                .record("grid.decode", span, Some(index), || spec.job_at(index))
                .ok_or_else(|| format!("job {index} does not decode"))?;
            digests.push(digest_hex(tracer.record(
                "grid.digest",
                span,
                Some(index),
                || spec_digest(&job),
            )));
            jobs.push(job);
        }
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut replay = |record: GridJobRecord| {
            let slot = record
                .index
                .checked_sub(lo)
                .and_then(|s| usize::try_from(s).ok());
            if let Some(slot) = slot.filter(|&s| s < outcomes.len()) {
                if outcomes[slot].is_none() && record.digest == digests[slot] {
                    outcomes[slot] = Some(record.outcome);
                }
            }
        };
        if resume {
            let path = dir.join(shard_file_name(shard));
            if path.is_file() {
                let records = tracer.record("grid.read_shard", span, None, || read_shard(&path))?;
                records.into_iter().for_each(&mut replay);
            }
            let path = dir.join(partial_file_name(shard));
            if path.is_file() {
                let partial =
                    tracer.record("grid.read_partial", span, None, || read_partial(&path))?;
                partial.records.into_iter().for_each(&mut replay);
            }
        }
        let record_at = |slot: usize, outcome: JobOutcome| {
            let index = lo + slot as u64;
            GridJobRecord {
                index,
                id: jobs[slot].id(usize::try_from(index).unwrap_or(usize::MAX)),
                digest: digests[slot].clone(),
                outcome,
                attempts: 1,
            }
        };
        let mut writer = PartialShardWriter::create(dir, shard)?;
        let replayed: Vec<GridJobRecord> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(slot, o)| o.clone().map(|o| record_at(slot, o)))
            .collect();
        if !replayed.is_empty() {
            tracer.record("grid.checkpoint", span, None, || writer.append(&replayed))?;
        }
        let misses: Vec<usize> = (0..jobs.len()).filter(|&s| outcomes[s].is_none()).collect();
        for chunk in misses.chunks(batch) {
            let mut fresh = Vec::with_capacity(chunk.len());
            for &slot in chunk {
                let index = lo + slot as u64;
                let result =
                    tracer.record("runner.execute", span, Some(index), || execute(&jobs[slot]));
                measured.classes.push(JobClasses::of(&jobs[slot]));
                measured.attempted += 1;
                measured.failed += u64::from(result.is_err());
                let outcome = match result {
                    Ok(metrics) => JobOutcome::Completed(metrics),
                    Err(message) => JobOutcome::Failed(message),
                };
                outcomes[slot] = Some(outcome.clone());
                fresh.push(record_at(slot, outcome));
            }
            tracer.record("grid.checkpoint", span, None, || writer.append(&fresh))?;
        }
        let mut records = Vec::with_capacity(jobs.len());
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            records.push(record_at(slot, outcome.ok_or("a job has no outcome")?));
        }
        for record in &records {
            tracer
                .record("grid.serialize", span, Some(record.index), || {
                    serde_json::to_string(record)
                })
                .map_err(|e| format!("record {} does not serialize: {e}", record.index))?;
            if let JobOutcome::Completed(metrics) = &record.outcome {
                measured.counters.add(metrics);
            }
        }
        let path = tracer.record("grid.promote", span, None, || {
            write_shard(dir, shard, &records)
        })?;
        drop(writer);
        let partial = dir.join(partial_file_name(shard));
        std::fs::remove_file(&partial)
            .map_err(|e| format!("cannot remove `{}`: {e}", partial.display()))?;
        shard_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        tracer.close(shard_span);
    }
    tracer.close(root);
    Ok(Replay {
        shards,
        shard_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> GridSpec {
        let mut spec = fleet_spec(seed);
        spec.seeds = SeedAxis::Range(SeedRange {
            start: seed,
            count: 1,
        });
        spec
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fleet_spec_has_the_grid_fleet_axes() {
        let spec = fleet_spec(11);
        assert_eq!(spec.total_jobs(), 4800);
        assert_eq!(
            spec.seeds,
            SeedAxis::Range(SeedRange {
                start: 11,
                count: 50
            })
        );
    }

    #[test]
    fn kill_points_are_a_pure_function_of_the_seed_one_per_stratum() {
        for seed in 0..200 {
            let kills = kill_indices(seed, 4800);
            assert_eq!(kills, kill_indices(seed, 4800));
            for (k, kill) in (0..).zip(&kills) {
                assert!(
                    (4320 + 60 * k..4320 + 60 * (k + 1)).contains(kill),
                    "{kill}"
                );
            }
        }
        assert_ne!(kill_indices(1, 4800), kill_indices(2, 4800));
    }

    #[test]
    fn damage_is_a_pure_function_of_the_seed_and_resume_repairs_it() {
        let spec = tiny_spec(5);
        let root = scratch("damage");
        let control = fcdpm_grid::run(&spec, &config(&root, "control", 2, false)).expect("runs");
        let aggregate = read(&control.dir.join("aggregate.json")).expect("aggregate");
        let kill = kill_indices(5, spec.total_jobs())[3];
        let mut partials = Vec::new();
        for copy in ["a", "b"] {
            let dir = root.join(copy);
            copy_run_dir(&control.dir, &dir).expect("copies");
            let recoverable = damage(&dir, &spec, kill).expect("damages");
            assert_eq!(recoverable, kill);
            partials.push(read(&dir.join(partial_file_name(0))).expect("partial"));
            let resumed = fcdpm_grid::run(&spec, &config(&root, copy, 2, true)).expect("resumes");
            assert_eq!(resumed.recovered_jobs, recoverable);
            assert_eq!(resumed.recomputed, spec.total_jobs() - kill);
            let repaired = read(&resumed.dir.join("aggregate.json")).expect("aggregate");
            same_bytes("resumed aggregate", &aggregate, &repaired).expect("repaired");
        }
        assert_eq!(partials[0], partials[1]);
        std::fs::remove_dir_all(&root).expect("cleans up");
    }

    #[test]
    fn a_perturbed_aggregate_trips_the_check() {
        let spec = tiny_spec(9);
        let root = scratch("aggregate");
        let run = fcdpm_grid::run(&spec, &config(&root, "control", 1, false)).expect("runs");
        let control = read(&run.dir.join("aggregate.json")).expect("aggregate");
        let text = String::from_utf8(control.clone()).expect("utf-8");
        let perturbed = text.replacen("\"completed\": 96", "\"completed\": 95", 1);
        assert_ne!(perturbed, text, "the aggregate names its completed count");
        assert!(same_bytes("perturbed", &control, perturbed.as_bytes()).is_err());
        let again = fcdpm_grid::run(&spec, &config(&root, "again", 2, false)).expect("runs");
        let rerun = read(&again.dir.join("aggregate.json")).expect("aggregate");
        assert!(same_bytes("rerun", &control, &rerun).is_ok());
        std::fs::remove_dir_all(&root).expect("cleans up");
    }
}
