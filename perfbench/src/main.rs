//! The fcdpm benchmark: three workloads driven through the public
//! functions the `fcdpm grid` and `fcdpm experiment` commands call.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|resume|reference> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It prints a detail line (host
//! fingerprint, repetitions, sample counts) and then, as the last line,
//! the result object. See README.md beside this file for the workloads,
//! the metrics and the span file.

mod checks;
mod fingerprint;
mod grid;
mod layers;
mod reference;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use fcdpm_runner::{JobMetrics, JobSpec, StorageSpec, WorkloadSpec};
use serde_json::Value;

use report::{object, Metrics, END_TO_END, LAYERS, PER_LAYER};
use trace::Tracer;

/// Set-up rounds in an untraced run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// Where runs put their run directories and span files, relative to
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet,
    Resume,
    Reference,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::Fleet => "fleet",
            Self::Resume => "resume",
            Self::Reference => "reference",
        }
    }
}

/// The command line.
#[derive(Debug)]
pub struct Options {
    workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag} {value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "fleet" => Workload::Fleet,
                        "resume" => Workload::Resume,
                        "reference" => Workload::Reference,
                        other => return Err(format!("unknown workload `{other}`")),
                    });
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("`--trace {other}` is not 0 or 1")),
                    });
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// splitmix64, the 64-bit mixing finalizer the benchmark derives its
/// inputs from the seed with.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The job classes the per-class `execute` means are taken over. A job
/// belongs to one workload class and, possibly, to a storage class and
/// to `faulted`.
const CLASSES: [&str; 7] = [
    "exp1", "exp2", "dvs", "multi", "kibam", "supercap", "faulted",
];

#[derive(Debug, Clone, Copy)]
pub struct JobClasses([bool; 7]);

impl JobClasses {
    pub fn of(job: &JobSpec) -> Self {
        let storage = job.storage.as_ref();
        Self([
            matches!(job.workload, WorkloadSpec::Experiment1(_)),
            matches!(job.workload, WorkloadSpec::Experiment2(_)),
            matches!(job.workload, WorkloadSpec::Dvs(_)),
            matches!(job.workload, WorkloadSpec::MultiDevice(_)),
            storage == Some(&StorageSpec::Kibam),
            storage == Some(&StorageSpec::SuperCapacitor),
            job.faults.as_ref().is_some_and(|s| !s.is_empty()),
        ])
    }
}

/// The simulator's work counters, summed over jobs.
#[derive(Debug, Default)]
pub struct Counters {
    consultations: u64,
    stepped: u64,
    coalesced: u64,
}

impl Counters {
    pub fn add(&mut self, metrics: &JobMetrics) {
        self.consultations += metrics.policy_consultations;
        self.stepped += metrics.chunks_stepped;
        self.coalesced += metrics.chunks_coalesced;
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Seconds per set-up round.
    pub setup_s: Vec<f64>,
    /// Jobs per second of each timed call (a grid run, or a pass over
    /// the reference list).
    pub rates: Vec<f64>,
    /// Single-job `execute` latencies in µs.
    pub latencies: stats::Latencies,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Traced runs only: the spans, the classes of each
    /// `runner.execute` span in recording order, the work counters of
    /// one pass over the workload's jobs, and the workload's own
    /// per-layer metrics.
    pub tracer: Tracer,
    pub classes: Vec<JobClasses>,
    pub counters: Counters,
    pub layer: Metrics,
}

impl Default for Measured {
    fn default() -> Self {
        Self {
            setup_s: Vec::new(),
            rates: Vec::new(),
            latencies: stats::Latencies::default(),
            reps: 0,
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(),
            classes: Vec::new(),
            counters: Counters::default(),
            layer: Metrics::new(PER_LAYER),
        }
    }
}

/// `VmHWM`, the process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn end_to_end(measured: &mut Measured) -> Result<Metrics, String> {
    let mut metrics = Metrics::new(END_TO_END);
    let (p50, p99) = measured.latencies.p50_p99();
    metrics.set("jobs_per_s", stats::median(&measured.rates));
    metrics.set("job_p50_us", p50);
    metrics.set("job_p99_us", p99);
    metrics.set("setup_s", stats::median(&measured.setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb()?);
    metrics.set(
        "success_rate",
        (measured.attempted - measured.failed) as f64 / measured.attempted as f64,
    );
    Ok(metrics)
}

/// Completes the traced run's per-layer metrics from its spans and
/// writes the spans to `spans_path`.
fn per_layer(opts: &Options, mut measured: Measured, spans_path: &Path) -> Result<Metrics, String> {
    layers::trace(&mut measured.tracer, opts.seed, &mut measured.layer)?;
    let tracer = &measured.tracer;
    let layer = &mut measured.layer;
    let execute_us: Vec<f64> = tracer
        .per_call("runner.execute")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    if execute_us.len() != measured.classes.len() {
        return Err("execute spans and job classes are out of step".to_owned());
    }
    layer.set("runner.execute_us.p50", stats::median(&execute_us));
    layer.set("runner.execute_us.p99", stats::quantile(&execute_us, 0.99));
    for (c, class) in CLASSES.iter().enumerate() {
        let of_class: Vec<f64> = execute_us
            .iter()
            .zip(&measured.classes)
            .filter(|(_, classes)| classes.0[c])
            .map(|(us, _)| *us)
            .collect();
        layer.set(
            &format!("runner.execute_us.{class}"),
            stats::mean(&of_class),
        );
    }
    let counters = &measured.counters;
    layer.set("sim.consultations", counters.consultations as f64);
    layer.set("sim.chunks_stepped", counters.stepped as f64);
    let chunks = counters.coalesced + counters.stepped;
    layer.set(
        "sim.coalesced_frac",
        if chunks == 0 {
            0.0
        } else {
            counters.coalesced as f64 / chunks as f64
        },
    );
    for name in LAYERS {
        let (calls, self_s) = tracer.layer_self(name);
        layer.set(&format!("{name}.calls"), calls as f64);
        layer.set(&format!("{name}.self_s"), self_s);
    }
    tracer.write_jsonl(spans_path)?;
    Ok(measured.layer)
}

fn run(opts: &Options) -> Result<String, String> {
    let root = PathBuf::from(WORK_DIR);
    let work = root.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create `{}`: {e}", work.display()))?;
    let fingerprint = fingerprint::fingerprint(&work);
    let measured = match opts.workload {
        Workload::Fleet => grid::run(opts, &work, false),
        Workload::Resume => grid::run(opts, &work, true),
        Workload::Reference => reference::run(opts),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut measured = measured?;
    let spans_path = root.join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let detail = object([
        ("workload", Value::Str(opts.workload.name().to_owned())),
        ("seed", Value::UInt(opts.seed)),
        ("fingerprint", fingerprint),
        ("setup_rounds", Value::UInt(measured.setup_s.len() as u64)),
        ("timed_repetitions", Value::UInt(measured.reps as u64)),
        (
            "job_latency_samples",
            Value::UInt(measured.latencies.samples()),
        ),
        (
            "spans",
            if opts.trace {
                Value::Str(spans_path.display().to_string())
            } else {
                Value::Null
            },
        ),
    ]);
    let (attempted, failed) = (measured.attempted, measured.failed);
    let metrics = if opts.trace {
        per_layer(opts, measured, &spans_path)?
    } else {
        end_to_end(&mut measured)?
    };
    println!(
        "{}",
        serde_json::to_string(&detail).map_err(|e| e.to_string())?
    );
    report::result_line(attempted, failed, &metrics)
}

fn main() {
    let result = Options::parse(std::env::args().skip(1)).and_then(|opts| run(&opts));
    match result {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
