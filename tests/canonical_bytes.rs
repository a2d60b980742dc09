//! The canonical bytes, pinned as literals.
//!
//! Job digests, job IDs, shard and checkpoint lines, `grid.json` and
//! `aggregate.json` are all computed from the serializer's exact
//! output. A serializer that drifted by one byte would re-key every
//! cache, and existing run directories would silently stop resuming as
//! cache hits. Comparing the serializer with itself cannot catch that,
//! so this file holds the expected text and FNV-1a digests verbatim.

use fcdpm_grid::{
    partial_file_name, shard_file_name, spec_digest, write_shard, FaultPreset, GridConfig,
    GridJobRecord, GridSpec, PartialShardWriter, SeedAxis, WorkloadKind,
};
use fcdpm_runner::spec::fnv1a;
use fcdpm_runner::{sweep, JobMetrics, JobOutcome, JobSpec, PolicySpec, WorkloadSpec};

/// A scratch directory unique to this process and `tag`.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fcdpm-canonical-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Asserts `job`'s canonical JSON, its digest (also through
/// `spec_digest` and as FNV-1a of the text) and the ID it gets at
/// `index`.
fn assert_job(job: &JobSpec, json: &str, digest: u64, index: usize, id: &str) {
    assert_eq!(serde_json::to_string(job).expect("serializes"), json);
    assert_eq!(fnv1a(json.as_bytes()), digest, "FNV-1a of the pinned text");
    assert_eq!(job.digest(), digest);
    assert_eq!(spec_digest(job), digest);
    assert_eq!(job.id(index), id);
    let back: JobSpec = serde_json::from_str(json).expect("parses");
    assert_eq!(&back, job);
}

/// A fleet job: Combined faults, the resilient wrapper, an integral
/// capacity.
fn fleet_job() -> JobSpec {
    let seed = 3_670_024_199;
    let mut job = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment2(seed));
    job.capacity_mamin = Some(100.0);
    job.faults = Some(sweep::combined_schedule(seed));
    job.resilient = Some(true);
    job
}

const FLEET_JOB: &str = r#"{"policy":"FcDpm","workload":{"Experiment2":3670024199},"device":null,"storage":null,"predictor":null,"capacity_mamin":100.0,"beta":null,"buffer_path_efficiency":null,"faults":{"seed":3670024199,"events":[{"at_s":200.0,"kind":{"FuelStarvation":{"until_s":740.0,"max_a":0.47}}},{"at_s":560.0,"kind":{"EfficiencyFade":{"alpha_scale":0.85,"beta_scale":1.3}}},{"at_s":400.0,"kind":{"StorageFade":{"capacity_scale":0.6}}},{"at_s":700.0,"kind":{"SelfDischarge":{"leak_a":0.02}}},{"at_s":250.0,"kind":{"PredictorDropout":{"until_s":640.0}}},{"at_s":900.0,"kind":{"PredictorNoise":{"until_s":1300.0,"magnitude":0.3}}}]},"resilient":true,"inject_panic":null}"#;

#[test]
fn fleet_job_with_combined_faults_and_resilient() {
    assert_job(
        &fleet_job(),
        FLEET_JOB,
        0x9add_a078_81b9_7993,
        4559,
        "job-4559-fcdpm-81b97993",
    );
}

#[test]
fn constant_and_quantized_policies() {
    let mut constant = JobSpec::new(
        PolicySpec::Constant(0.6),
        WorkloadSpec::Experiment1(0xDAC0_2007),
    );
    constant.capacity_mamin = Some(50.0);
    assert_job(
        &constant,
        r#"{"policy":{"Constant":0.6},"workload":{"Experiment1":3670024199},"device":null,"storage":null,"predictor":null,"capacity_mamin":50.0,"beta":null,"buffer_path_efficiency":null,"faults":null,"resilient":null,"inject_panic":null}"#,
        0xe0c4_3b2e_c4b7_5b3d,
        12,
        "job-0012-const0.6-c4b75b3d",
    );
    let quantized = JobSpec::new(PolicySpec::Quantized(12), WorkloadSpec::Dvs(7));
    assert_job(
        &quantized,
        r#"{"policy":{"Quantized":12},"workload":{"Dvs":7},"device":null,"storage":null,"predictor":null,"capacity_mamin":null,"beta":null,"buffer_path_efficiency":null,"faults":null,"resilient":null,"inject_panic":null}"#,
        0x6e02_ab67_6923_cfcc,
        12,
        "job-0012-quantized12-6923cfcc",
    );
}

#[test]
fn integral_and_small_floats() {
    assert_eq!(
        serde_json::to_string(&100.0f64).expect("serializes"),
        "100.0"
    );
    assert_eq!(serde_json::to_string(&-3.0f64).expect("serializes"), "-3.0");
    assert_eq!(
        serde_json::to_string(&1e-7f64).expect("serializes"),
        "0.0000001"
    );
    assert_eq!(serde_json::to_string(&0.1f64).expect("serializes"), "0.1");
}

/// The tiny grid behind the `grid.json` and `aggregate.json` pins; its
/// name needs every kind of escape.
fn tiny_grid() -> GridSpec {
    let mut grid = GridSpec::new(
        SeedAxis::List(vec![7]),
        vec![WorkloadKind::Experiment1],
        vec![PolicySpec::Conv, PolicySpec::Constant(0.6)],
    );
    grid.name = Some("tab\there \"quoted\" back\\slash\nnewline \u{1} µ".to_owned());
    grid.capacities_mamin = Some(vec![100.0]);
    grid.faults = Some(vec![FaultPreset::None]);
    grid
}

#[test]
fn escaped_strings_and_the_grid_digest() {
    let grid = tiny_grid();
    let json = serde_json::to_string(&grid).expect("serializes");
    assert_eq!(
        json,
        r#"{"name":"tab\there \"quoted\" back\\slash\nnewline \u0001 µ","seeds":{"List":[7]},"workloads":["Experiment1"],"policies":["Conv",{"Constant":0.6}],"faults":["None"],"capacities_mamin":[100.0],"resilient":null,"inject_panic":null}"#
    );
    assert_eq!(grid.digest(), 0x81fb_724f_7c33_5f2f);
    let back: GridSpec = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, grid);
}

/// One completed fleet record with a retry.
fn completed_record() -> GridJobRecord {
    let job = fleet_job();
    GridJobRecord {
        index: 4559,
        id: job.id(4559),
        digest: format!("{:016x}", job.digest()),
        outcome: JobOutcome::Completed(JobMetrics {
            fuel_as: 781.8,
            mean_stack_current_a: 0.4027,
            conversion_efficiency: 0.3,
            lifetime_h: 24.0,
            duration_s: 1941.0,
            sleeps: 98,
            slots: 99,
            bled_as: 0.0,
            deficit_as: 0.125,
            deficit_time_s: 1e-7,
            final_soc_as: 3000.0,
            chunks_stepped: 0,
            chunks_coalesced: 19410,
            policy_consultations: 198,
            faults_applied: 0,
            degradations: 0,
            time_in_fallback_s: 0.0,
            fault_deficit_time_s: 0.0,
        }),
        attempts: 2,
    }
}

const RECORD_LINE: &str = r#"{"index":4559,"id":"job-4559-fcdpm-81b97993","digest":"9adda07881b97993","outcome":{"Completed":{"fuel_as":781.8,"mean_stack_current_a":0.4027,"conversion_efficiency":0.3,"lifetime_h":24.0,"duration_s":1941.0,"sleeps":98,"slots":99,"bled_as":0.0,"deficit_as":0.125,"deficit_time_s":0.0000001,"final_soc_as":3000.0,"chunks_stepped":0,"chunks_coalesced":19410,"policy_consultations":198,"faults_applied":0,"degradations":0,"time_in_fallback_s":0.0,"fault_deficit_time_s":0.0}},"attempts":2}"#;

#[test]
fn record_shard_and_checkpoint_lines() {
    let record = completed_record();
    assert_eq!(
        serde_json::to_string(&record).expect("serializes"),
        RECORD_LINE
    );
    let back: GridJobRecord = serde_json::from_str(RECORD_LINE).expect("parses");
    assert_eq!(back, record);

    let dir = scratch("lines");
    write_shard(&dir, 3, std::slice::from_ref(&record)).expect("writes");
    let shard = std::fs::read_to_string(dir.join(shard_file_name(3))).expect("reads");
    assert_eq!(shard, format!("{RECORD_LINE}\n"));

    let mut writer = PartialShardWriter::create(&dir, 3).expect("creates");
    writer.append(&[record]).expect("appends");
    drop(writer);
    let partial = std::fs::read_to_string(dir.join(partial_file_name(3))).expect("reads");
    assert_eq!(partial, format!("5affcb87c20e1eb4\t{RECORD_LINE}\n"));
    assert_eq!(fnv1a(RECORD_LINE.as_bytes()), 0x5aff_cb87_c20e_1eb4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_and_timed_out_records() {
    let failed = GridJobRecord {
        index: 0,
        id: "job-0000-conv-00000000".to_owned(),
        digest: "0000000000000000".to_owned(),
        outcome: JobOutcome::Failed("job panicked: \"boom\"\tat line 1\n".to_owned()),
        attempts: 3,
    };
    let line = r#"{"index":0,"id":"job-0000-conv-00000000","digest":"0000000000000000","outcome":{"Failed":"job panicked: \"boom\"\tat line 1\n"},"attempts":3}"#;
    assert_eq!(serde_json::to_string(&failed).expect("serializes"), line);
    let timed_out = GridJobRecord {
        outcome: JobOutcome::TimedOut,
        attempts: 1,
        ..failed
    };
    let line = r#"{"index":0,"id":"job-0000-conv-00000000","digest":"0000000000000000","outcome":"TimedOut","attempts":1}"#;
    assert_eq!(serde_json::to_string(&timed_out).expect("serializes"), line);
}

const GRID_JSON: &str = r#"{
  "name": "tab\there \"quoted\" back\\slash\nnewline \u0001 µ",
  "seeds": {
    "List": [
      7
    ]
  },
  "workloads": [
    "Experiment1"
  ],
  "policies": [
    "Conv",
    {
      "Constant": 0.6
    }
  ],
  "faults": [
    "None"
  ],
  "capacities_mamin": [
    100.0
  ],
  "resilient": null,
  "inject_panic": null
}"#;

const AGGREGATE_JSON: &str = r#"{
  "schema": "fcdpm-grid/2",
  "spec_digest": "81fb724f7c335f2f",
  "jobs": 2,
  "shards": 1,
  "shard_size": 1024,
  "completed": 2,
  "failed": 0,
  "timed_out": 0,
  "retried": 0,
  "quarantined": 0,
  "total_fuel_as": 3513.9422213608495,
  "fuel_p50_as": 995.2784326397796,
  "fuel_p99_as": 2518.66378872107,
  "total_deficit_time_s": 0.0,
  "deficit_p50_s": 0.0,
  "deficit_p99_s": 0.0,
  "mean_stack_current_a": 0.9111257406188287,
  "total_sim_time_s": 3856.7039264791388,
  "chunks_stepped": 0,
  "chunks_coalesced": 7996,
  "policy_consultations": 780,
  "jobs_per_sec_nominal": 227.89425706472198,
  "per_shard": [
    {
      "shard": 0,
      "jobs": 2,
      "completed": 2,
      "failed": 0,
      "timed_out": 0,
      "fuel_as": 3513.9422213608495,
      "deficit_time_s": 0.0
    }
  ]
}"#;

#[test]
fn pretty_grid_and_aggregate_of_a_tiny_run() {
    let dir = scratch("run");
    let config = GridConfig {
        workers: 1,
        out_dir: dir.clone(),
        ..GridConfig::default()
    };
    let run = fcdpm_grid::run(&tiny_grid(), &config).expect("runs");
    let read = |name: &str| std::fs::read_to_string(run.dir.join(name)).expect("reads");
    assert_eq!(read("grid.json"), GRID_JSON);
    assert_eq!(read("aggregate.json"), AGGREGATE_JSON);
    let _ = std::fs::remove_dir_all(&dir);
}
