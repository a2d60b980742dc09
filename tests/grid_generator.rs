//! Property tests pinning the lazy grid decoder to eager expansion.
//!
//! The fleet engine's correctness rests on one invariant: the
//! mixed-radix decoder behind `GridSpec::job_at` (used for iteration,
//! random access and shard slicing) and the nested-loop reference
//! expansion `expand_eager` describe the *same* job sequence. These
//! tests generate small random grids over every axis combination and
//! require count, ordering, specs and deterministic job ids to agree
//! bit for bit. A third pins the single digest: the engine derives each
//! record's job ID from the spec digest it already holds, and both must
//! stay the FNV-1a hash of the spec's canonical JSON that every record
//! on disk was keyed with.

use fcdpm_grid::{FaultPreset, GridSpec, SeedAxis, SeedRange, WorkloadKind};
use fcdpm_runner::spec::fnv1a;
use fcdpm_runner::PolicySpec;
use proptest::prelude::*;

const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Experiment1,
    WorkloadKind::Experiment2,
    WorkloadKind::MultiDevice,
];

const POLICIES: [PolicySpec; 5] = [
    PolicySpec::Conv,
    PolicySpec::Asap,
    PolicySpec::FcDpm,
    PolicySpec::WindowedAverage,
    PolicySpec::Quantized(4),
];

const FAULTS: [FaultPreset; 6] = [
    FaultPreset::None,
    FaultPreset::Starvation,
    FaultPreset::Fade,
    FaultPreset::Storage,
    FaultPreset::Predictor,
    FaultPreset::Combined,
];

/// Builds a spec from scalar knobs so every axis shape (list vs range,
/// present vs defaulted, 1..N entries) is reachable from plain integer
/// strategies.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    seed_start: u64,
    seed_count: u64,
    seed_as_list: bool,
    workload_count: usize,
    policy_count: usize,
    fault_count: usize,
    capacity_count: usize,
    resilient_mode: usize,
) -> GridSpec {
    let seeds = if seed_as_list {
        SeedAxis::List((0..seed_count).map(|i| seed_start ^ (i * 7919)).collect())
    } else {
        SeedAxis::Range(SeedRange {
            start: seed_start,
            count: seed_count,
        })
    };
    let mut spec = GridSpec::new(
        seeds,
        WORKLOADS[..workload_count].to_vec(),
        POLICIES[..policy_count].to_vec(),
    );
    if fault_count > 0 {
        spec.faults = Some(FAULTS[..fault_count].to_vec());
    }
    if capacity_count > 0 {
        spec.capacities_mamin = Some(
            (0..capacity_count)
                .map(|i| 50.0 + 25.0 * i as f64)
                .collect(),
        );
    }
    spec.resilient = match resilient_mode {
        0 => None,
        1 => Some(vec![false]),
        _ => Some(vec![false, true]),
    };
    spec
}

proptest! {
    #[test]
    fn lazy_count_ordering_and_ids_match_eager(
        seed_start in 0u64..1_000_000_000,
        seed_count in 1u64..4,
        seed_as_list in any::<bool>(),
        workload_count in 1usize..4,
        policy_count in 1usize..6,
        fault_count in 0usize..4,
        capacity_count in 0usize..3,
        resilient_mode in 0usize..3,
    ) {
        let spec = build_spec(
            seed_start, seed_count, seed_as_list,
            workload_count, policy_count, fault_count,
            capacity_count, resilient_mode,
        );
        prop_assert!(spec.validate().is_ok());

        let eager = spec.expand_eager();
        prop_assert_eq!(eager.len() as u64, spec.total_jobs());
        prop_assert_eq!(spec.iter().count(), eager.len());

        for (index, lazy_job) in spec.iter() {
            let i = usize::try_from(index).expect("small grid");
            prop_assert_eq!(&lazy_job, &eager[i], "spec diverges at index {}", index);
            prop_assert_eq!(
                lazy_job.id(i),
                eager[i].id(i),
                "job id diverges at index {}", index
            );
            prop_assert_eq!(
                fcdpm_grid::spec_digest(&lazy_job),
                fcdpm_grid::spec_digest(&eager[i])
            );
        }
    }

    #[test]
    fn digest_derived_ids_are_job_ids(
        seed_start in 0u64..1_000_000_000,
        seed_count in 1u64..3,
        seed_as_list in any::<bool>(),
        workload_count in 1usize..4,
        policy_count in 1usize..6,
        fault_count in 0usize..4,
        capacity_count in 0usize..3,
        resilient_mode in 0usize..3,
    ) {
        let spec = build_spec(
            seed_start, seed_count, seed_as_list,
            workload_count, policy_count, fault_count,
            capacity_count, resilient_mode,
        );
        for (index, job) in spec.iter() {
            let i = usize::try_from(index).expect("small grid");
            let canonical = serde_json::to_string(&job).expect("serializes");
            let digest = fcdpm_grid::spec_digest(&job);
            prop_assert_eq!(digest, job.digest());
            prop_assert_eq!(digest, fnv1a(canonical.as_bytes()));
            // What the engine writes as the record's ID.
            let engine_id = job.id_from_digest(i, digest);
            prop_assert_eq!(&engine_id, &job.id(i), "id diverges at index {}", index);
            prop_assert_eq!(
                engine_id,
                format!("job-{i:04}-{}-{:08x}", job.policy.label(), digest as u32)
            );
        }
    }

    #[test]
    fn random_access_agrees_with_iteration(
        seed_start in 0u64..1_000_000_000,
        policy_count in 1usize..6,
        fault_count in 0usize..4,
    ) {
        let spec = build_spec(seed_start, 2, false, 2, policy_count, fault_count, 0, 0);
        let via_iter: Vec<_> = spec.iter().collect();
        // Probe out of order: decoding must not depend on visit order.
        for probe in [spec.total_jobs() - 1, 0, spec.total_jobs() / 2] {
            let job = spec.job_at(probe).expect("in range");
            let i = usize::try_from(probe).expect("small grid");
            prop_assert_eq!(&job, &via_iter[i].1);
        }
        prop_assert!(spec.job_at(spec.total_jobs()).is_none());
    }
}
