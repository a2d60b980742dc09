//! JSON round-trips for every serializable public data structure: a
//! derive regression anywhere in the workspace fails here.

use fcdpm::core::optimizer::{Overhead, SlotPlan, SlotProfile, StorageContext};
use fcdpm::device::{SegmentKind, SleepDirective};
use fcdpm::prelude::*;
use fcdpm::workload::{LoadPoint, LoadProfile};

fn round_trip<T>(value: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, value, "round-trip changed the value");
}

#[test]
fn units_round_trip() {
    round_trip(&Amps::new(1.2061));
    round_trip(&Volts::new(18.2));
    round_trip(&Watts::new(14.65));
    round_trip(&Seconds::new(3.03));
    round_trip(&Charge::from_milliamp_minutes(100.0));
    round_trip(&Energy::new(192.0));
    round_trip(&Efficiency::new(0.308));
    round_trip(&fcdpm::units::CurrentRange::dac07());
}

#[test]
fn fuelcell_round_trip() {
    round_trip(&PolarizationCurve::bcs_20w());
    round_trip(&LinearEfficiency::dac07());
    round_trip(&GibbsCoefficient::dac07());
    round_trip(&HydrogenTank::from_stack_charge(Charge::new(5000.0)));
    let mut gauge = FuelGauge::new();
    gauge.consume(Amps::new(0.448), Seconds::new(30.0));
    round_trip(&gauge);
    round_trip(&PolarizationCurve::bcs_20w().point(Amps::new(1.3)));
    round_trip(
        &FcSystem::dac07_variable_fan()
            .operating_point(Amps::new(0.53))
            .expect("in range"),
    );
}

#[test]
fn storage_round_trip() {
    round_trip(&IdealStorage::dac07_supercap());
    round_trip(&SuperCapacitor::dac07());
    round_trip(&LiIonBattery::small_pack());
    round_trip(&KineticBattery::new(Charge::new(60.0), 1.0, 0.25, 0.002));
}

#[test]
fn device_round_trip() {
    round_trip(&presets::dvd_camcorder());
    round_trip(&presets::experiment2_device());
    round_trip(&PowerMode::Sleep);
    round_trip(&SleepDirective::SleepAfter(Seconds::new(3.0)));
    let spec = presets::dvd_camcorder();
    let timeline = SlotTimeline::build(
        &spec,
        Seconds::new(14.0),
        true,
        Seconds::new(3.03),
        spec.mode_current(PowerMode::Run),
    );
    round_trip(&timeline);
    round_trip(&timeline.segments()[0]);
    round_trip(&SegmentKind::WakeUp);
}

#[test]
fn workload_round_trip() {
    round_trip(&CamcorderTrace::dac07().seed(3).build());
    round_trip(&SyntheticTrace::dac07().seed(3).build());
    round_trip(&ParetoTrace::interactive().seed(3).build());
    round_trip(&TaskSlot::new(
        Seconds::new(14.0),
        Seconds::new(3.03),
        Watts::new(14.65),
    ));
    round_trip(&LoadPoint {
        duration: Seconds::new(2.0),
        current: Amps::new(0.5),
    });
    round_trip(&LoadProfile::new(
        "x",
        vec![LoadPoint {
            duration: Seconds::new(2.0),
            current: Amps::new(0.5),
        }],
    ));
    let trace = SyntheticTrace::dac07().seed(1).build();
    round_trip(&trace.stats());
}

#[test]
fn core_round_trip() {
    let profile = SlotProfile::new(
        Seconds::new(20.0),
        Amps::new(0.2),
        Seconds::new(10.0),
        Amps::new(1.2),
    )
    .expect("valid");
    round_trip(&profile);
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));
    round_trip(&storage);
    round_trip(&Overhead::new(
        true,
        Seconds::new(0.5),
        Amps::new(0.4),
        Seconds::new(0.5),
        Amps::new(0.4),
    ));
    let plan: SlotPlan = FuelOptimizer::dac07()
        .plan_slot(&profile, &storage, None)
        .expect("feasible");
    round_trip(&plan);
    round_trip(&plan.case);
}

#[test]
fn sim_round_trip() {
    let scenario = Scenario::experiment1();
    let cap = Charge::from_milliamp_minutes(100.0);
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut storage = IdealStorage::new(cap, cap * 0.5);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    let mut policy = ConvDpm::dac07();
    let metrics = sim
        .run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
        .expect("simulation succeeds")
        .metrics;
    round_trip(&metrics);
}

#[test]
fn runner_round_trip() {
    use fcdpm_runner::{
        run_specs, JobGrid, JobSpec, PolicySpec, PredictorSpec, RunConfig, RunManifest,
        StorageSpec, WorkloadSpec,
    };

    let mut spec = JobSpec::new(PolicySpec::Quantized(6), WorkloadSpec::Experiment2(42));
    spec.storage = Some(StorageSpec::Kibam);
    spec.predictor = Some(PredictorSpec::Regression(8));
    spec.capacity_mamin = Some(50.0);
    spec.beta = Some(0.13);
    round_trip(&spec);

    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
    );
    grid.predictors = Some(vec![PredictorSpec::Oracle, PredictorSpec::LastValue]);
    grid.buffer_path_efficiencies = Some(vec![1.0, 0.9]);
    grid.extra_jobs = Some(vec![spec]);
    round_trip(&grid);

    // A whole manifest, including a Failed record.
    let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
    poison.inject_panic = Some(true);
    let specs = vec![
        JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1)),
        poison,
    ];
    let manifest = run_specs(&specs, &RunConfig::with_workers(1));
    let json = serde_json::to_string(&manifest).expect("serializes");
    let back: RunManifest = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(
        back.deterministic_json(),
        manifest.deterministic_json(),
        "manifest round-trip changed the payload"
    );
}

#[test]
fn runner_spec_ignores_unknown_fields() {
    // Forward compatibility: a spec written by a newer version with extra
    // fields must still load (unknown fields are skipped, missing
    // optional fields default to `None`).
    use fcdpm_runner::{JobGrid, JobSpec, PolicySpec};

    let spec: JobSpec = serde_json::from_str(
        r#"{
            "policy": "FcDpm",
            "workload": { "Experiment1": 7 },
            "some_future_axis": { "nested": [1, 2, 3] }
        }"#,
    )
    .expect("parses despite the unknown field");
    assert_eq!(spec.policy, PolicySpec::FcDpm);
    assert_eq!(spec.capacity_mamin, None);

    let grid: JobGrid = serde_json::from_str(
        r#"{
            "policies": ["Conv"],
            "workloads": [{ "Experiment2": 9 }],
            "schema_version": 99
        }"#,
    )
    .expect("parses despite the unknown field");
    assert_eq!(grid.expand().len(), 1);
}

#[test]
fn dvs_round_trip() {
    use fcdpm::dvs::{DvsDevice, DvsTask};
    round_trip(&DvsDevice::quadratic_example());
    round_trip(
        &DvsTask::new(Seconds::new(2.0), Seconds::new(10.0), Seconds::new(8.0))
            .expect("valid task"),
    );
}

/// Boundary fuzzing of the run-directory formats: `GridSpec`, `JobSpec`,
/// `FaultSchedule` and `GridJobRecord` JSON. Valid values round-trip
/// byte for byte; truncated, flipped, oversized, too-deep and mistagged
/// input is an `Err`, never a panic.
mod boundaries {
    use fcdpm_faults::{
        EfficiencyFade, FaultEvent, FaultKind, FaultSchedule, FuelStarvation, PredictorDropout,
        PredictorNoise, SelfDischarge, StorageFade,
    };
    use fcdpm_grid::{FaultPreset, GridJobRecord, GridSpec, SeedAxis, SeedRange, WorkloadKind};
    use fcdpm_runner::{
        DevicePreset, JobMetrics, JobOutcome, JobSpec, PolicySpec, PredictorSpec, StorageSpec,
        WorkloadSpec,
    };
    use proptest::prelude::*;
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    /// splitmix64 over `state`: the one source of choices below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(state: &mut u64, n: u64) -> u64 {
        next(state) % n
    }

    /// A finite float: half short decimals, half arbitrary bit patterns
    /// (subnormals and extremes included).
    fn float(state: &mut u64) -> f64 {
        if pick(state, 2) == 0 {
            return (pick(state, 2_000_001) as f64 - 1_000_000.0) / 100.0;
        }
        loop {
            let f = f64::from_bits(next(state));
            if f.is_finite() {
                return f;
            }
        }
    }

    fn maybe<T>(state: &mut u64, make: impl FnOnce(&mut u64) -> T) -> Option<T> {
        (pick(state, 2) == 0).then(|| make(state))
    }

    /// A string drawn from characters that need every kind of escape.
    fn text(state: &mut u64) -> String {
        const CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\t', '\u{1}', 'µ', '😀'];
        let len = pick(state, 12);
        (0..len)
            .map(|_| CHARS[pick(state, CHARS.len() as u64) as usize])
            .collect()
    }

    fn schedule(state: &mut u64) -> FaultSchedule {
        let events = (0..pick(state, 5))
            .map(|_| FaultEvent {
                at_s: float(state),
                kind: match pick(state, 6) {
                    0 => FaultKind::EfficiencyFade(EfficiencyFade {
                        alpha_scale: float(state),
                        beta_scale: float(state),
                    }),
                    1 => FaultKind::FuelStarvation(FuelStarvation {
                        until_s: float(state),
                        max_a: float(state),
                    }),
                    2 => FaultKind::StorageFade(StorageFade {
                        capacity_scale: float(state),
                    }),
                    3 => FaultKind::SelfDischarge(SelfDischarge {
                        leak_a: float(state),
                    }),
                    4 => FaultKind::PredictorDropout(PredictorDropout {
                        until_s: float(state),
                    }),
                    _ => FaultKind::PredictorNoise(PredictorNoise {
                        until_s: float(state),
                        magnitude: float(state),
                    }),
                },
            })
            .collect();
        FaultSchedule {
            seed: next(state),
            events,
        }
    }

    fn policy(state: &mut u64) -> PolicySpec {
        match pick(state, 6) {
            0 => PolicySpec::Conv,
            1 => PolicySpec::Asap,
            2 => PolicySpec::FcDpm,
            3 => PolicySpec::WindowedAverage,
            4 => PolicySpec::Quantized(next(state) as usize),
            _ => PolicySpec::Constant(float(state)),
        }
    }

    fn job(state: &mut u64) -> JobSpec {
        let seed = next(state);
        let workload = match pick(state, 4) {
            0 => WorkloadSpec::Experiment1(seed),
            1 => WorkloadSpec::Experiment2(seed),
            2 => WorkloadSpec::MultiDevice(seed),
            _ => WorkloadSpec::Dvs(seed),
        };
        let mut job = JobSpec::new(policy(state), workload);
        job.device = maybe(state, |s| match pick(s, 3) {
            0 => DevicePreset::Default,
            1 => DevicePreset::DvdCamcorder,
            _ => DevicePreset::Experiment2,
        });
        job.storage = maybe(state, |s| match pick(s, 3) {
            0 => StorageSpec::Ideal,
            1 => StorageSpec::SuperCapacitor,
            _ => StorageSpec::Kibam,
        });
        job.predictor = maybe(state, |s| match pick(s, 5) {
            0 => PredictorSpec::Exponential(float(s)),
            1 => PredictorSpec::LastValue,
            2 => PredictorSpec::Regression(pick(s, 64) as usize),
            3 => PredictorSpec::LearningTree,
            _ => PredictorSpec::Oracle,
        });
        job.capacity_mamin = maybe(state, float);
        job.beta = maybe(state, float);
        job.buffer_path_efficiency = maybe(state, float);
        job.faults = maybe(state, schedule);
        job.resilient = maybe(state, |s| pick(s, 2) == 0);
        job.inject_panic = maybe(state, |s| pick(s, 2) == 0);
        job
    }

    fn grid(state: &mut u64) -> GridSpec {
        let seeds = if pick(state, 2) == 0 {
            SeedAxis::List((0..pick(state, 4)).map(|_| next(state)).collect())
        } else {
            SeedAxis::Range(SeedRange {
                start: next(state),
                count: next(state),
            })
        };
        const KINDS: [WorkloadKind; 4] = [
            WorkloadKind::Experiment1,
            WorkloadKind::Experiment2,
            WorkloadKind::MultiDevice,
            WorkloadKind::Dvs,
        ];
        const PRESETS: [FaultPreset; 6] = [
            FaultPreset::None,
            FaultPreset::Starvation,
            FaultPreset::Fade,
            FaultPreset::Storage,
            FaultPreset::Predictor,
            FaultPreset::Combined,
        ];
        let workloads = (0..pick(state, 4))
            .map(|_| KINDS[pick(state, 4) as usize])
            .collect();
        let policies = (0..pick(state, 4)).map(|_| policy(state)).collect();
        let mut grid = GridSpec::new(seeds, workloads, policies);
        grid.name = maybe(state, text);
        grid.faults = maybe(state, |s| {
            (0..pick(s, 4))
                .map(|_| PRESETS[pick(s, 6) as usize])
                .collect()
        });
        grid.capacities_mamin = maybe(state, |s| (0..pick(s, 3)).map(|_| float(s)).collect());
        grid.resilient = maybe(state, |s| {
            (0..pick(s, 3)).map(|_| pick(s, 2) == 0).collect()
        });
        grid.inject_panic = maybe(state, |s| pick(s, 2) == 0);
        grid
    }

    fn record(state: &mut u64) -> GridJobRecord {
        let outcome = match pick(state, 3) {
            0 => JobOutcome::Completed(JobMetrics {
                fuel_as: float(state),
                mean_stack_current_a: float(state),
                conversion_efficiency: float(state),
                lifetime_h: float(state),
                duration_s: float(state),
                sleeps: next(state) as usize,
                slots: next(state) as usize,
                bled_as: float(state),
                deficit_as: float(state),
                deficit_time_s: float(state),
                final_soc_as: float(state),
                chunks_stepped: next(state),
                chunks_coalesced: next(state),
                policy_consultations: next(state),
                faults_applied: next(state),
                degradations: next(state),
                time_in_fallback_s: float(state),
                fault_deficit_time_s: float(state),
            }),
            1 => JobOutcome::Failed(text(state)),
            _ => JobOutcome::TimedOut,
        };
        GridJobRecord {
            index: next(state),
            id: text(state),
            digest: format!("{:016x}", next(state)),
            outcome,
            attempts: next(state) as u32,
        }
    }

    /// Start offsets of the number tokens in `json` (outside strings).
    fn number_starts(json: &str) -> Vec<usize> {
        let bytes = json.as_bytes();
        let (mut starts, mut in_string, mut escaped, mut prev) = (Vec::new(), false, false, b' ');
        for (at, &b) in bytes.iter().enumerate() {
            if in_string {
                match (escaped, b) {
                    (true, _) => escaped = false,
                    (false, b'\\') => escaped = true,
                    (false, b'"') => in_string = false,
                    _ => {}
                }
            } else if b == b'"' {
                in_string = true;
            } else if (b == b'-' || b.is_ascii_digit()) && matches!(prev, b':' | b'[' | b',') {
                starts.push(at);
            }
            prev = b;
        }
        starts
    }

    /// The end of the number token starting at `start`.
    fn number_end(json: &str, start: usize) -> usize {
        start
            + json[start..]
                .bytes()
                .take_while(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
                .count()
    }

    /// Every boundary property for one valid `value`; `tags` are
    /// enum-tag spellings its JSON may hold, each swapped for an unknown
    /// one.
    fn check<T>(value: &T, state: &mut u64, tags: &[(&str, &str)]) -> Result<(), String>
    where
        T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
        let back: T = serde_json::from_str(&json).map_err(|e| format!("{e}: {json}"))?;
        prop_assert_eq!(&back, value);
        prop_assert_eq!(
            serde_json::to_string(&back).map_err(|e| e.to_string())?,
            json
        );

        // Truncation at every byte.
        for cut in 0..json.len() {
            if let Some(prefix) = json.get(..cut) {
                prop_assert!(
                    serde_json::from_str::<T>(prefix).is_err(),
                    "prefix {prefix:?} parsed"
                );
            }
        }

        // Single-byte flips and garbage bytes: any outcome but a panic,
        // and whatever is accepted re-serializes to itself.
        for _ in 0..16 {
            let mut bytes = json.clone().into_bytes();
            let at = pick(state, bytes.len() as u64) as usize;
            bytes[at] = if pick(state, 2) == 0 {
                bytes[at] ^ (1 << pick(state, 8))
            } else {
                next(state) as u8
            };
            let Ok(mangled) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if let Ok(accepted) = serde_json::from_str::<T>(mangled) {
                let again = serde_json::to_string(&accepted).map_err(|e| e.to_string())?;
                prop_assert_eq!(serde_json::from_str::<T>(&again).ok(), Some(accepted));
            }
        }
        const ALPHABET: &[u8] = b" {}[]:,\"\\-+.0123456789eEtrufalsn";
        let garbage: String = (0..pick(state, 64))
            .map(|_| char::from(ALPHABET[pick(state, ALPHABET.len() as u64) as usize]))
            .collect();
        let _ = serde_json::from_str::<T>(&garbage);

        // Huge and non-finite numbers.
        let starts = number_starts(&json);
        if !starts.is_empty() {
            let start = starts[pick(state, starts.len() as u64) as usize];
            let end = number_end(&json, start);
            for huge in ["1e400", "-1e999", "1e309"] {
                let mangled = format!("{}{huge}{}", &json[..start], &json[end..]);
                prop_assert!(
                    serde_json::from_str::<T>(&mangled).is_err(),
                    "non-finite {mangled} parsed"
                );
            }
        }

        // Deep nesting: ignored in an unknown field below the limit, an
        // error past it, and an error in place of the whole value.
        if json.starts_with('{') {
            let nested = |depth: usize, close: bool| {
                let closing = if close {
                    "]".repeat(depth)
                } else {
                    String::new()
                };
                format!(
                    "{{\"unknown\":{}{closing},{}",
                    "[".repeat(depth),
                    &json[1..]
                )
            };
            if json.len() > 2 {
                let shallow: T =
                    serde_json::from_str(&nested(100, true)).map_err(|e| e.to_string())?;
                prop_assert_eq!(&shallow, value);
            }
            prop_assert!(serde_json::from_str::<T>(&nested(200, true)).is_err());
            prop_assert!(serde_json::from_str::<T>(&nested(100_000, false)).is_err());
        }
        prop_assert!(serde_json::from_str::<T>(&"[".repeat(100_000)).is_err());

        // Unknown enum tags.
        for (tag, unknown) in tags {
            if json.contains(tag) {
                let mangled = json.replacen(tag, unknown, 1);
                prop_assert!(
                    serde_json::from_str::<T>(&mangled).is_err(),
                    "unknown tag {mangled} parsed"
                );
            }
        }
        Ok(())
    }

    const SPEC_TAGS: [(&str, &str); 6] = [
        ("\"policy\":\"", "\"policy\":\"Bogus"),
        ("\"policy\":{\"", "\"policy\":{\"Bogus"),
        ("\"workload\":{\"", "\"workload\":{\"Bogus"),
        ("\"storage\":\"", "\"storage\":\"Bogus"),
        ("\"kind\":{\"", "\"kind\":{\"Bogus"),
        ("\"predictor\":", "\"predictor\":\"Bogus\",\"x\":"),
    ];

    proptest! {
        #[test]
        fn job_spec_boundaries(seed in 0u64..u64::MAX) {
            let mut state = seed;
            check(&job(&mut state), &mut state, &SPEC_TAGS)?;
        }

        #[test]
        fn grid_spec_boundaries(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let tags = [
                ("\"workloads\":[\"", "\"workloads\":[\"Bogus"),
                ("\"faults\":[\"", "\"faults\":[\"Bogus"),
                ("\"seeds\":{\"", "\"seeds\":{\"Bogus"),
                ("\"policies\":[\"", "\"policies\":[\"Bogus"),
            ];
            check(&grid(&mut state), &mut state, &tags)?;
        }

        #[test]
        fn fault_schedule_boundaries(seed in 0u64..u64::MAX) {
            let mut state = seed;
            check(&schedule(&mut state), &mut state, &SPEC_TAGS)?;
        }

        #[test]
        fn grid_job_record_boundaries(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let tags = [
                ("\"outcome\":{\"", "\"outcome\":{\"Bogus"),
                ("\"outcome\":\"", "\"outcome\":\"Bogus"),
            ];
            check(&record(&mut state), &mut state, &tags)?;
        }
    }

    /// What JSON rejects, each once accepted or mangled by the parser.
    #[test]
    fn out_of_grammar_input_is_rejected() {
        let spec = r#"{"policy":"Conv","workload":{"Experiment1":1},"capacity_mamin":1e999}"#;
        assert!(serde_json::from_str::<JobSpec>(spec).is_err());
        assert!(serde_json::from_str::<f64>("1e400").is_err());
        assert!(serde_json::from_str::<u64>("18446744073709551616.0").is_err());
        assert!(serde_json::from_str::<i64>("9223372036854775808.0").is_err());
        assert!(serde_json::from_str::<u64>("01").is_err());
        assert!(serde_json::from_str::<f64>("-01.5").is_err());
        let deep = "[".repeat(1_000_000);
        let err = serde_json::from_str::<serde_json::Value>(&deep).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let seed = r#"{"policy":"Conv","workload":{"Experiment1":18446744073709551616}}"#;
        assert!(serde_json::from_str::<JobSpec>(seed).is_err());
        let max = r#"{"policy":"Conv","workload":{"Experiment1":18446744073709551615}}"#;
        let job: JobSpec = serde_json::from_str(max).expect("u64::MAX is in range");
        assert_eq!(job.workload, WorkloadSpec::Experiment1(u64::MAX));
    }

    /// The acceptance rules the streaming parser keeps.
    #[test]
    fn lenient_rules_still_hold() {
        // Integer literals for float fields, integral floats for integer
        // fields, absent options as `None`, unknown fields ignored.
        let spec = r#"{"workload":{"Experiment2":9.0},"policy":{"Constant":1},"extra":{"a":[1,{}]},"capacity_mamin":50}"#;
        let job: JobSpec = serde_json::from_str(spec).expect("parses");
        assert_eq!(job.policy, PolicySpec::Constant(1.0));
        assert_eq!(job.workload, WorkloadSpec::Experiment2(9));
        assert_eq!(job.capacity_mamin, Some(50.0));
        assert_eq!(job.faults, None);
        let err = serde_json::from_str::<JobSpec>(r#"{"policy":"Conv"}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `workload`");
        // Unit and newtype enum forms, and nothing in between.
        assert!(serde_json::from_str::<PolicySpec>(r#""FcDpm""#).is_ok());
        assert!(serde_json::from_str::<PolicySpec>(r#"{"Quantized":4}"#).is_ok());
        assert!(serde_json::from_str::<PolicySpec>(r#"{"FcDpm":4}"#).is_err());
        assert!(serde_json::from_str::<PolicySpec>(r#""Quantized""#).is_err());
        assert!(serde_json::from_str::<PolicySpec>(r#"{"Quantized":4,"Conv":1}"#).is_err());
        // Serializing NaN or an infinity is still an error.
        assert!(serde_json::to_string(&PolicySpec::Constant(f64::NAN)).is_err());
    }
}
