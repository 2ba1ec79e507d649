//! Reproducibility: identical seeds give identical campaign results, across
//! process lifetimes and worker-thread counts.

use zynq_nvdla_fi::nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use zynq_nvdla_fi::nvfi::PlatformConfig;
use zynq_nvdla_fi::nvfi_accel::FaultKind;
use zynq_nvdla_fi::nvfi_dataset::{SynthCifar, SynthCifarConfig};

#[test]
fn same_seed_same_everything() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 2);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 8,
        ..Default::default()
    })
    .generate();
    let spec = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 3,
            trials: 4,
            seed: 77,
        },
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
        eval_images: 6,
        threads: 1,
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let a = campaign.run(&spec, &data.test).unwrap();
    let b = campaign.run(&spec, &data.test).unwrap();
    assert_eq!(a.baseline_accuracy, b.baseline_accuracy);
    assert_eq!(a.records, b.records);

    // Different seed: different target draws.
    let spec2 = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 3,
            trials: 4,
            seed: 78,
        },
        ..spec.clone()
    };
    let c = campaign.run(&spec2, &data.test).unwrap();
    let targets_a: Vec<_> = a.records.iter().map(|r| r.targets.clone()).collect();
    let targets_c: Vec<_> = c.records.iter().map(|r| r.targets.clone()).collect();
    assert_ne!(targets_a, targets_c);
}

/// The tentpole guarantee of device-pool sharding: a campaign whose work
/// list is narrower than the thread budget (here 1 configuration across 8
/// threads, so the whole budget becomes one wide pool) produces records
/// bit-identical to the single-device, single-threaded run.
#[test]
fn sharded_pool_matches_single_device() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 9);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 24,
        ..Default::default()
    })
    .generate();
    let mk = |threads| CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![
            zynq_nvdla_fi::nvfi_compiler::regmap::MultId::new(1, 3),
        ]]),
        kinds: vec![FaultKind::Constant(-1)],
        eval_images: 24,
        threads,
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let single = campaign.run(&mk(1), &data.test).unwrap();
    // threads > work items: all 8 devices shard the one configuration.
    let sharded = campaign.run(&mk(8), &data.test).unwrap();
    assert_eq!(single.baseline_accuracy, sharded.baseline_accuracy);
    assert_eq!(single.records, sharded.records);
    assert_eq!(single.total_inferences, sharded.total_inferences);
}

/// Shard granularity (the device mini-batch) is a pure scheduling knob:
/// any `accel.batch` merges to the same records.
#[test]
fn shard_granularity_does_not_change_results() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 21);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 13,
        ..Default::default()
    })
    .generate();
    let spec = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 2,
            trials: 2,
            seed: 3,
        },
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 13,
        threads: 5,
        ..Default::default()
    };
    let run_with_granularity = |batch| {
        let mut config = PlatformConfig::default();
        config.accel.batch = batch;
        Campaign::new(&q, config).run(&spec, &data.test).unwrap()
    };
    let a = run_with_granularity(8);
    let b = run_with_granularity(1);
    let c = run_with_granularity(7);
    assert_eq!(a.records, b.records);
    assert_eq!(a.records, c.records);
}

/// End-to-end coverage of the exact-engine degradation under transient
/// fault windows (`Accelerator::set_fault_window`), previously only covered
/// per-inference: a campaign with a window must produce identical records
/// through the sharded pool and the single-device path, because cycle
/// numbering is per-inference and thus placement-invariant.
#[test]
fn transient_window_campaign_is_shard_invariant() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 15);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 10,
        ..Default::default()
    })
    .generate();
    let all_mults: Vec<_> = zynq_nvdla_fi::nvfi_compiler::regmap::MultId::all().collect();
    let mk = |threads| CampaignSpec {
        selection: TargetSelection::Fixed(vec![all_mults.clone()]),
        kinds: vec![FaultKind::Constant(131071)],
        eval_images: 10,
        threads,
        // A mid-inference pulse: the window's ops run lane-delta and the
        // rest the clean GEMM, in mini-batch launches (a windowed batch runs
        // batched; only ExecMode::Exact splits one), end-to-end through
        // Campaign::run.
        fault_window: Some(50..5_000),
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let single = campaign.run(&mk(1), &data.test).unwrap();
    let sharded = campaign.run(&mk(6), &data.test).unwrap();
    assert_eq!(single.records, sharded.records);

    // Sanity: the pulse is really narrower than a permanent fault — the
    // same configuration without a window must not be *less* disruptive.
    let mut permanent_spec = mk(1);
    permanent_spec.fault_window = None;
    let permanent = campaign.run(&permanent_spec, &data.test).unwrap();
    assert!(
        permanent.records[0].outcomes.sdc >= single.records[0].outcomes.sdc,
        "a permanent full-array fault cannot corrupt fewer images than its pulse"
    );
}

/// Tentpole guarantee of the quantize-once hot path: classifying through
/// the campaign-lifetime borrowed-i8 set (`DevicePool::classify_i8` over a
/// `QuantizedEvalSet`) is bit-identical to the f32 quantize-per-call path,
/// across shard granularities and fault kinds — including the full-array
/// huge-constant fault and a fault-free pool.
#[test]
fn i8_path_matches_f32_path_across_shards_and_kinds() {
    use zynq_nvdla_fi::nvfi::pool::{DevicePool, QuantizedEvalSet};
    use zynq_nvdla_fi::nvfi_accel::FaultConfig;
    use zynq_nvdla_fi::nvfi_compiler::regmap::MultId;

    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 33);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 14,
        ..Default::default()
    })
    .generate();
    let kinds = [
        None,
        Some(FaultKind::StuckAtZero),
        Some(FaultKind::Constant(-1)),
        Some(FaultKind::Constant(131071)),
    ];
    for batch in [8usize, 1, 5] {
        let mut config = PlatformConfig::default();
        config.accel.batch = batch;
        let mut pool = DevicePool::assemble(&q, config, 3).unwrap();
        let qset = QuantizedEvalSet::build(&q, &data.test.images);
        for kind in kinds {
            match kind {
                Some(k) => pool.inject(&FaultConfig::new(
                    vec![MultId::new(1, 2), MultId::new(4, 4)],
                    k,
                )),
                None => pool.clear_faults(),
            }
            let via_f32 = pool.classify(&data.test.images).unwrap();
            let via_i8 = pool.classify_i8(&qset).unwrap();
            assert_eq!(
                via_f32, via_i8,
                "i8/f32 parity broke (batch={batch}, kind={kind:?})"
            );
        }
    }
}

/// The tentpole guarantee of op-scoped execution + golden-prefix caching:
/// a windowed campaign produces bit-identical `CampaignResult` records
/// through all three execution strategies —
///
/// 1. **all-exact** (`ExecMode::Exact`): every op of every inference
///    through the per-product engine, the pre-PR behaviour;
/// 2. **op-scoped** (`ExecMode::Auto`, cache disabled): clean prefix,
///    lane-delta window ops, clean suffix, prefix recomputed per work item;
/// 3. **op-scoped + golden cache** (the default): the fault-free prefix is
///    captured once per image and restored per work item.
#[test]
fn windowed_campaign_three_paths_are_bit_identical() {
    use zynq_nvdla_fi::nvfi_accel::{AccelConfig, ExecMode};

    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 9);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 9,
        ..Default::default()
    })
    .generate();
    // A pulse over the third quarter of the inference: a real golden prefix
    // (half the plan), a real fast suffix (the last quarter), and — on this
    // seed — visible prediction corruption, so the bit-identity assertions
    // below compare non-trivial records.
    let total = zynq_nvdla_fi::nvfi::EmulationPlatform::assemble(&q, PlatformConfig::default())
        .unwrap()
        .accel()
        .total_mac_cycles()
        .unwrap();
    let window = total / 2..total * 3 / 4;
    let mk = |mode, golden_cache_bytes| {
        let config = PlatformConfig {
            accel: AccelConfig {
                mode,
                ..Default::default()
            },
        };
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![zynq_nvdla_fi::nvfi_compiler::regmap::MultId::new(1, 3)],
                zynq_nvdla_fi::nvfi_compiler::regmap::MultId::all().collect(),
            ]),
            kinds: vec![FaultKind::Constant(131071)],
            eval_images: 9,
            threads: 3,
            fault_window: Some(window.clone()),
            golden_cache_bytes,
            ..Default::default()
        };
        Campaign::new(&q, config).run(&spec, &data.test).unwrap()
    };
    let all_exact = mk(ExecMode::Exact, 0);
    let op_scoped = mk(ExecMode::Auto, 0);
    let cached = mk(ExecMode::Auto, usize::MAX);
    assert_eq!(all_exact.baseline_accuracy, op_scoped.baseline_accuracy);
    assert_eq!(all_exact.baseline_accuracy, cached.baseline_accuracy);
    assert_eq!(
        all_exact.records, op_scoped.records,
        "op-scoped execution changed windowed records"
    );
    assert_eq!(
        all_exact.records, cached.records,
        "golden-prefix restore changed windowed records"
    );
    assert_eq!(all_exact.total_inferences, cached.total_inferences);
    // Sanity: the pulse really corrupts something, so the equalities above
    // compare non-trivial records.
    assert!(
        cached.records.iter().any(|r| r.outcomes.sdc > 0),
        "a mid-inference all-lane max-value pulse must corrupt something"
    );
}

/// A golden-cache byte budget too small for the whole evaluation set
/// checkpoints only the leading images; the rest recompute their prefix.
/// Records must be bit-identical for every budget, including zero.
#[test]
fn golden_cache_budget_fallback_is_bit_identical() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 29);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 7,
        ..Default::default()
    })
    .generate();
    let total = zynq_nvdla_fi::nvfi::EmulationPlatform::assemble(&q, PlatformConfig::default())
        .unwrap()
        .accel()
        .total_mac_cycles()
        .unwrap();
    let mk = |golden_cache_bytes| CampaignSpec {
        selection: TargetSelection::Fixed(vec![zynq_nvdla_fi::nvfi_compiler::regmap::MultId::all(
        )
        .collect()]),
        kinds: vec![FaultKind::Constant(131071)],
        eval_images: 7,
        threads: 2,
        fault_window: Some(total / 2..total / 2 + 500),
        golden_cache_bytes,
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let unlimited = campaign.run(&mk(usize::MAX), &data.test).unwrap();
    // Enough for roughly half the images (stride is a few KiB on this
    // fixture), and a budget of one byte (holds zero images).
    let partial = campaign.run(&mk(16 * 1024), &data.test).unwrap();
    let starved = campaign.run(&mk(1), &data.test).unwrap();
    let disabled = campaign.run(&mk(0), &data.test).unwrap();
    assert_eq!(unlimited.records, partial.records);
    assert_eq!(unlimited.records, starved.records);
    assert_eq!(unlimited.records, disabled.records);
}

/// A transient window that cannot overlap any MAC cycle of the compiled
/// plan used to run a silent fault-free campaign at exact-engine cost; now
/// it is rejected up front with the engine's message.
#[test]
fn window_past_the_end_is_rejected() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 2);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 4,
        ..Default::default()
    })
    .generate();
    let total = zynq_nvdla_fi::nvfi::EmulationPlatform::assemble(&q, PlatformConfig::default())
        .unwrap()
        .accel()
        .total_mac_cycles()
        .unwrap();
    let spec = CampaignSpec {
        selection: TargetSelection::ExhaustiveSingle,
        eval_images: 4,
        fault_window: Some(total * 2..total * 3),
        ..Default::default()
    };
    let err = Campaign::new(&q, PlatformConfig::default())
        .run(&spec, &data.test)
        .unwrap_err();
    assert!(
        err.to_string().contains("cannot overlap any MAC cycle"),
        "unexpected error: {err}"
    );
}

#[test]
#[should_panic(expected = "expands to no target sets")]
fn empty_fixed_selection_is_rejected() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 2);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 4,
        ..Default::default()
    })
    .generate();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![]),
        eval_images: 4,
        ..Default::default()
    };
    let _ = Campaign::new(&q, PlatformConfig::default()).run(&spec, &data.test);
}

#[test]
#[should_panic(expected = "expands to no target sets")]
fn zero_trial_selection_is_rejected() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 2);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 4,
        ..Default::default()
    })
    .generate();
    let spec = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 3,
            trials: 0,
            seed: 1,
        },
        eval_images: 4,
        ..Default::default()
    };
    let _ = Campaign::new(&q, PlatformConfig::default()).run(&spec, &data.test);
}

#[test]
fn thread_count_does_not_change_results() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 3);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 8,
        ..Default::default()
    })
    .generate();
    let mk = |threads| CampaignSpec {
        selection: TargetSelection::ExhaustiveSingle,
        kinds: vec![FaultKind::Constant(1)],
        eval_images: 4,
        threads,
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let single = campaign.run(&mk(1), &data.test).unwrap();
    let multi = campaign.run(&mk(3), &data.test).unwrap();
    assert_eq!(single.records, multi.records);
}
