//! Probes of single public calls, timed by the benchmark after the traced
//! pass: the compile / verify / load / quantize steps every campaign repeats,
//! the golden-cache build, and single-device inference per image under each
//! fault class the workloads use.

use std::collections::BTreeMap;
use std::time::Instant;

use nvfi::campaign::GOLDEN_CACHE_DEFAULT_BYTES;
use nvfi::{
    DevicePool, EmulationPlatform, GoldenActivationCache, PlatformConfig, QuantizedEvalSet,
};
use nvfi_accel::{Accelerator, FaultConfig, FaultKind};
use nvfi_compiler::regmap::MultId;
use nvfi_obs::trace;

use crate::layers::median;
use crate::workloads::{pulse_window, Setup, STUCK_KIND};

/// Repeats of each sub-second call; the probe reports their median.
const REPEATS: usize = 5;

fn time_ms<T>(name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
    let _s = trace::span(name);
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, out)
}

fn median_ms<T>(name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..REPEATS).map(|_| time_ms(name, &mut f).0).collect();
    median(&times)
}

/// Runs every probe on the workload's model and images.
///
/// # Errors
///
/// Returns a message when a probed call fails.
pub fn run(setup: &Setup, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let model = &setup.fixture.model;
    let images = &setup.fixture.eval.images;
    let config = PlatformConfig::default();

    let plan =
        nvfi_compiler::compile(model, config.accel.dram_capacity).map_err(|e| e.to_string())?;
    m.insert(
        "compiler.compile_ms",
        median_ms("bench.compile", || {
            nvfi_compiler::compile(model, config.accel.dram_capacity)
        }),
    );
    m.insert(
        "compiler.verify_ms",
        median_ms("bench.verify_plan", || {
            nvfi_compiler::verify::verify_plan(&plan)
        }),
    );
    m.insert(
        "accel.load_ms",
        median_ms("bench.load_plan", || {
            Accelerator::new(config.accel).load_plan(&plan)
        }),
    );
    m.insert(
        "core.quantize_ms",
        median_ms("bench.quantize", || QuantizedEvalSet::build(model, images)),
    );

    let qset = QuantizedEvalSet::build(model, images);
    let n = qset.len() as f64;
    let window = pulse_window(setup.total_mac_cycles);
    let mut device = EmulationPlatform::from_plan(plan, config).map_err(|e| e.to_string())?;
    let (golden_ms, golden) = time_ms("bench.golden_build", || {
        GoldenActivationCache::build(&mut device, &qset, &window, GOLDEN_CACHE_DEFAULT_BYTES)
    });
    let golden = golden.map_err(|e| e.to_string())?;
    m.insert("core.golden_build_ms", golden_ms);

    let mut pool = DevicePool::from_device(device, 1);
    let one = vec![MultId::new(0, 0)];
    let seven: Vec<MultId> = (0..7).map(|i| MultId::new(i, i)).collect();
    let per_image = [
        ("accel.clean_ms_per_img", None),
        (
            "accel.const1_ms_per_img",
            Some(FaultConfig::new(one.clone(), FaultKind::Constant(1))),
        ),
        (
            "accel.const7_ms_per_img",
            Some(FaultConfig::new(seven, FaultKind::Constant(1))),
        ),
        (
            "accel.stuckbits1_ms_per_img",
            Some(FaultConfig::new(one.clone(), STUCK_KIND)),
        ),
    ];
    for (name, fault) in per_image {
        if let Some(f) = &fault {
            pool.inject(f);
        }
        let (ms, preds) = time_ms("bench.classify", || pool.classify_i8(&qset));
        preds.map_err(|e| e.to_string())?;
        pool.clear_faults();
        m.insert(name, ms / n);
    }

    pool.inject(&FaultConfig::new(one, FaultKind::Constant(1)));
    pool.set_fault_window(Some(window))
        .map_err(|e| e.to_string())?;
    for (name, cache) in [
        ("accel.pulse_ms_per_img", None),
        ("core.pulse_golden_ms_per_img", golden.as_ref()),
    ] {
        let (ms, preds) = time_ms("bench.classify_pulse", || {
            pool.classify_i8_golden(&qset, cache)
        });
        preds.map_err(|e| e.to_string())?;
        m.insert(name, ms / n);
    }
    pool.clear_faults();
    pool.set_fault_window(None).map_err(|e| e.to_string())?;

    let macs = m.get("accel.macs_per_img").copied().unwrap_or(0.0);
    m.insert(
        "accel.clean_gmac_per_s",
        macs / (m["accel.clean_ms_per_img"] * 1e6),
    );
    Ok(())
}
