//! Beyond the paper's 0/+1/-1 experiments: bit-granular and transient
//! faults, expressed with the same `fsel`/`fdata` registers ("other fault
//! models can easily be incorporated", Sec. II).
//!
//! * a single-bit stuck-at-1 on the product sign wire (bit 17);
//! * a transient ("pulse") fault active only for a window of MAC cycles.
//!
//! Run with: `cargo run --release --example custom_fault_model`

use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::{FaultConfig, FaultKind};
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qmodel = nvfi::experiments::untrained_quant_model(8, 3);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 4,
        ..Default::default()
    })
    .generate();
    let image = data.test.images.slice_image(0);

    // The default engine applies bit-granular faults lane by lane on top
    // of the clean GEMM, bit-identical to `ExecMode::Exact`.
    let mut platform = EmulationPlatform::assemble(&qmodel, PlatformConfig::default())?;
    let clean = platform.run(&image)?.logits;
    println!("clean logits:          {clean:?}");

    // Sign wire (bit 17) stuck at 1: every product on the lane becomes
    // strongly negative.
    let sign_stuck = FaultConfig::new(
        vec![MultId::new(2, 3)],
        FaultKind::StuckBits {
            fsel: 1 << 17,
            fdata: 1 << 17,
        },
    );
    platform.inject(&sign_stuck);
    let faulted = platform.run(&image)?.logits;
    println!("sign-bit stuck-at-1:   {faulted:?}");
    assert_ne!(clean, faulted);
    platform.clear_faults();

    // LSB stuck-at-1: a barely visible perturbation.
    platform.inject(&FaultConfig::new(
        vec![MultId::new(2, 3)],
        FaultKind::StuckBits { fsel: 1, fdata: 1 },
    ));
    let lsb = platform.run(&image)?.logits;
    println!("lsb stuck-at-1:        {lsb:?}");
    platform.clear_faults();

    // Bit-flip (XOR) fault — a model beyond the paper's mux, added through
    // the extension register REG_FI_XOR.
    platform.inject(&FaultConfig::new(
        vec![MultId::new(2, 3)],
        FaultKind::FlipBits { mask: 1 << 16 },
    ));
    let flipped = platform.run(&image)?.logits;
    println!("bit-16 flip:           {flipped:?}");
    assert_ne!(clean, flipped);
    platform.clear_faults();

    // A pulse fault: all lanes forced to the maximum value, but only during
    // a 2000-cycle window mid-inference. Cycle numbering restarts at every
    // inference launch, so the window is relative to inference start and the
    // same pulse hits every image — no offsetting for previous runs needed.
    let total = platform.accel().mac_cycles_retired();
    println!("one inference retires {total} MAC-array cycles");
    platform.inject(&FaultConfig::new(
        MultId::all().collect(),
        FaultKind::Constant(131071),
    ));
    platform
        .accel_mut()
        .set_fault_window(Some(total / 2..total / 2 + 2000))?;
    let pulsed = platform.run(&image)?.logits;
    println!("pulse fault (2k cyc):  {pulsed:?}");
    assert_ne!(
        clean, pulsed,
        "the pulse lands mid-inference and must be visible"
    );
    Ok(())
}
