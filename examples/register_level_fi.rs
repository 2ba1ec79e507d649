//! Driving the platform the way the ARM-side software stack does on the
//! real Zynq: everything through AXI4-Lite register writes and DMA — no
//! high-level API.
//!
//! Run with: `cargo run --release --example register_level_fi`

use nvfi_accel::{AccelConfig, Accelerator};
use nvfi_compiler::plan::encode_reg_stream;
use nvfi_compiler::regmap;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qmodel = nvfi::experiments::untrained_quant_model(8, 5);
    let plan = nvfi_compiler::compile(&qmodel, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY)?;
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 2,
        ..Default::default()
    })
    .generate();

    let mut dev = Accelerator::new(AccelConfig::default());

    // 1. Identify the device.
    let id = dev.csb_read(regmap::REG_ID)?;
    println!("device id register: {id:#010x}");
    assert_eq!(id, regmap::ID_VALUE);

    // 2. Stream the execution plan through the command FIFO.
    let stream = encode_reg_stream(&plan);
    println!(
        "streaming {} descriptor words into the command window",
        stream.len() - 1
    );
    dev.apply_reg_stream(&stream)?;
    dev.commit_cmd_fifo()?;

    // 3. DMA the packed weights into DRAM.
    let mut weight_bytes = 0usize;
    for (addr, bytes) in &plan.weight_image {
        dev.dma_write(*addr, bytes)?;
        weight_bytes += bytes.len();
    }
    println!("DMA'd {weight_bytes} weight bytes");

    // 4. Program a fault purely with register pokes: multipliers 0 and 63,
    //    all 18 wires forced to the encoding of -1.
    let sel: u64 = 1 | (1 << 63);
    dev.csb_write(regmap::REG_FI_SEL_A, sel as u32)?;
    dev.csb_write(regmap::REG_FI_SEL_B, (sel >> 32) as u32)?;
    dev.csb_write(regmap::REG_FI_FSEL, 0x3FFFF)?;
    dev.csb_write(regmap::REG_FI_FDATA, 0x3FFFF)?; // two's-complement -1
    dev.csb_write(regmap::REG_FI_CTRL, 1)?;
    println!(
        "FI registers: sel_a={:#010x} sel_b={:#010x} fsel={:#07x} fdata={:#07x}",
        dev.csb_read(regmap::REG_FI_SEL_A)?,
        dev.csb_read(regmap::REG_FI_SEL_B)?,
        dev.csb_read(regmap::REG_FI_FSEL)?,
        dev.csb_read(regmap::REG_FI_FDATA)?
    );

    // 5. Quantize on the host, run, and read the logits straight out of
    //    DRAM.
    let image = qmodel.quantize_input(&data.test.images.slice_image(0));
    let result = dev.run_inference_i8_view(image.as_slice())?;
    println!(
        "faulted inference: class {} logits {:?}",
        result.class, result.logits
    );

    // 6. Disable FI and compare.
    dev.csb_write(regmap::REG_FI_CTRL, 0)?;
    let clean = dev.run_inference_i8_view(image.as_slice())?;
    println!(
        "clean inference:   class {} logits {:?}",
        clean.class, clean.logits
    );
    assert_ne!(result.logits, clean.logits);
    Ok(())
}
