//! The assembled emulation platform.

use std::fmt;

use nvfi_accel::{AccelConfig, AccelError, Accelerator, FaultConfig, InferenceResult};
use nvfi_compiler::{CompileError, ExecutionPlan};
use nvfi_quant::QuantModel;
use nvfi_tensor::Tensor;

/// Configuration of the assembled platform (the accelerator config plus
/// room for platform-level knobs).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PlatformConfig {
    /// The emulated device configuration. Its mini-batch
    /// ([`AccelConfig::batch`]) is also the shard granularity of a
    /// [`crate::pool::DevicePool`], so a shard never truncates a mini-batch.
    pub accel: AccelConfig,
}

/// Errors from platform assembly or operation.
#[derive(Debug)]
pub enum PlatformError {
    /// Lowering the model failed.
    Compile(CompileError),
    /// The device rejected the plan or an operation.
    Accel(AccelError),
    /// Static verification rejected the plan or the campaign's fault
    /// programs (strict verify mode, or a provable no-op fault kind).
    Verify(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Compile(e) => write!(f, "platform compile error: {e}"),
            PlatformError::Accel(e) => write!(f, "platform device error: {e}"),
            PlatformError::Verify(msg) => write!(f, "platform verification error: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Compile(e) => Some(e),
            PlatformError::Accel(e) => Some(e),
            PlatformError::Verify(_) => None,
        }
    }
}

impl From<CompileError> for PlatformError {
    fn from(e: CompileError) -> Self {
        PlatformError::Compile(e)
    }
}

impl From<AccelError> for PlatformError {
    fn from(e: AccelError) -> Self {
        PlatformError::Accel(e)
    }
}

/// A ready-to-run emulation platform: compiled plan + programmed device.
/// The device runs pre-quantized i8 images; the f32 calls
/// ([`EmulationPlatform::run`], [`EmulationPlatform::classify`],
/// [`EmulationPlatform::accuracy`]) quantize here, with the plan's input
/// scale, before they reach it.
#[derive(Clone, Debug)]
pub struct EmulationPlatform {
    config: PlatformConfig,
    plan: ExecutionPlan,
    accel: Accelerator,
}

impl EmulationPlatform {
    /// Compiles `model` and loads it onto a fresh device.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] if lowering fails or the plan does not fit
    /// the device.
    pub fn assemble(model: &QuantModel, config: PlatformConfig) -> Result<Self, PlatformError> {
        let plan = nvfi_compiler::compile(model, config.accel.dram_capacity)?;
        let mut accel = Accelerator::new(config.accel);
        accel.load_plan(&plan)?;
        Ok(EmulationPlatform {
            config,
            plan,
            accel,
        })
    }

    /// Assembles a platform from an **already compiled** plan: loads it onto
    /// a fresh device without needing the quantized model. This is how a
    /// remote `nvfi-dist` worker programs its device from the wire — the
    /// coordinator compiles once and ships the plan words plus the DRAM
    /// weight image; the worker decodes and calls this. The plan's
    /// [`nvfi_compiler::ExecutionPlan::weight_image`] is preloaded as usual
    /// (it may be empty when weights arrive separately via
    /// [`nvfi_accel::Accelerator::import_weight_image`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] if the plan does not fit the device.
    pub fn from_plan(plan: ExecutionPlan, config: PlatformConfig) -> Result<Self, PlatformError> {
        let mut accel = Accelerator::new(config.accel);
        accel.load_plan(&plan)?;
        Ok(EmulationPlatform {
            config,
            plan,
            accel,
        })
    }

    /// The platform configuration.
    #[must_use]
    pub fn config(&self) -> PlatformConfig {
        self.config
    }

    /// The compiled execution plan.
    #[must_use]
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Mutable access to the device (register pokes, DMA, fault windows).
    pub fn accel_mut(&mut self) -> &mut Accelerator {
        &mut self.accel
    }

    /// Shared access to the device.
    #[must_use]
    pub fn accel(&self) -> &Accelerator {
        &self.accel
    }

    /// Programs a fault configuration.
    pub fn inject(&mut self, fault: &FaultConfig) {
        self.accel.inject(fault);
    }

    /// Disables fault injection.
    pub fn clear_faults(&mut self) {
        self.accel.clear_faults();
    }

    /// Runs one f32 image: quantized here with the plan's input scale, then
    /// run on the device's borrowed-i8 path.
    ///
    /// # Errors
    ///
    /// Returns a [`AccelError::BadPlan`] device error if `image` is not
    /// exactly one plan-shaped image; propagates device errors.
    pub fn run(&mut self, image: &Tensor<f32>) -> Result<InferenceResult, PlatformError> {
        let s = image.shape();
        if s.n != 1 || s != self.plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {} (single image)",
                self.plan.input_shape
            ))
            .into());
        }
        let qimage = self.quantize(image);
        Ok(self.accel.run_inference_i8_view(&qimage)?)
    }

    /// Classifies a batch of f32 images: one quantization pass over the
    /// whole batch, then [`EmulationPlatform::classify_i8`]. Quantization is
    /// elementwise, so the predictions are bit-identical to quantizing per
    /// mini-batch (or per image).
    ///
    /// # Errors
    ///
    /// Returns a [`AccelError::BadPlan`] device error if the images are not
    /// plan-shaped; propagates device errors.
    pub fn classify(&mut self, images: &Tensor<f32>) -> Result<Vec<u8>, PlatformError> {
        let s = images.shape();
        if s.n > 0 && s.with_n(1) != self.plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {}",
                self.plan.input_shape
            ))
            .into());
        }
        let qimages = self.quantize(images);
        self.classify_i8(&qimages)
    }

    /// Classifies a batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices — the zero-copy path a
    /// [`crate::pool::DevicePool`] drives with sub-views of a
    /// campaign-lifetime [`crate::pool::QuantizedEvalSet`].
    ///
    /// # Errors
    ///
    /// Propagates device errors (including a batch length that is not a
    /// whole number of plan input images).
    pub fn classify_i8(&mut self, images: &[i8]) -> Result<Vec<u8>, PlatformError> {
        Ok(self.accel.classify_batch_i8(images)?)
    }

    /// Top-1 accuracy on a labelled set ([`EmulationPlatform::classify`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != images.shape().n`.
    pub fn accuracy(&mut self, images: &Tensor<f32>, labels: &[u8]) -> Result<f64, PlatformError> {
        assert_eq!(images.shape().n, labels.len());
        if labels.is_empty() {
            return Ok(0.0);
        }
        let preds = self.classify(images)?;
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// One quantization pass with the plan's input scale.
    fn quantize(&self, images: &Tensor<f32>) -> Vec<i8> {
        nvfi_quant::batch::quantize_slice(images.as_slice(), self.plan.input_scale)
    }

    /// Modelled single-inference latency in milliseconds (187.5 MHz cycle
    /// model by default).
    #[must_use]
    pub fn modeled_latency_ms(&self) -> f64 {
        nvfi_accel::perf::plan_report(&self.plan, self.config.accel.clock_hz).latency_ms()
    }

    /// Modelled inference throughput (1 / latency).
    #[must_use]
    pub fn modeled_inferences_per_second(&self) -> f64 {
        nvfi_accel::perf::plan_report(&self.plan, self.config.accel.clock_hz)
            .inferences_per_second()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_accel::FaultKind;
    use nvfi_compiler::regmap::MultId;
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};
    use nvfi_nn::fold::fold_resnet;
    use nvfi_nn::resnet::ResNet;
    use nvfi_quant::{quantize, QuantConfig};

    fn setup() -> (QuantModel, nvfi_dataset::TrainTest) {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 16,
            test: 8,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(4, &[1, 1], 10, 3);
        let deploy = fold_resnet(&net, 32);
        (
            quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap(),
            data,
        )
    }

    #[test]
    fn assemble_and_run() {
        let (q, data) = setup();
        let mut p = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let r = p.run(&data.test.images.slice_image(0)).unwrap();
        assert_eq!(r.logits.len(), 10);
        assert!(p.modeled_latency_ms() > 0.0);
        assert!(p.modeled_inferences_per_second() > 0.0);
    }

    #[test]
    fn platform_matches_cpu_reference() {
        let (q, data) = setup();
        let mut p = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let want = q.classify(&data.test.images, 1);
        let got = p.classify(&data.test.images).unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn from_plan_matches_model_assembly() {
        let (q, data) = setup();
        let mut compiled = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        // Ship the plan words + weight image the way a dist worker receives
        // them: the command-stream encoding (weight_image excluded) plus the
        // exported DRAM regions.
        let words = nvfi_compiler::plan::encode_words(compiled.plan());
        let image = compiled.accel_mut().export_weight_image().unwrap();
        let decoded = nvfi_compiler::plan::decode_words(&words).unwrap();
        let mut shipped = EmulationPlatform::from_plan(decoded, PlatformConfig::default()).unwrap();
        shipped.accel_mut().import_weight_image(&image).unwrap();
        assert_eq!(
            compiled.classify(&data.test.images).unwrap(),
            shipped.classify(&data.test.images).unwrap(),
            "a plan-programmed device must match the model-compiled one"
        );
    }

    #[test]
    fn inject_and_clear() {
        let (q, data) = setup();
        let mut p = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let img = data.test.images.slice_image(0);
        let clean = p.run(&img).unwrap().logits;
        p.inject(&FaultConfig::new(
            MultId::all().collect(),
            FaultKind::Constant(131071),
        ));
        let faulted = p.run(&img).unwrap().logits;
        assert_ne!(clean, faulted);
        p.clear_faults();
        assert_eq!(p.run(&img).unwrap().logits, clean);
    }
}
