//! Shared fixtures for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (`table1`, `fig2`, `fig3`, `speedup`, or everything via `all`); the
//! criterion benches in `benches/` measure the components those experiments
//! are built from. Fixtures here are deliberately small so `cargo bench`
//! finishes in minutes on one core — the *experiments* use the full-size
//! configuration from `ExperimentConfig::from_env()`.

#![forbid(unsafe_code)]

use nvfi_dataset::{SynthCifar, SynthCifarConfig, TrainTest};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};

/// A small quantized ResNet (width 4, one block per stage pair) and data,
/// deterministic, untrained — enough for timing work.
#[must_use]
pub fn small_fixture() -> (QuantModel, TrainTest) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 16,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 42);
    let deploy = fold_resnet(&net, 32);
    let q =
        quantize(&deploy, &data.train.images, &QuantConfig::default()).expect("fixture quantizes");
    (q, data)
}

/// A medium fixture: the default Table I width (16) full ResNet-18.
#[must_use]
pub fn medium_fixture() -> (QuantModel, TrainTest) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 8,
        test: 8,
        ..Default::default()
    })
    .generate();
    let q = nvfi::experiments::untrained_quant_model(16, 42);
    (q, data)
}

/// The distributed [`nvfi::experiments::CampaignRunner`] of the experiment
/// binaries: schedules every campaign through the `nvfi-dist` coordinator,
/// honouring [`nvfi::experiments::ExperimentConfig::workers`]
/// (`NVFI_WORKERS`) and
/// [`nvfi::experiments::ExperimentConfig::dist_addr`] (`NVFI_DIST_ADDR`).
///
/// Two fleet shapes:
///
/// * `dist_addr` unset — `workers` **local** processes are raised by
///   re-executing the current binary, so the binary's `main` must start
///   with [`nvfi_dist::worker::maybe_serve`] (the experiment binaries do);
/// * `dist_addr` set — the coordinator binds there and waits for all
///   `workers` workers to attach **remotely** (`nvfi_worker <addr>` on
///   each host); nothing is spawned locally.
pub struct DistRunner {
    fleet: nvfi_dist::FleetSpec,
    /// Workers attach remotely instead of being spawned (`dist_addr` set).
    external: bool,
}

impl DistRunner {
    /// Builds the runner from the experiment configuration's wire knobs.
    #[must_use]
    pub fn from_config(cfg: &nvfi::experiments::ExperimentConfig) -> Self {
        // NVFI_TASK_TIMEOUT (seconds; unset = wait forever) bounds shard
        // silence in both fleet shapes — heartbeating workers never trip it.
        let task_timeout = cfg.task_timeout.map(std::time::Duration::from_secs);
        // NVFI_AUDIT_RATE plumbs the result-integrity layer's audit
        // sampling of completed shards (every executed baseline shard is
        // audited).
        match &cfg.dist_addr {
            Some(addr) => DistRunner {
                fleet: nvfi_dist::FleetSpec {
                    listen: Some(addr.clone()),
                    external_workers: cfg.workers,
                    task_timeout,
                    audit_rate: cfg.audit_rate,
                    ..nvfi_dist::FleetSpec::self_exec()
                },
                external: true,
            },
            None => DistRunner {
                fleet: nvfi_dist::FleetSpec {
                    task_timeout,
                    audit_rate: cfg.audit_rate,
                    ..nvfi_dist::FleetSpec::self_exec()
                },
                external: false,
            },
        }
    }
}

impl nvfi::experiments::CampaignRunner<nvfi_dist::DistError> for DistRunner {
    fn run_campaign(
        &mut self,
        model: &QuantModel,
        config: nvfi::PlatformConfig,
        spec: &nvfi::campaign::CampaignSpec,
        eval: &nvfi_dataset::Dataset,
    ) -> Result<nvfi::campaign::CampaignResult, nvfi_dist::DistError> {
        let spec = if self.external {
            // All workers are remote attachments; spawn none locally.
            nvfi::campaign::CampaignSpec {
                workers: 0,
                ..spec.clone()
            }
        } else {
            spec.clone()
        };
        nvfi_dist::run_campaign(model, config, &spec, eval, &self.fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (q, data) = small_fixture();
        assert!(q.macs_per_inference() > 0);
        assert_eq!(data.test.len(), 16);
        let (qm, _) = medium_fixture();
        assert!(qm.macs_per_inference() > q.macs_per_inference());
    }
}
