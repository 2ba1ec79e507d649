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
/// binaries: submits every campaign to one [`nvfi_dist::CampaignServer`],
/// raised by the first campaign and held for the experiment, so the fleet
/// is spawned once and each artifact shipped once. Honours
/// [`nvfi::experiments::ExperimentConfig::workers`] (`NVFI_WORKERS`) and
/// [`nvfi::experiments::ExperimentConfig::dist_addr`] (`NVFI_DIST_ADDR`)
/// and [`nvfi::experiments::ExperimentConfig::checkpoint`]
/// (`NVFI_CHECKPOINT`).
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
    /// Worker processes to spawn locally (`0` when they attach remotely).
    local_workers: usize,
    /// The experiment's one server, raised by the first campaign and held
    /// for the rest, so the fleet and its artifact caches are shared.
    server: Option<nvfi_dist::CampaignServer>,
}

impl DistRunner {
    /// Builds the runner from the experiment configuration's wire knobs.
    #[must_use]
    pub fn from_config(cfg: &nvfi::experiments::ExperimentConfig) -> Self {
        // NVFI_TASK_TIMEOUT (seconds; unset = wait forever) bounds shard
        // silence in both fleet shapes — heartbeating workers never trip it.
        // NVFI_AUDIT_RATE plumbs the result-integrity layer's audit
        // sampling of completed shards (every executed baseline shard is
        // audited). NVFI_CHECKPOINT is the shard store's log.
        let fleet = nvfi_dist::FleetSpec {
            task_timeout: cfg.task_timeout.map(std::time::Duration::from_secs),
            audit_rate: cfg.audit_rate,
            checkpoint_path: cfg.checkpoint.clone(),
            ..nvfi_dist::FleetSpec::self_exec()
        };
        match &cfg.dist_addr {
            Some(addr) => DistRunner {
                fleet: nvfi_dist::FleetSpec {
                    listen: Some(addr.clone()),
                    external_workers: cfg.workers,
                    ..fleet
                },
                local_workers: 0,
                server: None,
            },
            None => DistRunner {
                fleet,
                local_workers: cfg.workers,
                server: None,
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
        let server = match &mut self.server {
            Some(server) => server,
            slot => slot.insert(nvfi_dist::CampaignServer::start(
                &self.fleet,
                self.local_workers,
            )?),
        };
        server.submit(model, config, spec, eval)?.wait()
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
