//! The three workloads: fixtures, campaign lists, set-up and the timed pass.
//!
//! Every workload is one client in a closed loop: it submits a campaign only
//! after the previous one returned, exactly like `run_fig2_with` /
//! `run_fig3_with`. Thread and worker counts are fixed here, never derived
//! from the host.

use std::ops::Range;
use std::time::Instant;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection};
use nvfi::experiments::{untrained_quant_model, INJECTED_VALUES};
use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::{CampaignServer, FleetSpec};
use nvfi_obs::trace;
use nvfi_quant::QuantModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Width of the ResNet-18 every workload runs: the medium fixture,
/// 35.05 MMAC per inference.
pub const MODEL_WIDTH: usize = 16;
/// Evaluation images of every campaign.
pub const EVAL_IMAGES: usize = 16;
/// Threads (in process) or worker processes (served) of every workload.
pub const PARALLELISM: usize = 2;
/// Largest `#multipliers` of Fig. 2 (the paper's 7).
const FIG2_MAX_K: usize = 7;
/// Random draws per `(k, value)` point of Fig. 2.
const FIG2_TRIALS: usize = 2;
/// Length of the transient pulse, in per-inference MAC cycles.
const PULSE_CYCLES: u64 = 2000;
/// Single targets hit by the pulse (each with Constant(+1) and Constant(-1)).
const PULSE_TARGETS: usize = 16;
/// Single targets of the permanent 1-lane `StuckBits` campaign.
const STUCK_TARGETS: usize = 4;
/// The bit-granular fault: wire 12 of the 18-bit product stuck at 1.
pub const STUCK_KIND: FaultKind = FaultKind::StuckBits {
    fsel: 1 << 12,
    fdata: 1 << 12,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 in process: 21 `RandomSubsets` campaigns.
    Fig2,
    /// Fig. 3 over a warm `CampaignServer`: three `ExhaustiveSingle` campaigns.
    Fig3Served,
    /// A 2000-cycle pulse campaign and a permanent `StuckBits` campaign.
    Transient,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig2, Workload::Fig3Served, Workload::Transient];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2",
            Workload::Fig3Served => "fig3_served",
            Workload::Transient => "transient",
        }
    }
}

/// The model and evaluation images of one seed.
pub struct Fixture {
    pub model: QuantModel,
    pub eval: Dataset,
}

/// Builds the workload's fixture from `seed`: an untrained width-16
/// ResNet-18 (latency does not depend on the weights, and no training cache
/// can leak into `setup_s`) and `SynthCifar` images of the same seed.
pub fn fixture(seed: u64, images: usize) -> Fixture {
    let model = untrained_quant_model(MODEL_WIDTH, seed);
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: images,
        seed,
        ..Default::default()
    })
    .generate()
    .test;
    Fixture { model, eval }
}

/// The 2000-cycle pulse at the 3/4 mark of one inference's MAC cycles.
pub fn pulse_window(total_mac_cycles: u64) -> Range<u64> {
    let start = total_mac_cycles / 4 * 3;
    start..start + PULSE_CYCLES
}

fn spec(selection: TargetSelection, kinds: Vec<FaultKind>) -> CampaignSpec {
    CampaignSpec {
        selection,
        kinds,
        eval_images: EVAL_IMAGES,
        threads: PARALLELISM,
        ..Default::default()
    }
}

/// Distinct multipliers in a seeded order.
fn shuffled_targets(seed: u64) -> Vec<MultId> {
    let mut all: Vec<MultId> = MultId::all().collect();
    all.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7472_616e_7369_656e));
    all
}

/// The workload's campaigns, in submission order. `total_mac_cycles` places
/// the transient pulse.
pub fn campaign_specs(w: Workload, seed: u64, total_mac_cycles: u64) -> Vec<CampaignSpec> {
    match w {
        Workload::Fig2 => {
            let mut specs = Vec::new();
            for k in 1..=FIG2_MAX_K {
                for (vi, &value) in INJECTED_VALUES.iter().enumerate() {
                    // Seeded the way `run_fig2_with` seeds each campaign.
                    let selection = TargetSelection::RandomSubsets {
                        k,
                        trials: FIG2_TRIALS,
                        seed: seed ^ ((k as u64) << 16) ^ (vi as u64),
                    };
                    specs.push(spec(selection, vec![FaultKind::Constant(value)]));
                }
            }
            specs
        }
        Workload::Fig3Served => INJECTED_VALUES
            .iter()
            .map(|&v| {
                spec(
                    TargetSelection::ExhaustiveSingle,
                    vec![FaultKind::Constant(v)],
                )
            })
            .collect(),
        Workload::Transient => {
            let order = shuffled_targets(seed);
            let singles = |n: usize| order[..n].iter().map(|&m| vec![m]).collect();
            let pulse = CampaignSpec {
                fault_window: Some(pulse_window(total_mac_cycles)),
                ..spec(
                    TargetSelection::Fixed(singles(PULSE_TARGETS)),
                    vec![FaultKind::Constant(1), FaultKind::Constant(-1)],
                )
            };
            let stuck = spec(
                TargetSelection::Fixed(singles(STUCK_TARGETS)),
                vec![STUCK_KIND],
            );
            vec![pulse, stuck]
        }
    }
}

/// Everything the timed pass needs, built before the first timed submit.
pub struct Setup {
    pub fixture: Fixture,
    pub specs: Vec<CampaignSpec>,
    /// Simulated: MACs of one inference.
    pub macs_per_img: u64,
    /// Simulated: MAC-array cycles one inference retires.
    pub total_mac_cycles: u64,
    /// Simulated: modelled latency of one inference at the default clock.
    pub modeled_ms_per_img: f64,
    /// The warm server of `fig3_served`.
    pub server: Option<CampaignServer>,
    /// Host seconds this set-up took.
    pub seconds: f64,
    /// Host milliseconds of `CampaignServer::start` (0 in process).
    pub server_start_ms: f64,
}

/// The served workload's warm-up: different work from the timed campaigns
/// (so the result cache cannot answer them), the same plan, weights and
/// evaluation set (so every worker holds the artifacts before timing starts).
fn warm_up_spec() -> CampaignSpec {
    spec(
        TargetSelection::Fixed(vec![vec![MultId::new(0, 0)], vec![MultId::new(1, 1)]]),
        vec![FaultKind::Constant(2)],
    )
}

/// Builds the fixture and, for `fig3_served`, raises the fleet of
/// self-exec'd workers and warms it.
pub fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let _s = trace::span("bench.setup");
    let t0 = Instant::now();
    let fixture = fixture(seed, EVAL_IMAGES);
    let platform = EmulationPlatform::assemble(&fixture.model, PlatformConfig::default())
        .map_err(|e| format!("assemble: {e}"))?;
    let total_mac_cycles = platform
        .accel()
        .total_mac_cycles()
        .ok_or("assembled platform has no plan")?;
    let specs = campaign_specs(w, seed, total_mac_cycles);
    let mut server = None;
    let mut server_start_ms = 0.0;
    if w == Workload::Fig3Served {
        let fleet = FleetSpec {
            local_devices: 1,
            ..FleetSpec::self_exec()
        };
        let t = Instant::now();
        let srv = {
            let _s = trace::span("bench.server_start");
            CampaignServer::start(&fleet, PARALLELISM).map_err(|e| format!("server start: {e}"))?
        };
        server_start_ms = t.elapsed().as_secs_f64() * 1e3;
        let _s = trace::span("bench.warm_up");
        srv.submit(
            &fixture.model,
            PlatformConfig::default(),
            &warm_up_spec(),
            &fixture.eval,
        )
        .and_then(nvfi_dist::ClientHandle::wait)
        .map_err(|e| format!("warm-up campaign: {e}"))?;
        server = Some(srv);
    }
    Ok(Setup {
        macs_per_img: fixture.model.macs_per_inference(),
        fixture,
        specs,
        total_mac_cycles,
        modeled_ms_per_img: platform.modeled_latency_ms(),
        server,
        seconds: t0.elapsed().as_secs_f64(),
        server_start_ms,
    })
}

/// One campaign of the timed pass.
pub struct Outcome {
    pub result: Result<CampaignResult, String>,
    /// Host milliseconds from submit to result.
    pub ms: f64,
}

/// The timed pass: every campaign of the workload, one after the other.
pub fn run_pass(setup: &Setup) -> Vec<Outcome> {
    let Fixture { model, eval } = &setup.fixture;
    let config = PlatformConfig::default();
    setup
        .specs
        .iter()
        .map(|spec| {
            let _s = trace::span("bench.campaign");
            let t = Instant::now();
            let result = match &setup.server {
                Some(srv) => srv
                    .submit(model, config, spec, eval)
                    .and_then(nvfi_dist::ClientHandle::wait)
                    .map_err(|e| e.to_string()),
                None => Campaign::new(model, config)
                    .run(spec, eval)
                    .map_err(|e| e.to_string()),
            };
            Outcome {
                result,
                ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Nominal fault evaluations of a pass: work items x images, statically
/// masked items included (work the system avoided still counts as done).
pub fn nominal_evals(setup: &Setup) -> u64 {
    setup
        .specs
        .iter()
        .map(|s| {
            (Campaign::expand_targets(&s.selection).len() * s.kinds.len() * s.eval_images) as u64
        })
        .sum()
}
