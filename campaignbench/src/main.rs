//! End-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaignbench/Cargo.toml -- \
//!     --workload fig2|fig3_served|transient|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One closed-loop client runs a workload's campaigns against the public
//! APIs of `nvfi`, `nvfi-accel`, `nvfi-compiler`, `nvfi-dist` and `nvfi-obs`.
//! Every run checks its records (see `gate`) and prints its metrics, the
//! last line being one JSON object. `--trace 0` prints the end-to-end
//! metrics, measured with tracing off. `--trace 1` prints the per-layer
//! metrics, and writes a chrome trace and a per-span table to `.bench_out/`.
//! An untraced run repeats a pass of fixed work, each on a fresh set-up, for
//! `--seconds` and reports medians; the fixed work keeps every simulated
//! statistic of a pass exactly repeatable. All timings are host time.
//!
//! `--record-digests` prints the exact-engine digests of a workload and seed
//! in the format of `digests.txt`.

mod gate;
mod layers;
mod probes;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use nvfi::campaign::{Campaign, CampaignResult};
use nvfi::PlatformConfig;
use nvfi_obs::{metrics, trace};

use layers::median;
use workloads::{run_pass, setup, Outcome, Setup, Workload, PARALLELISM};

/// Fewest set-ups of an untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
/// Fewest timed passes of an untraced run; `wall_s` is their median.
const MIN_PASSES: usize = 3;
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: campaignbench --workload fig2|fig3_served|transient|all \
                     --seed N [--seconds S] [--trace 0|1] [--record-digests]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        record: false,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Self-exec'd fleet workers of `fig3_served` serve here and exit.
    nvfi_dist::worker::maybe_serve();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else if let Some(w) = Workload::parse(&args.workload) {
        if args.record {
            record_digests(w, args.seed)
        } else {
            run_one(w, &args).map(|r| r.print())
        }
    } else {
        Err(format!("unknown workload {}\n{USAGE}", args.workload))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result of one run: the correctness verdict and named metrics.
struct Report {
    title: String,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        println!("{}", self.title);
        for (name, value, unit) in &self.metrics {
            println!("  {name:<30} {value:>14.4} {unit}");
        }
        println!(
            "  {:<30} {:>14.4} frac ({} of {} campaigns failed)",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process-wide counters a pass moves.
#[derive(Clone, Copy)]
struct Counters {
    fast: u64,
    corrected: u64,
    exact: u64,
    tasks: u64,
    audits: u64,
    cache_hits: u64,
    bytes_shipped: u64,
}

impl Counters {
    fn read(setup: &Setup) -> Counters {
        let stats = setup.server.as_ref().map(nvfi_dist::CampaignServer::stats);
        Counters {
            fast: metrics::counter("engine_path_fast").get(),
            corrected: metrics::counter("engine_path_fast_corrected").get(),
            exact: metrics::counter("engine_path_exact").get(),
            tasks: stats.map_or(0, |s| s.tasks_dispatched),
            audits: stats.map_or(0, |s| s.audits_dispatched),
            cache_hits: stats.map_or(0, |s| s.cache_hits),
            bytes_shipped: nvfi_dist::wire::artifact_bytes_shipped(),
        }
    }
}

/// Simulated statistics and work counts of one pass. Every entry except
/// `core.masked_outcome_frac` must repeat exactly across runs and seeds.
fn pass_counts(
    setup: &Setup,
    outcomes: &[Outcome],
    before: Counters,
) -> BTreeMap<&'static str, f64> {
    let after = Counters::read(setup);
    let mut m = BTreeMap::new();
    m.insert("accel.macs_per_img", setup.macs_per_img as f64);
    m.insert("accel.mac_cycles_per_img", setup.total_mac_cycles as f64);
    m.insert("accel.modeled_ms_per_img", setup.modeled_ms_per_img);
    m.insert("accel.op_runs_fast", (after.fast - before.fast) as f64);
    m.insert(
        "accel.op_runs_corrected",
        (after.corrected - before.corrected) as f64,
    );
    m.insert("accel.op_runs_exact", (after.exact - before.exact) as f64);
    m.insert("dist.tasks_dispatched", (after.tasks - before.tasks) as f64);
    m.insert(
        "dist.audits_dispatched",
        (after.audits - before.audits) as f64,
    );
    m.insert(
        "dist.cache_hits",
        (after.cache_hits - before.cache_hits) as f64,
    );
    m.insert(
        "dist.artifact_bytes_shipped",
        (after.bytes_shipped - before.bytes_shipped) as f64,
    );
    let results: Vec<&CampaignResult> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let masked_static: usize = results.iter().map(|r| r.masked_static).sum();
    m.insert("core.items_masked_static", masked_static as f64);
    m.insert(
        "core.inferences_executed",
        results.iter().map(|r| r.total_inferences).sum::<u64>() as f64,
    );
    // Executed faulty inferences whose prediction equals golden; statically
    // masked records are all-masked by construction and left out.
    let (mut masked, mut total) = (0usize, 0usize);
    for r in &results {
        let n = r
            .records
            .first()
            .map_or(0, |x| x.outcomes.masked + x.outcomes.sdc);
        masked += r.records.iter().map(|x| x.outcomes.masked).sum::<usize>() - r.masked_static * n;
        total += (r.records.len() - r.masked_static) * n;
    }
    m.insert(
        "core.masked_outcome_frac",
        masked as f64 / total.max(1) as f64,
    );
    m
}

/// Runs the gate over the passes of a run and returns one verdict per
/// campaign of every pass. Without recorded digests the sampled exact check
/// runs on the last pass, and every other pass must repeat its records.
fn check(
    w: Workload,
    seed: u64,
    setup: &Setup,
    passes: &[Vec<Outcome>],
) -> Result<Vec<bool>, String> {
    let last = passes.last().ok_or("no pass ran")?;
    let expected = gate::recorded(w, seed);
    let sampled = match expected {
        Some(_) => Vec::new(),
        None => gate::check_sampled(&setup.fixture, &setup.specs, last, seed)?,
    };
    let mut verdicts = Vec::new();
    for (p, outcomes) in passes.iter().enumerate() {
        let ok = match &expected {
            Some(digests) => gate::check_recorded(outcomes, digests),
            None => outcomes
                .iter()
                .zip(last)
                .zip(&sampled)
                .map(|((a, b), good)| {
                    *good && matches!((&a.result, &b.result), (Ok(x), Ok(y)) if gate::same_records(x, y))
                })
                .collect(),
        };
        for (i, good) in ok.iter().enumerate() {
            match &outcomes[i].result {
                Err(e) => eprintln!(
                    "campaignbench: {} pass {p} campaign {i} failed: {e}",
                    w.name()
                ),
                Ok(_) if !good => eprintln!(
                    "campaignbench: {} pass {p} campaign {i}: records differ from the exact engine",
                    w.name()
                ),
                Ok(_) => {}
            }
        }
        verdicts.extend(ok);
    }
    Ok(verdicts)
}

fn report_simstat_changes(w: Workload, counts: &BTreeMap<&'static str, f64>) {
    let measured: BTreeMap<String, f64> =
        counts.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    for change in gate::simstat_changes(w, &measured) {
        eprintln!(
            "campaignbench: simulated statistic changed on {}: {change}",
            w.name()
        );
    }
}

fn timed_pass(setup: &Setup) -> (Vec<Outcome>, f64, Counters) {
    let before = Counters::read(setup);
    let t = Instant::now();
    let outcomes = run_pass(setup);
    (outcomes, t.elapsed().as_secs_f64(), before)
}

/// The untraced run: set-up and timed pass, again and again, until the
/// passes have measured `--seconds` (at least [`MIN_PASSES`] of them), then
/// set-ups alone up to [`MIN_SETUPS`]. Each pass does the same fixed work
/// on its own set-up, so a served pass never meets the result cache of an
/// earlier one.
fn run_one(w: Workload, args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(w, args);
    }
    trace::set_enabled(false);
    let mut setup_times = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut passes = Vec::new();
    let mut last = None;
    loop {
        let measured: f64 = walls.iter().sum();
        let next = median(&walls);
        let passes_done = walls.len() >= MIN_PASSES && measured + next > args.seconds;
        if passes_done && setup_times.len() >= MIN_SETUPS {
            break;
        }
        // Dropping a set-up shuts its server down before the next one.
        drop(last.take());
        let s = setup(w, args.seed)?;
        setup_times.push(s.seconds);
        if !passes_done {
            let (outcomes, wall_s, before) = timed_pass(&s);
            report_simstat_changes(w, &pass_counts(&s, &outcomes, before));
            walls.push(wall_s);
            passes.push(outcomes);
        }
        last = Some(s);
    }
    let rss = peak_rss_mb();
    eprintln!(
        "campaignbench: {} pass walls {walls:.3?} s, set-ups {setup_times:.3?} s",
        w.name()
    );
    let s = last.ok_or("no set-up ran")?;
    let ok = check(w, args.seed, &s, &passes)?;
    let failed = ok.iter().filter(|g| !**g).count();
    let wall_s = median(&walls);
    let evals = workloads::nominal_evals(&s) as f64;
    Ok(Report {
        title: format!(
            "campaignbench {} seed {} (end to end, tracing off, median of {} passes)",
            w.name(),
            args.seed,
            walls.len()
        ),
        correct: failed == 0,
        attempted: ok.len(),
        failed,
        metrics: vec![
            ("wall_s".into(), wall_s, "s"),
            ("fi_evals_per_s".into(), evals / wall_s, "1/s"),
            ("setup_s".into(), median(&setup_times), "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ],
    })
}

/// The traced run: an untraced pass for the overhead baseline, then a fresh
/// set-up and a pass with the recorder on, then the probes.
fn run_traced(w: Workload, args: &Args) -> Result<Report, String> {
    trace::set_enabled(false);
    let untraced = {
        let s = setup(w, args.seed)?;
        let (outcomes, wall_s, _) = timed_pass(&s);
        (outcomes, wall_s)
    };
    trace::set_enabled(true);
    trace::clear();
    let mut s = setup(w, args.seed)?;
    let pass_t0 = trace::now_us();
    let (outcomes, wall_s, before) = timed_pass(&s);
    let pass_t1 = trace::now_us();
    let mut m = pass_counts(&s, &outcomes, before);
    // Shutting the server down joins its connection threads, which flushes
    // the shard spans they still buffer into the ring.
    let served = s.server.take().is_some();

    let events = trace::snapshot();
    let in_pass: Vec<_> = events
        .iter()
        .filter(|e| e.ts_us >= pass_t0 && e.ts_us + e.dur_us <= pass_t1)
        .cloned()
        .collect();
    layers::span_metrics(&layers::analyse(&in_pass), wall_s, PARALLELISM, &mut m);
    m.insert("dist.start_ms", s.server_start_ms);
    let campaign_ms: Vec<f64> = outcomes.iter().map(|o| o.ms).collect();
    m.insert(
        "dist.campaign_ms",
        if served { median(&campaign_ms) } else { 0.0 },
    );
    m.insert(
        "obs.trace_overhead_frac",
        (wall_s - untraced.1) / untraced.1,
    );
    probes::run(&s, &mut m)?;
    m.insert("obs.trace_dropped", trace::dropped() as f64);

    // The traced pass and the probes, span by span, next to the chrome trace.
    let after_t0: Vec<_> = trace::snapshot()
        .into_iter()
        .filter(|e| e.ts_us >= pass_t0)
        .collect();
    let table = layers::render_table(&layers::analyse(&after_t0));
    let stem = format!("{OUT_DIR}/{}-seed{}", w.name(), args.seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(format!("{stem}.layers.txt"), &table).map_err(|e| format!("{stem}: {e}"))?;
    let trace_path = format!("{stem}.trace.json");
    trace::export_chrome(std::path::Path::new(&trace_path))
        .map_err(|e| format!("{trace_path}: {e}"))?;
    trace::set_enabled(false);
    eprint!("{table}");
    eprintln!("campaignbench: chrome trace in {trace_path}");

    // Both passes are gated, so tracing must not change a single record.
    let ok = check(w, args.seed, &s, &[untraced.0, outcomes])?;
    report_simstat_changes(w, &m);
    let failed = ok.iter().filter(|g| !**g).count();
    Ok(Report {
        title: format!(
            "campaignbench {} seed {} (per layer, traced)",
            w.name(),
            args.seed
        ),
        correct: failed == 0,
        attempted: ok.len(),
        failed,
        metrics: layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), m.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    })
}

/// Runs every workload in a child process of its own (so `peak_rss_mb` is
/// per workload), forwarding each one's output, then prints the combined
/// verdict as the last line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || !last.starts_with('{') {
            return Err(format!("workload {} failed", w.name()));
        }
        let field = |key: &str| -> usize {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next()?.parse().ok())
                .unwrap_or(0)
        };
        correct &= last.contains("\"correct\": true");
        attempted += field("attempted");
        failed += field("failed");
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    Ok(())
}

/// Prints the exact-engine digests of every campaign of `w` at `seed`,
/// after checking that the default (fast/auto) in-process run agrees.
fn record_digests(w: Workload, seed: u64) -> Result<(), String> {
    let s = workloads::fixture(seed, workloads::EVAL_IMAGES);
    let total = nvfi::EmulationPlatform::assemble(&s.model, PlatformConfig::default())
        .map_err(|e| e.to_string())?
        .accel()
        .total_mac_cycles()
        .ok_or("no plan")?;
    for (i, spec) in workloads::campaign_specs(w, seed, total).iter().enumerate() {
        let exact = Campaign::new(&s.model, gate::exact_config())
            .run(spec, &s.eval)
            .map_err(|e| e.to_string())?;
        let auto = Campaign::new(&s.model, PlatformConfig::default())
            .run(spec, &s.eval)
            .map_err(|e| e.to_string())?;
        if exact.records != auto.records || exact.baseline_accuracy != auto.baseline_accuracy {
            return Err(format!(
                "{} seed {seed} campaign {i}: in-process run differs from the exact engine",
                w.name()
            ));
        }
        println!("{} {seed} {i} {:016x}", w.name(), gate::digest(&exact));
    }
    Ok(())
}
