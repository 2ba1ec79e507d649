//! The correctness gate and the simulated-statistics check.
//!
//! Every campaign's records are folded into a digest and compared with the
//! digest the exact engine (`ExecMode::Exact`, the per-product oracle)
//! produces for the same campaign. Those digests are recorded once, in
//! `digests.txt`, for the seeds the benchmark ships. Any other seed checks a
//! seeded sample of work items against the exact engine instead, after the
//! timed pass. The exact reference is an in-process `Campaign::run`, so a
//! served record that passes also equals the in-process one.

use std::collections::BTreeMap;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::ExecMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{Fixture, Outcome, Workload};

/// Work items the sampled check re-runs on the exact engine.
pub const SAMPLED_ITEMS: usize = 1;

const DIGESTS: &str = include_str!("../digests.txt");
const SIMSTATS: &str = include_str!("../simstats.txt");

/// FNV-1a over the records of one campaign: baseline accuracy, then each
/// record's targets, fault kind, accuracy, drop and outcome counts.
pub fn digest(result: &CampaignResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&result.baseline_accuracy.to_bits().to_le_bytes());
    for r in &result.records {
        for t in &r.targets {
            eat(&[t.mac, t.mult]);
        }
        eat(format!("{:?}", r.kind).as_bytes());
        eat(&r.accuracy.to_bits().to_le_bytes());
        eat(&r.drop_pct.to_bits().to_le_bytes());
        eat(&(r.outcomes.masked as u64).to_le_bytes());
        eat(&(r.outcomes.sdc as u64).to_le_bytes());
    }
    h
}

/// Whether two runs of a campaign returned the same records.
pub fn same_records(a: &CampaignResult, b: &CampaignResult) -> bool {
    a.baseline_accuracy == b.baseline_accuracy && a.records == b.records
}

/// Recorded exact-engine digests of `(workload, seed)`, in campaign order.
pub fn recorded(w: Workload, seed: u64) -> Option<Vec<u64>> {
    parse_digests(DIGESTS).remove(&(w.name().to_string(), seed))
}

fn parse_digests(text: &str) -> BTreeMap<(String, u64), Vec<u64>> {
    let mut table: BTreeMap<(String, u64), Vec<u64>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (Some(w), Some(seed), Some(d)) = (f.first(), f.get(1), f.get(3)) else {
            continue;
        };
        let (Ok(seed), Ok(d)) = (seed.parse(), u64::from_str_radix(d, 16)) else {
            continue;
        };
        table.entry(((*w).to_string(), seed)).or_default().push(d);
    }
    table
}

/// Which campaigns pass against recorded digests: an errored campaign, a
/// digest mismatch or a missing digest all fail.
pub fn check_recorded(outcomes: &[Outcome], expected: &[u64]) -> Vec<bool> {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| match &o.result {
            Ok(r) => expected.get(i) == Some(&digest(r)),
            Err(_) => false,
        })
        .collect()
}

/// The platform configuration of the oracle.
pub fn exact_config() -> PlatformConfig {
    let mut config = PlatformConfig::default();
    config.accel.mode = ExecMode::Exact;
    config
}

/// Re-runs a seeded sample of work items on the exact engine and compares
/// each one's record (and the campaign's baseline accuracy) with what the
/// timed pass returned. Errored campaigns fail without a re-run.
///
/// # Errors
///
/// Returns a message if the exact engine itself fails.
pub fn check_sampled(
    fixture: &Fixture,
    specs: &[CampaignSpec],
    outcomes: &[Outcome],
    seed: u64,
) -> Result<Vec<bool>, String> {
    let mut ok: Vec<bool> = outcomes.iter().map(|o| o.result.is_ok()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6761_7465);
    for _ in 0..SAMPLED_ITEMS {
        let c = rng.gen_range(0..specs.len());
        let Ok(result) = &outcomes[c].result else {
            continue;
        };
        let i = rng.gen_range(0..result.records.len());
        let rec = &result.records[i];
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![rec.targets.clone()]),
            kinds: vec![rec.kind],
            ..specs[c].clone()
        };
        let exact = Campaign::new(&fixture.model, exact_config())
            .run(&spec, &fixture.eval)
            .map_err(|e| format!("exact engine: {e}"))?;
        if exact.baseline_accuracy != result.baseline_accuracy || exact.records[0] != *rec {
            ok[c] = false;
        }
    }
    Ok(ok)
}

/// The simulated statistics this workload must repeat exactly, by name.
fn expected_simstats(w: Workload) -> BTreeMap<String, f64> {
    SIMSTATS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [name, metric, value] if *name == w.name() => {
                    Some(((*metric).to_string(), value.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// Names every simulated statistic that differs from its recorded value.
pub fn simstat_changes(w: Workload, measured: &BTreeMap<String, f64>) -> Vec<String> {
    expected_simstats(w)
        .iter()
        .filter_map(|(name, &want)| {
            let got = measured.get(name).copied();
            (got != Some(want)).then(|| {
                format!(
                    "{}: recorded {want}, measured {}",
                    name,
                    got.map_or("nothing".to_string(), |g| g.to_string())
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::fixture;
    use nvfi_accel::FaultKind;
    use nvfi_compiler::regmap::MultId;

    fn campaign() -> (Fixture, CampaignSpec, CampaignResult) {
        let fx = Fixture {
            model: nvfi::experiments::untrained_quant_model(4, 3),
            eval: fixture(3, 3).eval,
        };
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![MultId::new(0, 1)],
                vec![MultId::new(5, 2)],
            ]),
            kinds: vec![FaultKind::Constant(-1)],
            eval_images: 3,
            ..Default::default()
        };
        let result = Campaign::new(&fx.model, PlatformConfig::default())
            .run(&spec, &fx.eval)
            .unwrap();
        (fx, spec, result)
    }

    fn outcome(result: CampaignResult) -> Outcome {
        Outcome {
            result: Ok(result),
            ms: 1.0,
        }
    }

    /// Every record wrong, so whichever one the sampled check picks differs.
    fn corrupt(mut r: CampaignResult) -> CampaignResult {
        for rec in &mut r.records {
            rec.accuracy += 0.5;
        }
        r
    }

    #[test]
    fn recorded_gate_fires_on_a_wrong_digest() {
        let (_, _, good) = campaign();
        let expected = [digest(&good)];
        assert_eq!(check_recorded(&[outcome(good.clone())], &expected), [true]);
        assert_eq!(
            check_recorded(&[outcome(corrupt(good))], &expected),
            [false]
        );
        let errored = Outcome {
            result: Err("worker lost".into()),
            ms: 1.0,
        };
        assert_eq!(check_recorded(&[errored], &expected), [false]);
    }

    #[test]
    fn sampled_gate_fires_on_a_wrong_record() {
        let (fx, spec, good) = campaign();
        let specs = [spec];
        let seed = 11;
        let pass = check_sampled(&fx, &specs, &[outcome(good.clone())], seed).unwrap();
        assert_eq!(pass, [true]);
        let fail = check_sampled(&fx, &specs, &[outcome(corrupt(good))], seed).unwrap();
        assert_eq!(fail, [false]);
    }

    #[test]
    fn digest_table_parses() {
        let t = parse_digests("# comment\nfig2 7 0 00ff\nfig2 7 1 0a\nbad line\n");
        assert_eq!(t[&("fig2".to_string(), 7)], [0xff, 0x0a]);
    }
}
