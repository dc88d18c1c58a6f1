//! `redistribution` — can protocol design undo rich-get-richer?
//!
//! The paper diagnoses compounding ("the rich get richer") but stops short
//! of asking whether the reward rule itself can *counteract* it. This
//! experiment sweeps the three redistribution families of
//! [`fairness_core::redistribution`] against an SL-PoS economy whose
//! winner-take-all drift is the paper's strongest concentrating force:
//!
//! * **design-space sweep** — cluster-tax, uniform fee lottery,
//!   value-weighted fee lottery and compounding alleviation, each at five
//!   equalization strengths over Zipf(1.1) stakes, measured by final Gini,
//!   final Nakamoto coefficient and the takeover time (first block at
//!   which one miner holds a majority; censored at the horizon).
//! * **Sybil stress** — redistribution is only a remedy if it cannot be
//!   gamed. A [`SybilSplit`] attacker splits one equal stake across `k`
//!   identities under both lottery variants; the measured income advantage
//!   is compared against the closed forms
//!   [`uniform_lottery_sybil_advantage`] and [`fee_lottery_income_share`].
//!   The uniform lottery pays the attacker ≈ `k·m/(m+k−1)` times her fair
//!   share, while the value-weighted lottery is Sybil-proof — the same
//!   trade-off between egalitarian redistribution and Sybil-proofness seen
//!   in community redistribution mechanisms.
//!
//! Every sampled quantity is seeded from the *content* of its grid point,
//! so both CSVs are byte-identical for any `--jobs`. The Sybil table runs
//! through [`SweepSession::ensemble`], so its eight ensembles land in the
//! sweep cache (and the disk cache) like every other figure's.

use super::common::W_DEFAULT;
use super::SweepSession;
use crate::report::{fmt4, write_csv, TextTable};
use fairness_core::prelude::*;
use fairness_stats::dist::{fee_lottery_income_share, uniform_lottery_sybil_advantage};
use fairness_stats::mc::{run_monte_carlo, McConfig};
use fairness_stats::rng::{mix_seed, Xoshiro256StarStar};
use std::fmt::Write as _;
use std::io;

/// Zipf exponent of the sweep's initial stakes — mildly skewed, so the
/// largest miner starts well below the takeover majority.
const ZIPF_EXPONENT: f64 = 1.1;

/// Miner count of the design-space sweep.
const SWEEP_MINERS: usize = 20;

/// Sweep horizon: SL-PoS issues `w` per block, so 3000 blocks mint 30×
/// the initial stake — deep into the winner-take-all regime.
const SWEEP_HORIZON: u64 = 3_000;

/// Takeover is probed every this many blocks (an upper-bound
/// discretization of the takeover time, identical for every `--jobs`).
const TAKEOVER_CHUNK: u64 = 50;

/// A takeover is one miner holding a strict majority of all stake.
const TAKEOVER_SHARE: f64 = 0.5;

/// Cluster-tax anchor decay per step (half-life ≈ 14 blocks): long enough
/// to tax early accumulation, short enough to follow genuine churn.
const CLUSTER_DECAY: f64 = 0.05;

/// Alleviation exponent at full strength — `beta = 4` damps a majority
/// holder's compounding by 16×.
const ALLEVIATION_SCALE: f64 = 4.0;

/// The equalization strengths swept for every family; `0` is the shared
/// un-redistributed SL-PoS baseline.
const STRENGTHS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The four redistribution families, as encoded in the CSV.
const FAMILIES: [&str; 4] = [
    "cluster-tax",
    "lottery-uniform",
    "lottery-value",
    "alleviation",
];

/// Sybil-stress economy: `m` equal miners, one of whom splits into `k`
/// identities.
const SYBIL_MINERS: usize = 10;
/// Fee fraction of the stressed lotteries.
const SYBIL_FEE: f64 = 0.5;
/// Horizon of each Sybil ensemble.
const SYBIL_HORIZON: u64 = 500;
/// Identity counts probed (1 = the honest baseline).
const SYBIL_IDENTITIES: [u32; 4] = [1, 2, 5, 10];

/// Final-state metrics of one repetition.
struct RepOutcome {
    gini: f64,
    nakamoto: f64,
    takeover: Option<u64>,
}

/// Runs one game to the horizon, probing for takeover every chunk.
fn run_rep<P: IncentiveProtocol>(
    protocol: P,
    shares: &[f64],
    rng: &mut Xoshiro256StarStar,
) -> RepOutcome {
    let mut game = MiningGame::new(protocol, shares);
    let mut takeover = None;
    let mut n = 0;
    while n < SWEEP_HORIZON {
        game.run(TAKEOVER_CHUNK, rng);
        n += TAKEOVER_CHUNK;
        if takeover.is_none() {
            let total: f64 = game.stakes().iter().sum();
            let largest = game.stakes().iter().fold(0.0f64, |a, &b| a.max(b));
            if largest > TAKEOVER_SHARE * total {
                takeover = Some(n);
            }
        }
    }
    let report = DecentralizationReport::measure(game.stakes());
    RepOutcome {
        gini: report.gini,
        nakamoto: report.nakamoto as f64,
        takeover,
    }
}

/// One grid point, averaged over repetitions.
struct SweepPoint {
    family: usize,
    strength: f64,
    gini: f64,
    nakamoto: f64,
    takeover_steps: f64,
    takeover_rate: f64,
}

fn sweep_point(family: usize, strength: f64, reps: usize, seed: u64) -> SweepPoint {
    let shares = zipf_shares(SWEEP_MINERS, ZIPF_EXPONENT);
    let outcomes = run_monte_carlo(McConfig::new(reps, seed), |_i, rng| {
        let inner = SlPos::new(W_DEFAULT);
        match family {
            0 => run_rep(
                ClusterTax::new(inner, strength, CLUSTER_DECAY, &shares),
                &shares,
                rng,
            ),
            1 => run_rep(FeeLottery::new(inner, strength, false), &shares, rng),
            2 => run_rep(FeeLottery::new(inner, strength, true), &shares, rng),
            3 => run_rep(
                Alleviation::new(inner, ALLEVIATION_SCALE * strength),
                &shares,
                rng,
            ),
            _ => unreachable!("family index"),
        }
    });
    let n = outcomes.len() as f64;
    SweepPoint {
        family,
        strength,
        gini: outcomes.iter().map(|o| o.gini).sum::<f64>() / n,
        nakamoto: outcomes.iter().map(|o| o.nakamoto).sum::<f64>() / n,
        takeover_steps: outcomes
            .iter()
            .map(|o| o.takeover.unwrap_or(SWEEP_HORIZON) as f64)
            .sum::<f64>()
            / n,
        takeover_rate: outcomes.iter().filter(|o| o.takeover.is_some()).count() as f64 / n,
    }
}

/// One row of the Sybil-stress table.
struct SybilPoint {
    weighted: bool,
    identities: u32,
    /// Miner-0 stake share λ at the horizon (Monte-Carlo mean).
    lambda: f64,
    /// Per-step income share backed out of λ (initial circulation 1,
    /// `n·w` minted by the horizon).
    income_mc: f64,
    income_closed: f64,
}

/// `redistribution`: the design-space sweep plus the Sybil stress test
/// (see the module docs). Writes `redistribution_sweep.csv` and
/// `sybil_advantage.csv`.
pub fn redistribution(ctx: &SweepSession) -> io::Result<String> {
    let opts = ctx.opts;
    let mut out = String::new();

    // --- Design-space sweep ------------------------------------------
    let reps = opts.repetitions.clamp(8, 64);
    let grid: Vec<(usize, usize)> = (0..FAMILIES.len())
        .flat_map(|f| (0..STRENGTHS.len()).map(move |s| (f, s)))
        .collect();
    let points = ctx.pool.par_map(grid.len(), |i| {
        let (family, s_idx) = grid[i];
        let tag = ((family as u64) << 8) | s_idx as u64;
        sweep_point(
            family,
            STRENGTHS[s_idx],
            reps,
            mix_seed(opts.seed ^ 0x5ED1_57B0, tag),
        )
    });

    let _ = writeln!(
        out,
        "Redistribution — design space over SL-PoS, m={SWEEP_MINERS} Zipf({ZIPF_EXPONENT}) \
         stakes, w={W_DEFAULT}, {SWEEP_HORIZON} blocks, {reps} reps/point.\n\
         Strength 0 is the shared baseline; takeover = first block at which one miner\n\
         holds a majority (probed every {TAKEOVER_CHUNK} blocks, censored at the horizon)."
    );
    let mut t = TextTable::new(vec![
        "Family",
        "strength",
        "Gini_n",
        "Nakamoto_n",
        "takeover@",
        "takeover%",
    ]);
    let mut sweep_rows = Vec::new();
    for p in &points {
        t.row(vec![
            FAMILIES[p.family].to_owned(),
            format!("{:.2}", p.strength),
            fmt4(p.gini),
            format!("{:.1}", p.nakamoto),
            format!("{:.0}", p.takeover_steps),
            format!("{:.0}%", p.takeover_rate * 100.0),
        ]);
        sweep_rows.push(vec![
            p.family as f64,
            p.strength,
            p.gini,
            p.nakamoto,
            p.takeover_steps,
            p.takeover_rate,
        ]);
    }
    out.push_str(&t.render());
    let path = write_csv(
        &opts.results_dir,
        "redistribution_sweep",
        &[
            "family(0=cluster-tax,1=lottery-uniform,2=lottery-value,3=alleviation)",
            "strength",
            "gini_final",
            "nakamoto_final",
            "takeover_steps",
            "takeover_rate",
        ],
        &sweep_rows,
    )?;
    let _ = writeln!(out, "csv: {}", path.display());

    // --- Sybil stress -------------------------------------------------
    // Eight ensembles ({uniform, value-weighted} × k), all through the
    // sweep cache so reruns replay them from disk.
    let shares = equal_shares(SYBIL_MINERS);
    let minted = SYBIL_HORIZON as f64 * W_DEFAULT;
    let mut sybil = Vec::new();
    for weighted in [false, true] {
        for &k in &SYBIL_IDENTITIES {
            let protocol = Sybil::new(
                FeeLottery::new(MlPos::new(W_DEFAULT), SYBIL_FEE, weighted),
                SybilSplit::new(k),
            );
            let lambda = ctx
                .ensemble(&protocol, &shares, &[SYBIL_HORIZON])
                .final_point()
                .mean;
            // λ_n = (a + minted·income) / (1 + minted) with a = 1/m.
            let income_mc = (lambda * (1.0 + minted) - shares[0]) / minted;
            sybil.push(SybilPoint {
                weighted,
                identities: k,
                lambda,
                income_mc,
                income_closed: fee_lottery_income_share(SYBIL_MINERS, k, SYBIL_FEE, weighted),
            });
        }
    }

    let _ = writeln!(
        out,
        "\nSybil stress — ML-PoS + fee-lottery(fee={SYBIL_FEE}), m={SYBIL_MINERS} equal \
         miners, miner 0 split across k identities, {SYBIL_HORIZON} blocks.\n\
         income = per-step income share backed out of the ensemble's final lambda;\n\
         closed forms from fairness_stats::dist. The uniform rebate pays a k-way\n\
         Sybil ~ k*m/(m+k-1) times her fair share; the value-weighted rebate is\n\
         Sybil-proof (advantage ~ 1) but redistributes nothing."
    );
    let mut t = TextTable::new(vec![
        "Lottery",
        "k",
        "lambda_n",
        "income_mc",
        "income_closed",
        "adv_mc",
        "adv_closed",
    ]);
    let mut sybil_rows = Vec::new();
    for p in &sybil {
        let baseline = sybil
            .iter()
            .find(|b| b.weighted == p.weighted && b.identities == 1)
            .expect("k=1 baseline is in the grid");
        let adv_mc = p.income_mc / baseline.income_mc;
        let adv_closed = if p.weighted {
            1.0
        } else {
            uniform_lottery_sybil_advantage(SYBIL_MINERS, p.identities)
        };
        t.row(vec![
            if p.weighted { "value" } else { "uniform" }.to_owned(),
            p.identities.to_string(),
            fmt4(p.lambda),
            fmt4(p.income_mc),
            fmt4(p.income_closed),
            fmt4(adv_mc),
            fmt4(adv_closed),
        ]);
        sybil_rows.push(vec![
            f64::from(u8::from(p.weighted)),
            f64::from(p.identities),
            p.lambda,
            p.income_mc,
            p.income_closed,
            adv_mc,
            adv_closed,
        ]);
    }
    out.push_str(&t.render());
    let path = write_csv(
        &opts.results_dir,
        "sybil_advantage",
        &[
            "weighted(0=uniform,1=value)",
            "identities",
            "lambda_final",
            "income_share_mc",
            "income_share_closed",
            "advantage_mc",
            "advantage_closed",
        ],
        &sybil_rows,
    )?;
    let _ = writeln!(out, "csv: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::tiny_opts;
    use super::super::SweepService;
    use super::*;

    fn csv_rows(path: &std::path::Path) -> Vec<Vec<f64>> {
        std::fs::read_to_string(path)
            .expect("csv readable")
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .map(|v| v.parse().expect("numeric cell"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn redistribution_runs_small_and_pins_the_lottery_ordering() {
        let mut opts = tiny_opts("redistribution");
        opts.repetitions = 16;
        let dir = opts.results_dir.clone();
        let h = SweepService::new(opts);
        let out = redistribution(&h.session()).expect("redistribution");
        assert!(out.contains("redistribution_sweep"));
        assert!(out.contains("sybil_advantage"));
        assert!(out.contains("takeover@"));

        // The sweep covers the full family × strength grid.
        let sweep = csv_rows(&dir.join("redistribution_sweep.csv"));
        assert_eq!(sweep.len(), FAMILIES.len() * STRENGTHS.len());

        // The headline ordering: the uniform rebate is Sybil-vulnerable,
        // the value-weighted one is not (k = 10, measured advantage).
        let table = csv_rows(&dir.join("sybil_advantage.csv"));
        let advantage = |weighted: f64| -> f64 {
            table
                .iter()
                .find(|r| r[0] == weighted && r[1] == 10.0)
                .expect("k=10 row")[5]
        };
        let (uniform, value) = (advantage(0.0), advantage(1.0));
        assert!(
            uniform > value && uniform > 1.5,
            "uniform Sybil advantage ({uniform}) should dominate value-weighted ({value})"
        );
        assert!(
            (value - 1.0).abs() < 0.4,
            "value-weighted lottery should be ~Sybil-proof, got {value}"
        );

        // Closed-form columns carry the same verdict exactly.
        let closed = |weighted: f64| -> f64 {
            table
                .iter()
                .find(|r| r[0] == weighted && r[1] == 10.0)
                .expect("k=10 row")[6]
        };
        assert!((closed(0.0) - 100.0 / 19.0).abs() < 1e-12);
        assert!((closed(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn redistribution_output_is_byte_identical_for_any_jobs() {
        let run = |jobs: usize, tag: &str| {
            let mut opts = tiny_opts(&format!("redistribution-jobs-{tag}"));
            opts.repetitions = 8;
            opts.jobs = jobs;
            let dir = opts.results_dir.clone();
            let h = SweepService::new(opts);
            redistribution(&h.session()).expect("redistribution");
            let sweep = std::fs::read(dir.join("redistribution_sweep.csv")).expect("sweep csv");
            let sybil = std::fs::read(dir.join("sybil_advantage.csv")).expect("sybil csv");
            (sweep, sybil)
        };
        assert_eq!(run(1, "serial"), run(4, "parallel"));
    }
}
