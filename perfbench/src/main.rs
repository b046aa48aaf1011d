//! End-to-end and per-layer benchmark of the BEACON reproduction.
//!
//! ```text
//! perfbench --workload <sweep|fm-d|kmer-s|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` would be exceeded (at least
//! once). Repetition `i` runs inputs generated from a seed derived from
//! `(seed, i)`, so no repetition can be served from an earlier one's
//! work. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` every repetition is an untraced run plus a traced run of
//! the same inputs, and it reports the per-layer metrics. Every output
//! digest is printed as a `digest ...` line; at the golden seed it is
//! checked against `golden.txt`, and a traced run must reproduce its
//! untraced twin's digests at any seed. The last line of standard
//! output is the JSON result. See `README.md` for what each workload
//! and metric means.
//!
//! Every reported time (and rate) is in reference seconds: host seconds
//! scaled by a reference kernel timed through the run, so that the
//! host's drifting speed cancels (see `clock.rs`).

mod clock;
mod timed;
mod work;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use clock::Clock;
use work::{median, mix, Digest, Rep, Sizes, Traced, Workload};

/// The seed `golden.txt` was recorded at.
const GOLDEN_SEED: u64 = 42;
/// Repetitions per run at most (and recorded in `golden.txt`).
const MAX_REPS: usize = 32;
const GOLDEN: &str = include_str!("../golden.txt");

/// Golden digests by (workload, repetition, item).
type Goldens = BTreeMap<(String, usize, String), u64>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::FmD,
        seed: GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !out.seconds.is_finite() || out.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// Calls `one(rep)` for rep = 0, 1, ... while the next call is expected
/// to end within `seconds` (the mean call so far predicts it).
fn repeat(seconds: f64, mut one: impl FnMut(usize)) {
    let start = Instant::now();
    for rep in 0..MAX_REPS {
        one(rep);
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / (rep + 1) as f64 > seconds {
            break;
        }
    }
}

fn goldens() -> Goldens {
    GOLDEN
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                ["digest", w, rep, item, hex] => Some((
                    (w.to_string(), rep.parse().ok()?, item.to_string()),
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?,
                )),
                _ => None,
            }
        })
        .collect()
}

/// Checks one repetition's digests and prints them. Returns the number
/// of operations that failed: those covered by a digest that differs
/// from its golden or has none (at the golden seed), or that differs
/// from `twin`, the traced run of the same inputs. A golden of the
/// repetition that no digest matched fails one operation.
fn check(
    workload: Workload,
    rep: usize,
    digests: &[Digest],
    golden: Option<&Goldens>,
    twin: Option<&[Digest]>,
) -> u64 {
    let mut failed = 0;
    for (i, d) in digests.iter().enumerate() {
        println!(
            "digest {} {rep} {} {:#018x}",
            workload.name(),
            d.item,
            d.value
        );
        let key = (workload.name().to_owned(), rep, d.item.to_owned());
        if let Some(g) = golden {
            let verdict = match g.get(&key) {
                Some(&w) if w == d.value => None,
                Some(_) => Some("differs from its golden"),
                None => Some("has no golden"),
            };
            if let Some(v) = verdict {
                eprintln!("perfbench: {} rep {rep} {} {v}", key.0, d.item);
                failed += d.covers;
            }
        }
        if twin.is_some_and(|t| t.get(i) != Some(d)) {
            eprintln!(
                "perfbench: {} rep {rep} {} differs traced vs untraced",
                key.0, d.item
            );
            failed += d.covers;
        }
    }
    for (w, r, item) in golden.into_iter().flat_map(|g| g.keys()) {
        if w == workload.name() && *r == rep && !digests.iter().any(|d| d.item == item) {
            eprintln!("perfbench: {w} rep {rep} {item} has a golden but no digest");
            failed += 1;
        }
    }
    failed
}

/// Nearest-rank percentile of `v` (non-empty), `p` in (0, 1].
fn percentile(v: &[u64], p: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Peak resident set of this process in MB, from `/proc/self/status`,
/// less the reference kernel's table, which stays resident throughout.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| {
            (kb * 1024.0 - clock::RESIDENT_BYTES as f64) / (1024.0 * 1024.0)
        })
}

/// The end-to-end metrics of untraced repetitions. `peak_rss_mb` is the
/// process's peak after its first repetition, so that it does not grow
/// with the number of repetitions a run fits.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<(String, f64, &'static str)> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    // The sum of each part's median: a slow spell of the host that hits
    // one section of one repetition does not move it.
    let wall_s: f64 = (0..reps[0].parts_s.len())
        .map(|i| med(&|r| r.parts_s[i]))
        .sum();
    // Every set-up of every repetition.
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.clone()).collect();
    let mut out = vec![
        ("wall_s", wall_s, "s"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("sim_cycles", med(&|r| r.sim_cycles as f64), "cycles"),
        (
            "jobs_per_s",
            med(&|r| r.job_cycles.len() as f64) / wall_s,
            "1/s",
        ),
    ];
    // Pooled over every repetition's jobs.
    let jobs: Vec<u64> = reps.iter().flat_map(|r| r.job_cycles.clone()).collect();
    if !jobs.is_empty() {
        out.push(("job_p50_cycles", percentile(&jobs, 0.50), "cycles"));
        out.push(("job_p99_cycles", percentile(&jobs, 0.99), "cycles"));
    }
    eprintln!(
        "perfbench: {} repetitions of {} jobs each",
        reps.len(),
        reps[0].job_cycles.len()
    );
    out.into_iter()
        .map(|(n, v, u)| (n.to_owned(), v, u))
        .collect()
}

/// The per-layer metrics: medians over traced repetitions, plus the
/// tracing overhead against the untraced twins.
fn per_layer(reps: &[Rep], traced: &[Traced]) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in work::layer_units() {
        let value = if name == "trace.overhead" {
            median(traced.iter().map(|t| t.wall_s).collect())
                / median(reps.iter().map(Rep::wall_s).collect())
        } else {
            // Absent = not exercised by this workload (0); NaN = missing.
            let values: Vec<f64> = traced
                .iter()
                .map(|t| t.layers.get(&name).copied().unwrap_or(0.0))
                .collect();
            if values.iter().any(|v| v.is_nan()) {
                f64::NAN
            } else {
                median(values)
            }
        };
        out.push((name, value, unit));
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|fm-d|kmer-s|service> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let goldens = goldens();
    let golden = (args.seed == GOLDEN_SEED).then_some(&goldens);
    let out = measure(&args, &Sizes::bench(), golden);
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// The result line of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The JSON result. A metric that was not observed (NaN) is left
    /// out rather than reported as a number.
    fn to_json(&self) -> String {
        let mut body = Vec::new();
        for (name, value, unit) in &self.metrics {
            if value.is_finite() {
                body.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            } else {
                eprintln!("perfbench: {name} missing: it was not observed");
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Warms up, then repeats the workload for `args.seconds`, checking
/// every output.
fn measure(args: &Args, sizes: &Sizes, golden: Option<&Goldens>) -> Outcome {
    let wl = args.workload;
    // The warm-up's reference samples are not the run's.
    wl.run(&Sizes::tiny(), args.seed, &mut Clock::new());
    let mut clock = Clock::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut failed = 0;
    let mut rss = f64::NAN;
    repeat(args.seconds, |rep| {
        let seed = mix(args.seed, rep as u64);
        let (r, twin) = if !args.trace {
            (wl.run(sizes, seed, &mut clock), None)
        } else if rep % 2 == 0 {
            // Alternate which twin runs first, so that neither always
            // gets the warmer machine.
            let r = wl.run(sizes, seed, &mut clock);
            (r, Some(wl.traced(sizes, seed, &mut clock)))
        } else {
            let t = wl.traced(sizes, seed, &mut clock);
            (wl.run(sizes, seed, &mut clock), Some(t))
        };
        eprintln!(
            "perfbench: rep {rep} wall_s {:.4} setup_s {:.4} reference_s {:.5}",
            r.wall_s(),
            median(r.setup_s.clone()),
            clock.last_sample_s()
        );
        failed += r.invalid;
        failed += check(
            wl,
            rep,
            &r.digests,
            golden,
            twin.as_ref().map(|t| &t.digests[..]),
        );
        if rep == 0 {
            rss = peak_rss_mb();
        }
        reps.push(r);
        traced.extend(twin);
    });
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let metrics = if args.trace {
        per_layer(&reps, &traced)
    } else {
        end_to_end(&reps, rss)
    };
    let f = clock.factor();
    eprintln!("perfbench: host seconds x {f:.4} = reference seconds");
    Outcome {
        attempted,
        failed: failed.min(attempted),
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| (name, clock::to_reference(value, unit, f), unit))
            .collect(),
    }
}

/// The harness's self-test, at tiny sizes: `cargo test --release
/// --manifest-path perfbench/Cargo.toml` (with the `--config` flags
/// `run.py` passes).
#[cfg(test)]
mod tests {
    use super::*;
    use beacon_core::config::{BeaconVariant, Optimizations};
    use beacon_core::experiments::common::{fm_workload, kmer_workload, run_beacon, WorkloadScale};
    use beacon_genomics::prelude::{AppKind, GenomeId};
    use beacon_sim::json::JsonValue;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            // One repetition.
            seconds: 1e-9,
            trace,
        }
    }

    /// (name, unit) of every metric of one BENCHMARK.json section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = JsonValue::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let list = doc.get(section).and_then(JsonValue::as_array).unwrap();
        list.iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        let mut v: Vec<_> = out
            .metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn every_named_metric_is_emitted_with_its_unit() {
        let mut e2e = declared("end_to_end");
        let mut layers = declared("per_layer");
        e2e.sort();
        layers.sort();
        for wl in Workload::ALL {
            for trace in [false, true] {
                let out = measure(&args(wl, trace), &Sizes::tiny(), None);
                assert_eq!(out.failed, 0, "{} trace={trace}", wl.name());
                assert!(out.attempted >= 1);
                assert!(
                    out.metrics.iter().all(|(_, v, _)| v.is_finite()),
                    "{} trace={trace}: {:?}",
                    wl.name(),
                    out.metrics
                );
                let want = if trace { &layers } else { &e2e };
                assert_eq!(&emitted(&out), want, "{} trace={trace}", wl.name());
                let json = out.to_json();
                assert!(JsonValue::parse(&json).is_ok(), "{json}");
            }
        }
    }

    #[test]
    fn every_time_and_rate_is_scaled_to_reference_seconds() {
        use clock::to_reference;
        assert_eq!(to_reference(2.0, "s", 0.5), 1.0);
        assert_eq!(to_reference(2.0, "1/s", 0.5), 4.0);
        assert_eq!(to_reference(2.0, "Mcycles/s", 0.5), 4.0);
        assert_eq!(to_reference(2.0, "cycles", 0.5), 2.0);
        // A metric in any other unit must not be a time or a rate, or
        // it would escape the scaling.
        let timed = ["s", "1/s", "Mcycles/s"];
        let untimed = ["count", "cycles", "ratio", "MB"];
        for (name, unit) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            assert!(
                timed.contains(&unit.as_str()) || untimed.contains(&unit.as_str()),
                "{name} has unit {unit}"
            );
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        for wl in Workload::ALL {
            let out = measure(&args(wl, false), &Sizes::tiny(), None);
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{} {name} = {value}", wl.name());
            }
        }
    }

    #[test]
    fn traced_runs_reproduce_untraced_digests() {
        let sizes = Sizes::tiny();
        let clock = &mut Clock::new();
        for wl in Workload::ALL {
            for seed in [1, 2] {
                let r = wl.run(&sizes, seed, clock);
                let t = wl.traced(&sizes, seed, clock);
                assert_eq!(r.invalid, 0, "{}", wl.name());
                assert_eq!(r.digests, t.digests, "{} seed {seed}", wl.name());
            }
        }
    }

    #[test]
    fn dense_runs_match_the_experiment_runner() {
        let sizes = Sizes::tiny();
        let scale = WorkloadScale {
            seed: 9,
            ..sizes.dense
        };
        let pes = sizes.dense_pes;
        let fm = fm_workload(GenomeId::Pt, &scale);
        let opts = Optimizations::full(BeaconVariant::D, AppKind::FmSeeding);
        let want = run_beacon(BeaconVariant::D, opts, &fm, pes).digest();
        let clock = &mut Clock::new();
        assert_eq!(Workload::FmD.run(&sizes, 9, clock).digests[0].value, want);
        let km = kmer_workload(&scale);
        let opts = Optimizations::full(BeaconVariant::S, AppKind::KmerCounting);
        let want = run_beacon(BeaconVariant::S, opts, &km, pes).digest();
        assert_eq!(Workload::KmerS.run(&sizes, 9, clock).digests[0].value, want);
    }

    #[test]
    fn traced_terms_account_for_the_dense_run() {
        let t = Workload::FmD.traced(&Sizes::tiny(), 3, &mut Clock::new());
        let l = &t.layers;
        let parts = l["system.tick_s"] + l["system.horizon_s"] + l["system.idle_s"];
        assert!(l["engine.loop_s"] >= 0.0);
        assert!(parts + l["engine.loop_s"] <= t.wall_s);
        assert!(l["system.ticks"] > 0.0);
        assert!(l["engine.ticked_share"] > 0.0 && l["engine.ticked_share"] <= 1.0);
        assert_eq!(l["experiments.sim_runs"], 1.0);
        assert_eq!(l["genomics.builds"], 1.0);
    }

    #[test]
    fn service_counts_repeats() {
        let t = Workload::Service.traced(&Sizes::tiny(), 5, &mut Clock::new());
        let l = &t.layers;
        assert_eq!(l["genomics.builds"], 8.0);
        assert!(l["genomics.distinct_inputs"] <= l["genomics.builds"]);
        assert!(l["pool.distinct_rounds"] <= l["pool.rounds"]);
        assert_eq!(l["pool.sim_runs"], l["pool.rounds"]);
    }

    #[test]
    fn sweep_counts_runs_per_section() {
        let t = Workload::Sweep.traced(&Sizes::tiny(), 5, &mut Clock::new());
        let runs: f64 = work::SECTIONS
            .iter()
            .map(|(s, _)| t.layers[&format!("experiments.{s}_runs")])
            .sum();
        assert_eq!(runs, t.layers["experiments.sim_runs"]);
        assert!(runs > 0.0);
    }

    #[test]
    fn golden_mismatch_fails_the_covered_operations() {
        let d = [Digest {
            item: "run",
            value: 1,
            covers: 3,
        }];
        let mut g = BTreeMap::new();
        g.insert(("fm-d".to_owned(), 0, "run".to_owned()), 2);
        g.insert(("fm-d".to_owned(), 1, "run".to_owned()), 1);
        assert_eq!(check(Workload::FmD, 0, &d, Some(&g), None), 3);
        assert_eq!(check(Workload::FmD, 1, &d, Some(&g), None), 0);
        let twin = [Digest { value: 5, ..d[0] }];
        assert_eq!(check(Workload::FmD, 1, &d, None, Some(&twin)), 3);
        // At the golden seed, a digest without a golden fails what it
        // covers, and a golden without a digest fails one operation.
        assert_eq!(check(Workload::FmD, 2, &d, Some(&g), None), 3);
        let renamed = [Digest {
            item: "result",
            ..d[0]
        }];
        assert_eq!(check(Workload::FmD, 1, &renamed, Some(&g), None), 3 + 1);
        assert_eq!(check(Workload::FmD, 1, &[], Some(&g), None), 1);
    }

    #[test]
    fn arguments_parse() {
        let a: Vec<String> = [
            "--workload",
            "kmer-s",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!(p.workload, Workload::KmerS);
        assert_eq!((p.seed, p.seconds, p.trace), (3, 2.0, true));
        assert!(parse_args(&a[..2]).is_ok());
        assert!(parse_args(&a[2..]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
