//! Content-keyed memo of the products the figure drivers share.
//!
//! The simulator is deterministic, so a baseline run, a CPU roofline run
//! and a whole optimisation ladder are pure functions of their inputs.
//! Several figures need the same ones: Fig. 17 re-plots the Pt FM, Pt
//! hash and k-mer ladders of Figs. 12/14/15, and those figures compare
//! against the MEDAL/NEST runs Fig. 3 already made. The drivers fetch
//! these products through this module so each is simulated once per
//! campaign (DESIGN.md §17).
//!
//! - **Content keys.** An entry is keyed on the function, every scalar
//!   argument and a digest of the whole input (app, layout and MEDAL
//!   specs, every trace access); a ladder's key also holds its
//!   baseline's [`RunResult::digest`], the baseline energy and the CPU
//!   run. A hit is therefore correct whatever seed or scale produced the
//!   input. A ladder served from the memo takes the caller's dataset
//!   label, which is not part of the simulation.
//! - **Recorder bypass.** While a recorder is installed on the calling
//!   thread (`obs`, journey attribution or a task-level trace) the memo
//!   is neither read nor filled: a run the caller asked to observe is
//!   always simulated.
//! - **Bounded.** Least-recently-used eviction at 128 entries.
//!
//! The memo is thread-local, like the recorders it defers to.

use std::cell::RefCell;

use beacon_accel::cpu_model::CpuRun;
use beacon_accel::medal::RegionSpec;
use beacon_accel::result::RunResult;
use beacon_genomics::trace::{Access, Step, TaskTrace};
use beacon_sim::stats::Fnv64;

use crate::config::BeaconVariant;
use crate::energy::EnergyBreakdown;
use crate::mmf::LayoutSpec;
use crate::obs;

use super::common::{run_cpu, run_medal, run_nest, AppWorkload};
use super::ladder::{run_ladder, LadderResult};

/// Entries kept. One `figures --all` campaign stores 55 products (22
/// MEDAL/NEST baselines, 11 CPU runs and 22 ladders over 16 distinct
/// inputs; pinned by `one_campaign_fills_the_memo_once`); the bound
/// holds two campaigns so a repeated one is served whole.
const CAPACITY: usize = 128;

/// What an entry was computed from.
#[derive(PartialEq, Eq)]
enum Key {
    Cpu {
        input: u64,
    },
    Medal {
        input: u64,
        ideal: bool,
        pes: usize,
    },
    Nest {
        input: u64,
        cbf_bytes: u64,
        ideal: bool,
        pes: usize,
    },
    Ladder {
        input: u64,
        variant: BeaconVariant,
        pes: usize,
        cpu: [u64; 3],
        baseline: u64,
        baseline_energy: [u64; 3],
    },
}

#[derive(Debug, Clone)]
enum Product {
    Cpu(CpuRun),
    Run(Box<RunResult>),
    Ladder(LadderResult),
}

/// Entries in recency order, most recent last. At [`CAPACITY`] a linear
/// scan costs less than one workload digest.
#[derive(Default)]
struct Lru(Vec<(Key, Product)>);

impl Lru {
    fn get(&mut self, key: &Key) -> Option<Product> {
        let at = self.0.iter().position(|(k, _)| k == key)?;
        let entry = self.0.remove(at);
        let product = entry.1.clone();
        self.0.push(entry);
        Some(product)
    }

    fn put(&mut self, key: Key, product: Product) {
        if self.0.len() == CAPACITY {
            self.0.remove(0);
        }
        self.0.push((key, product));
    }
}

thread_local! {
    static MEMO: RefCell<Lru> = RefCell::new(Lru::default());
}

/// The memoised `compute()`, keyed on `key()`; both run only when
/// needed.
fn cached(key: impl FnOnce() -> Key, compute: impl FnOnce() -> Product) -> Product {
    if obs::recording() {
        return compute();
    }
    let key = key();
    if let Some(hit) = MEMO.with(|m| m.borrow_mut().get(&key)) {
        return hit;
    }
    let product = compute();
    MEMO.with(|m| m.borrow_mut().put(key, product.clone()));
    product
}

/// Digest of everything a run reads from `w`. The destructuring
/// patterns make a new field a compile error here rather than a key
/// that silently ignores it.
fn input_digest(w: &AppWorkload) -> u64 {
    let AppWorkload {
        app,
        traces,
        layout,
        medal,
    } = w;
    let mut h = Fnv64::new();
    h.write(&[*app as u8]);
    h.write_u64(layout.len() as u64);
    for &LayoutSpec {
        region,
        bytes,
        spatial,
        partitioned,
        read_only,
    } in layout
    {
        h.write(&[
            region as u8,
            spatial as u8,
            partitioned as u8,
            read_only as u8,
        ]);
        h.write_u64(bytes);
    }
    h.write_u64(medal.len() as u64);
    for &RegionSpec {
        region,
        bytes,
        spatial,
    } in medal
    {
        h.write(&[region as u8, spatial as u8]);
        h.write_u64(bytes);
    }
    h.write_u64(traces.len() as u64);
    for TaskTrace { app, steps } in traces {
        h.write(&[*app as u8]);
        h.write_u64(steps.len() as u64);
        for Step {
            accesses,
            wait_for_data,
        } in steps
        {
            h.write(&[*wait_for_data as u8]);
            h.write_u64(accesses.len() as u64);
            for &Access {
                region,
                offset,
                bytes,
                kind,
            } in accesses
            {
                h.write(&[region as u8, kind as u8]);
                h.write(&bytes.to_le_bytes());
                h.write_u64(offset);
            }
        }
    }
    h.finish()
}

fn run_of(p: Product) -> RunResult {
    match p {
        Product::Run(r) => *r,
        other => unreachable!("a run key holds {other:?}"),
    }
}

/// [`run_cpu`], memoised.
pub fn cpu(w: &AppWorkload) -> CpuRun {
    let key = || Key::Cpu {
        input: input_digest(w),
    };
    match cached(key, || Product::Cpu(run_cpu(w))) {
        Product::Cpu(c) => c,
        other => unreachable!("a CPU key holds {other:?}"),
    }
}

/// [`run_medal`], memoised.
pub fn medal(w: &AppWorkload, ideal: bool, pes: usize) -> RunResult {
    let key = || Key::Medal {
        input: input_digest(w),
        ideal,
        pes,
    };
    run_of(cached(key, || {
        Product::Run(Box::new(run_medal(w, ideal, pes)))
    }))
}

/// [`run_nest`], memoised.
pub fn nest(w: &AppWorkload, cbf_bytes: u64, ideal: bool, pes: usize) -> RunResult {
    let key = || Key::Nest {
        input: input_digest(w),
        cbf_bytes,
        ideal,
        pes,
    };
    run_of(cached(key, || {
        Product::Run(Box::new(run_nest(w, cbf_bytes, ideal, pes)))
    }))
}

/// [`run_ladder`], memoised. A served ladder carries `dataset`.
pub fn ladder(
    variant: BeaconVariant,
    dataset: &str,
    w: &AppWorkload,
    cpu: &CpuRun,
    baseline: &RunResult,
    baseline_energy: &EnergyBreakdown,
    pes: usize,
) -> LadderResult {
    let key = || Key::Ladder {
        input: input_digest(w),
        variant,
        pes,
        cpu: [
            cpu.seconds.to_bits(),
            cpu.energy_joules.to_bits(),
            cpu.dram_cycles,
        ],
        baseline: baseline.digest(),
        baseline_energy: [
            baseline_energy.dram_pj.to_bits(),
            baseline_energy.comm_pj.to_bits(),
            baseline_energy.compute_pj.to_bits(),
        ],
    };
    let compute = || {
        Product::Ladder(run_ladder(
            variant,
            dataset,
            w,
            cpu,
            baseline,
            baseline_energy,
            pes,
        ))
    };
    match cached(key, compute) {
        Product::Ladder(mut l) => {
            l.dataset = dataset.to_owned();
            l
        }
        other => unreachable!("a ladder key holds {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::{fm_workload, WorkloadScale};
    use crate::experiments::{fig12, fig14, fig15, fig17, fig3};
    use crate::obs::{ObsConfig, DEFAULT_STALL_WINDOW};
    use beacon_genomics::genome::GenomeId;

    const PES: usize = 8;

    fn len() -> usize {
        MEMO.with(|m| m.borrow().0.len())
    }

    fn clear() {
        MEMO.with(|m| m.borrow_mut().0.clear());
    }

    /// Every memoised figure, rendered.
    fn campaign(scale: &WorkloadScale) -> Vec<String> {
        vec![
            fig3::run(scale, PES).render(),
            fig12::run(scale, PES).render(),
            fig14::run(scale, PES).render(),
            fig15::run(scale, PES).render(),
            fig17::run(scale, PES).render(),
        ]
    }

    fn observe() {
        obs::install(ObsConfig {
            metrics_every: 0,
            progress_every: 0,
            stall_window: DEFAULT_STALL_WINDOW,
        });
    }

    /// BEACON runs the installed `obs` recorder has seen.
    fn runs_seen() -> u32 {
        obs::snapshot().expect("obs installed").1
    }

    #[test]
    fn one_campaign_fills_the_memo_once() {
        clear();
        let scale = WorkloadScale::test();
        observe();
        let cold = campaign(&scale);
        let _ = obs::take();
        assert_eq!(len(), 0, "a recorded campaign must not fill the memo");

        let filled = campaign(&scale);
        assert_eq!(len(), 55, "products of one campaign");
        let warm = campaign(&scale);
        assert_eq!(len(), 55, "a repeated campaign adds nothing");
        assert_eq!(filled, cold);
        assert_eq!(warm, cold);
    }

    #[test]
    fn a_recorded_call_always_simulates() {
        let scale = WorkloadScale::test();
        let _ = fig15::run(&scale, PES);
        observe();
        let _ = fig15::run(&scale, PES);
        let first = runs_seen();
        let _ = fig15::run(&scale, PES);
        let total = runs_seen();
        let _ = obs::take();
        assert!(first > 0);
        assert_eq!(total, 2 * first, "the repeat must re-simulate");
    }

    #[test]
    fn inputs_differing_only_in_seed_never_share_an_entry() {
        clear();
        let a = WorkloadScale::test();
        let b = WorkloadScale { seed: 43, ..a };
        let (wa, wb) = (fm_workload(GenomeId::Pt, &a), fm_workload(GenomeId::Pt, &b));
        assert_ne!(input_digest(&wa), input_digest(&wb));
        let ra = medal(&wa, false, PES);
        let rb = medal(&wb, false, PES);
        assert_eq!(len(), 2);
        assert_eq!(ra.digest(), run_medal(&wa, false, PES).digest());
        assert_eq!(rb.digest(), run_medal(&wb, false, PES).digest());
        assert_ne!(ra.digest(), rb.digest());
    }

    #[test]
    fn the_memo_stays_within_its_capacity() {
        clear();
        for seed in 1..=3 {
            let scale = WorkloadScale {
                seed,
                ..WorkloadScale::test()
            };
            let _ = campaign(&scale);
            assert!(len() <= CAPACITY, "{} entries after seed {seed}", len());
        }
        assert_eq!(len(), CAPACITY, "three campaigns overflow the bound");
    }
}
