//! Experiment drivers: one module per table/figure of the paper.
//!
//! | module | reproduces |
//! |---|---|
//! | [`tables`] | Table I (configuration), Table II (PE synthesis) |
//! | [`fig3`] | Fig. 3 — baselines under idealised communication |
//! | [`fig12`] | Fig. 12 — FM-index seeding ladder (perf + energy) |
//! | [`fig13`] | Fig. 13 — per-chip access balance, multi-chip coalescing |
//! | [`fig14`] | Fig. 14 — hash-index seeding ladder |
//! | [`fig15`] | Fig. 15 — k-mer counting ladder |
//! | [`fig16`] | Fig. 16 — DNA pre-alignment |
//! | [`fig17`] | Fig. 17 — energy breakdown across the ladder |
//! | [`memo`] | content-keyed memo of the baselines and ladders figures share |
//! | [`faults`] | RAS fault sweep (not a paper figure; `--faults`) |
//! | [`report`] | journey-attribution bottleneck report (`--report`) |

pub mod common;
pub mod faults;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig3;
pub mod ladder;
pub mod memo;
pub mod report;
pub mod tables;

pub use common::{
    fm_workload, hash_workload, kmer_workload, prealign_workload, run_beacon, run_cpu, run_medal,
    run_nest, AppWorkload, WorkloadScale,
};
pub use ladder::{geomean, render_ladders, LadderPoint, LadderResult};
