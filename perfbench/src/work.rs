//! The four workloads. Each has an untraced repetition, which gives the
//! end-to-end numbers, and a traced one, which gives the per-layer
//! numbers on the same inputs. Both call only the repository's public
//! API and time each call from outside.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use beacon_accel::result::RunResult;
use beacon_bench::{bench_scale, figures_scale, BENCH_PES, FIGURE_PES};
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, hash_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_core::experiments::LadderResult;
use beacon_core::experiments::{fig12, fig13, fig14, fig15, fig16, fig17, fig3, tables};
use beacon_core::mmf::{build_layout, LayoutSpec};
use beacon_core::obs::{self, ObsConfig, DEFAULT_STALL_WINDOW};
use beacon_core::system::BeaconSystem;
use beacon_genomics::prelude::{
    AppKind, FmIndex, Genome, GenomeId, KmerCounter, ReadSampler, Region, TaskTrace,
};
use beacon_pool::prelude::{
    run_service, JobKind, JobStatus, ServiceReport, ServiceSpec, SynthSpec,
};
use beacon_sim::engine::Engine;
use beacon_sim::stats::Fnv64;

use crate::clock::Clock;
use crate::timed::Timed;

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale and PEs/module of the figure sweep.
    pub sweep: WorkloadScale,
    pub sweep_pes: usize,
    /// Scale and PEs/module of the two long dense runs.
    pub dense: WorkloadScale,
    pub dense_pes: usize,
    /// Per-job scale and synthetic jobs per tenant of the service.
    pub service: WorkloadScale,
    pub service_jobs_per_tenant: u64,
}

impl Sizes {
    /// The benchmark's sizes, taken from the `figures` binary: the sweep
    /// at its `--quick` scale (`bench_scale`, `BENCH_PES`), the dense
    /// runs at its full scale (`figures_scale`, `FIGURE_PES`), the
    /// service at the pool's test scale. Each run sets its own seed.
    pub fn bench() -> Self {
        Sizes {
            sweep: bench_scale(),
            sweep_pes: BENCH_PES,
            dense: figures_scale(),
            dense_pes: FIGURE_PES,
            service: WorkloadScale::test(),
            service_jobs_per_tenant: 500,
        }
    }

    /// Sizes for the harness's self-test: every workload in well under
    /// a second.
    pub fn tiny() -> Self {
        Sizes {
            sweep: WorkloadScale::test(),
            sweep_pes: 8,
            dense: WorkloadScale::test(),
            dense_pes: 8,
            service: WorkloadScale::test(),
            service_jobs_per_tenant: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    FmD,
    KmerS,
    Service,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.parts_s.iter().sum()
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::FmD,
        Workload::KmerS,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::FmD => "fm-d",
            Workload::KmerS => "kmer-s",
            Workload::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One untraced repetition on inputs generated from `seed`. It
    /// samples `clock` after each part.
    pub fn run(self, sizes: &Sizes, seed: u64, clock: &mut Clock) -> Rep {
        match self {
            Workload::Sweep => sweep(sizes, seed, clock),
            Workload::FmD => dense(Dense::FmD, sizes, seed, clock),
            Workload::KmerS => dense(Dense::KmerS, sizes, seed, clock),
            Workload::Service => service(sizes, seed, clock),
        }
    }

    /// One traced repetition on the same inputs as [`Workload::run`].
    /// It samples `clock` at its end.
    pub fn traced(self, sizes: &Sizes, seed: u64, clock: &mut Clock) -> Traced {
        let mut layers = Layers::new();
        let (wall_s, digests) = match self {
            Workload::Sweep => sweep_traced(sizes, seed, &mut layers),
            Workload::FmD => dense_traced(Dense::FmD, sizes, seed, &mut layers),
            Workload::KmerS => dense_traced(Dense::KmerS, sizes, seed, &mut layers),
            Workload::Service => service_traced(sizes, seed, &mut layers),
        };
        clock.sample();
        Traced {
            wall_s,
            layers,
            digests,
        }
    }
}

/// One output checked against its golden and its traced twin. A
/// mismatch fails the `covers` operations it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub item: &'static str,
    pub value: u64,
    pub covers: u64,
}

/// What one untraced repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time of the run, by part: one part per figure section on
    /// the sweep, a single part elsewhere.
    pub parts_s: Vec<f64>,
    /// Host time of every set-up the repetition timed.
    pub setup_s: Vec<f64>,
    pub sim_cycles: u64,
    /// Simulated cycles of each job (see README for what a job is).
    pub job_cycles: Vec<u64>,
    /// Operations attempted, and those whose output broke an invariant.
    pub ops: u64,
    pub invalid: u64,
    pub digests: Vec<Digest>,
}

/// What one traced repetition measured.
#[derive(Debug, Clone)]
pub struct Traced {
    pub wall_s: f64,
    pub layers: Layers,
    pub digests: Vec<Digest>,
}

/// Per-layer values by metric name. `NaN` marks a value that should
/// exist but was not observed; it is reported as missing, never as 0.
pub type Layers = BTreeMap<String, f64>;

/// The figure sections of the sweep, in `figures --all` order, and
/// whether each drives BEACON simulations.
pub const SECTIONS: [(&str, bool); 9] = [
    ("table1", false),
    ("table2", false),
    ("fig3", false),
    ("fig12", true),
    ("fig13", true),
    ("fig14", true),
    ("fig15", true),
    ("fig16", true),
    ("fig17", true),
];

/// Every per-layer metric with its unit, in report order.
pub fn layer_units() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for (sec, _) in SECTIONS {
        v.push((format!("experiments.{sec}_s"), "s"));
        v.push((format!("experiments.{sec}_runs"), "count"));
    }
    let fixed: [(&str, &str); 37] = [
        ("experiments.sim_runs", "count"),
        ("experiments.sim_cycles", "cycles"),
        ("genomics.genome_s", "s"),
        ("genomics.index_s", "s"),
        ("genomics.traces_s", "s"),
        ("genomics.build_s", "s"),
        ("genomics.builds", "count"),
        ("genomics.distinct_inputs", "count"),
        ("mmf.layout_s", "s"),
        ("system.new_s", "s"),
        ("system.collect_s", "s"),
        ("system.tick_s", "s"),
        ("system.horizon_s", "s"),
        ("system.idle_s", "s"),
        ("system.ticks", "count"),
        ("engine.loop_s", "s"),
        ("engine.ticked_share", "ratio"),
        ("engine.mcyc_per_s", "Mcycles/s"),
        ("dram.cmd.read", "count"),
        ("dram.cmd.write", "count"),
        ("dram.cmd.act", "count"),
        ("dram.row_hit_ratio", "ratio"),
        ("cxl.flits", "count"),
        ("cxl.backpressure", "count"),
        ("cxl.useful_ratio", "ratio"),
        ("switch.forwarded", "count"),
        ("accel.tasks", "count"),
        ("accel.accesses", "count"),
        ("accel.pe_util", "ratio"),
        ("logic.atomics", "count"),
        ("pool.service_s", "s"),
        ("pool.rounds", "count"),
        ("pool.distinct_rounds", "count"),
        ("pool.sim_runs", "count"),
        ("pool.sim_cycles", "cycles"),
        ("pool.queue_wait_cycles", "cycles"),
        ("trace.overhead", "ratio"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    v
}

fn set(layers: &mut Layers, name: &str, value: f64) {
    layers.insert(name.to_owned(), value);
}

/// A derived seed: distinct per (seed, salt) and stable.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host time of one set-up of the workloads whose set-up is timed apart
/// from their run. Try `k` of a repetition builds inputs from its own
/// seed, kept apart from the seed the repetition runs so that neither
/// can serve the other from a cache.
fn time_setup(seed: u64, k: u64, setup: impl FnOnce(u64)) -> f64 {
    let t = Instant::now();
    setup(mix(seed, 0x5e7 + k));
    secs(t)
}

// ----- BEACON system set-up ------------------------------------------

/// The run configuration `experiments::run_beacon` uses: the paper
/// design at its full optimisation point, refresh off.
fn config(variant: BeaconVariant, app: AppKind, pes: usize) -> BeaconConfig {
    let mut cfg = BeaconConfig::paper(variant, app).with_opts(Optimizations::full(variant, app));
    cfg.pes_per_module = pes;
    cfg.refresh_enabled = false;
    cfg
}

/// Lays out, builds and loads a system for `traces`.
fn prepare(cfg: BeaconConfig, layout: &[LayoutSpec], traces: Vec<TaskTrace>) -> BeaconSystem {
    let mut sys = BeaconSystem::new(cfg, build_layout(&cfg, layout));
    sys.submit_round_robin(traces);
    sys
}

// ----- sweep -----------------------------------------------------------

/// Runs one figure section; returns its rendered text and the simulated
/// cycles of its ladder design points (Figs. 12, 14 and 15).
fn section(name: &str, scale: &WorkloadScale, pes: usize) -> (String, Vec<u64>) {
    fn points<'a>(ladders: impl IntoIterator<Item = &'a LadderResult>) -> Vec<u64> {
        ladders
            .into_iter()
            .flat_map(|l| l.points.iter().map(|p| p.cycles))
            .collect()
    }
    match name {
        "table1" => (tables::table1(), Vec::new()),
        "table2" => (tables::table2(), Vec::new()),
        "fig3" => (fig3::run(scale, pes).render(), Vec::new()),
        "fig12" => {
            let f = fig12::run(scale, pes);
            (f.render(), points(f.d.iter().chain(&f.s)))
        }
        "fig13" => (fig13::run(scale, pes).render(), Vec::new()),
        "fig14" => {
            let f = fig14::run(scale, pes);
            (f.render(), points(f.d.iter().chain(&f.s)))
        }
        "fig15" => {
            let f = fig15::run(scale, pes);
            (f.render(), points([&f.d, &f.s]))
        }
        "fig16" => (fig16::run(scale, pes).render(), Vec::new()),
        "fig17" => (fig17::run(scale, pes).render(), Vec::new()),
        _ => unreachable!("unknown section {name}"),
    }
}

fn text_digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    h.finish()
}

/// The sweep's set-up: every distinct input its figures build (FM
/// seeding, hashing and pre-alignment over the five genomes, and k-mer
/// counting), each laid out and loaded into a BEACON-D system.
fn sweep_setup(sizes: &Sizes, seed: u64) {
    let s = WorkloadScale {
        seed,
        ..sizes.sweep
    };
    let mut inputs = vec![kmer_workload(&s)];
    for g in GenomeId::FIVE {
        inputs.push(fm_workload(g, &s));
        inputs.push(hash_workload(g, &s));
        inputs.push(prealign_workload(g, &s));
    }
    for w in inputs {
        let cfg = config(BeaconVariant::D, w.app, sizes.sweep_pes);
        black_box(prepare(cfg, &w.layout, w.traces));
    }
}

fn sweep(sizes: &Sizes, seed: u64, clock: &mut Clock) -> Rep {
    let scale = WorkloadScale {
        seed,
        ..sizes.sweep
    };
    let mut digests = Vec::new();
    let mut job_cycles = Vec::new();
    let mut parts_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut invalid = 0;
    for (k, (name, _)) in (0..).zip(SECTIONS) {
        // One set-up before each section, so that the set-ups sample the
        // host across the whole repetition as the sections do.
        setup_s.push(time_setup(seed, k, |s| sweep_setup(sizes, s)));
        let t = Instant::now();
        let (text, cycles) = section(name, &scale, sizes.sweep_pes);
        parts_s.push(secs(t));
        clock.sample();
        invalid += u64::from(text.trim().is_empty() || cycles.contains(&0));
        digests.push(Digest {
            item: name,
            value: text_digest(&text),
            covers: 1,
        });
        job_cycles.extend(cycles);
    }
    Rep {
        parts_s,
        setup_s,
        sim_cycles: job_cycles.iter().sum(),
        job_cycles,
        ops: SECTIONS.len() as u64,
        invalid,
        digests,
    }
}

/// BEACON runs (count, simulated cycles) the thread's `obs` recorder saw
/// since it was installed, from each run's first and last sample.
fn take_runs() -> (u64, u64) {
    let series = obs::take().expect("obs installed");
    let mut span: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in series.samples() {
        let e = span.entry(s.run).or_insert((s.cycle, s.cycle));
        e.0 = e.0.min(s.cycle);
        e.1 = e.1.max(s.cycle);
    }
    (span.len() as u64, span.values().map(|(a, b)| b - a).sum())
}

/// Installs `obs` with a sample cadence no run reaches, so every run
/// records exactly its first and last sample.
fn count_runs() {
    obs::install(ObsConfig {
        metrics_every: 1 << 62,
        progress_every: 0,
        stall_window: DEFAULT_STALL_WINDOW,
    });
}

fn sweep_traced(sizes: &Sizes, seed: u64, layers: &mut Layers) -> (f64, Vec<Digest>) {
    let scale = WorkloadScale {
        seed,
        ..sizes.sweep
    };
    let mut digests = Vec::new();
    let (mut runs, mut cycles, mut wall_s) = (0, 0, 0.0);
    for (name, simulates) in SECTIONS {
        count_runs();
        let t = Instant::now();
        let (text, _) = section(name, &scale, sizes.sweep_pes);
        let took = secs(t);
        let (r, c) = take_runs();
        wall_s += took;
        runs += r;
        cycles += c;
        set(layers, &format!("experiments.{name}_s"), took);
        // A simulating section that reports no runs ran them where the
        // thread-local recorder cannot see: missing, not zero.
        let seen = if simulates && r == 0 {
            f64::NAN
        } else {
            r as f64
        };
        set(layers, &format!("experiments.{name}_runs"), seen);
        digests.push(Digest {
            item: name,
            value: text_digest(&text),
            covers: 1,
        });
    }
    let missing = |n: u64| if n == 0 { f64::NAN } else { n as f64 };
    set(layers, "experiments.sim_runs", missing(runs));
    set(layers, "experiments.sim_cycles", missing(cycles));
    (wall_s, digests)
}

// ----- long dense runs -------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Dense {
    /// FM-index seeding over Pt on BEACON-D.
    FmD,
    /// k-mer counting over the human-like genome on BEACON-S.
    KmerS,
}

impl Dense {
    fn variant(self) -> BeaconVariant {
        match self {
            Dense::FmD => BeaconVariant::D,
            Dense::KmerS => BeaconVariant::S,
        }
    }

    fn app(self) -> AppKind {
        match self {
            Dense::FmD => AppKind::FmSeeding,
            Dense::KmerS => AppKind::KmerCounting,
        }
    }

    fn workload(self, scale: &WorkloadScale) -> AppWorkload {
        match self {
            Dense::FmD => fm_workload(GenomeId::Pt, scale),
            Dense::KmerS => kmer_workload(scale),
        }
    }
}

/// Invariants of a drained run of `tasks` traces.
fn run_is_sane(r: &RunResult, tasks: usize) -> bool {
    r.tasks == tasks && r.cycles > 0
}

fn dense(kind: Dense, sizes: &Sizes, seed: u64, clock: &mut Clock) -> Rep {
    let scale = WorkloadScale {
        seed,
        ..sizes.dense
    };
    let t = Instant::now();
    let w = kind.workload(&scale);
    let tasks = w.traces.len();
    let cfg = config(kind.variant(), kind.app(), sizes.dense_pes);
    let mut sys = prepare(cfg, &w.layout, w.traces);
    let setup_s = vec![secs(t)];
    let r = sys.run();
    let wall_s = secs(t);
    clock.sample();
    Rep {
        parts_s: vec![wall_s],
        setup_s,
        sim_cycles: r.cycles,
        job_cycles: vec![r.cycles],
        ops: 1,
        invalid: u64::from(!run_is_sane(&r, tasks)),
        digests: vec![Digest {
            item: "run",
            value: r.digest(),
            covers: 1,
        }],
    }
}

/// The dense workload built step by step through `beacon-genomics`,
/// timing genome synthesis, index construction and trace generation.
/// Mirrors `fm_workload` / `kmer_workload` call for call; the digest
/// check against the untraced run holds it to that.
fn dense_inputs(
    kind: Dense,
    scale: &WorkloadScale,
    layers: &mut Layers,
) -> (Vec<LayoutSpec>, Vec<TaskTrace>) {
    let id = match kind {
        Dense::FmD => GenomeId::Pt,
        Dense::KmerS => GenomeId::Human,
    };
    let t = Instant::now();
    let genome = Genome::synthetic(id, id.scaled_len(scale.pt_genome_len), scale.seed);
    let genome_s = secs(t);
    let t = Instant::now();
    let (layout, traces) = match kind {
        Dense::FmD => {
            let index = FmIndex::build(genome.sequence());
            set(layers, "genomics.index_s", secs(t));
            let t = Instant::now();
            let mut sampler =
                ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 1);
            let traces: Vec<TaskTrace> = (0..scale.reads)
                .map(|_| index.trace_search(sampler.next_read().bases()))
                .collect();
            set(layers, "genomics.traces_s", secs(t));
            let layout = LayoutSpec::shared_random(Region::FmIndex, index.index_bytes());
            (layout, traces)
        }
        Dense::KmerS => {
            let counter =
                KmerCounter::new(scale.kmer_k, scale.cbf_bytes as usize, 3, scale.seed ^ 3);
            set(layers, "genomics.index_s", secs(t));
            let t = Instant::now();
            let mut sampler =
                ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 4);
            let traces: Vec<TaskTrace> = (0..scale.kmer_reads)
                .map(|_| counter.trace_read(&sampler.next_read()))
                .collect();
            set(layers, "genomics.traces_s", secs(t));
            let layout = LayoutSpec::shared_random_writable(Region::Bloom, scale.cbf_bytes);
            (layout, traces)
        }
    };
    set(layers, "genomics.genome_s", genome_s);
    let build_s = genome_s + layers["genomics.index_s"] + layers["genomics.traces_s"];
    set(layers, "genomics.build_s", build_s);
    set(layers, "genomics.builds", 1.0);
    set(layers, "genomics.distinct_inputs", 1.0);
    (vec![layout], traces)
}

fn dense_traced(kind: Dense, sizes: &Sizes, seed: u64, layers: &mut Layers) -> (f64, Vec<Digest>) {
    let scale = WorkloadScale {
        seed,
        ..sizes.dense
    };
    let start = Instant::now();
    let (specs, traces) = dense_inputs(kind, &scale, layers);
    let cfg = config(kind.variant(), kind.app(), sizes.dense_pes);

    let t = Instant::now();
    let layout = build_layout(&cfg, &specs);
    set(layers, "mmf.layout_s", secs(t));
    let t = Instant::now();
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(traces);
    set(layers, "system.new_s", secs(t));

    // The loop `BeaconSystem::run` drives on one thread: `obs::drive`
    // with its stall checks, here with nothing installed.
    let t = Instant::now();
    let mut timed = Timed::new(&mut sys);
    let outcome = obs::drive(&mut Engine::new(), &mut timed);
    let run_s = secs(t);
    let spent = timed.spent();
    let cycles = outcome.finished_at().as_u64();

    let t = Instant::now();
    let mut r = sys.collect();
    // `BeaconSystem::run` records the drain cycle; a run driven through
    // the adapter takes it from the engine instead.
    r.cycles = cycles;
    set(layers, "system.collect_s", secs(t));
    let wall_s = secs(start);

    set(layers, "system.tick_s", spent.tick_s);
    set(layers, "system.horizon_s", spent.horizon_s);
    set(layers, "system.idle_s", spent.idle_s);
    set(layers, "system.ticks", spent.ticks as f64);
    set(
        layers,
        "engine.loop_s",
        run_s - spent.tick_s - spent.horizon_s - spent.idle_s,
    );
    set(
        layers,
        "engine.ticked_share",
        spent.ticks as f64 / cycles as f64,
    );
    set(layers, "engine.mcyc_per_s", cycles as f64 / run_s / 1e6);
    set(layers, "experiments.sim_runs", 1.0);
    set(layers, "experiments.sim_cycles", cycles as f64);
    result_layers(&r, &cfg, layers);
    (
        wall_s,
        vec![Digest {
            item: "run",
            value: r.digest(),
            covers: 1,
        }],
    )
}

/// DRAM, CXL, switch and accelerator counters of a finished run.
fn result_layers(r: &RunResult, cfg: &BeaconConfig, layers: &mut Layers) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let dram = |k: &str| r.dram.get(k);
    for k in ["dram.cmd.read", "dram.cmd.write", "dram.cmd.act"] {
        set(layers, k, dram(k) as f64);
    }
    let hits = dram("dram.row_hit");
    let rows = hits + dram("dram.row_miss") + dram("dram.row_conflict");
    set(layers, "dram.row_hit_ratio", ratio(hits, rows));
    for k in ["cxl.flits", "cxl.backpressure", "switch.forwarded"] {
        set(layers, k, r.comm.get(k) as f64);
    }
    let useful = r.comm.get("cxl.useful_bytes");
    set(
        layers,
        "cxl.useful_ratio",
        ratio(useful, r.comm.get("cxl.wire_bytes")),
    );
    set(layers, "accel.tasks", r.tasks as f64);
    set(
        layers,
        "accel.accesses",
        r.engine.get("engine.accesses_issued") as f64,
    );
    let pe_cycles = cfg.total_pes() as u64 * r.cycles;
    set(layers, "accel.pe_util", ratio(r.pe_busy_cycles, pe_cycles));
    set(
        layers,
        "logic.atomics",
        r.engine.get("logic.atomics") as f64,
    );
}

// ----- pool service ----------------------------------------------------

/// The service spec: the demo machine and tenants (weights 3:1), with
/// `jobs_per_tenant` synthetic jobs each over three kinds and the five
/// genomes.
pub fn service_spec(sizes: &Sizes, seed: u64) -> ServiceSpec {
    let mut spec = ServiceSpec::demo(seed);
    spec.scale = WorkloadScale {
        seed,
        ..sizes.service
    };
    spec.synth = Some(SynthSpec {
        jobs_per_tenant: sizes.service_jobs_per_tenant,
        kinds: vec![
            JobKind::FmSeeding,
            JobKind::KmerCounting,
            JobKind::PreAlignment,
        ],
        genomes: GenomeId::FIVE.to_vec(),
        max_gap_rounds: 4,
        continue_p: 0.75,
    });
    spec
}

/// The input a job's workload is built from. k-mer jobs count over the
/// human-like genome whatever their genome field says.
fn input_key(kind: JobKind, genome: GenomeId) -> (JobKind, GenomeId) {
    match kind {
        JobKind::KmerCounting => (kind, GenomeId::Human),
        _ => (kind, genome),
    }
}

fn jobs_digest(report: &ServiceReport) -> u64 {
    let mut h = Fnv64::new();
    for j in &report.jobs {
        h.write_u64(j.id);
        h.write_u64(j.digest);
    }
    h.finish()
}

fn service_digests(report: &ServiceReport) -> Vec<Digest> {
    let covers = report.jobs.len() as u64;
    vec![
        Digest {
            item: "report",
            value: report.digest(),
            covers,
        },
        Digest {
            item: "jobs",
            value: jobs_digest(report),
            covers,
        },
    ]
}

/// Set-ups timed per service repetition.
const SERVICE_SETUPS: u64 = 5;

fn service(sizes: &Sizes, seed: u64, clock: &mut Clock) -> Rep {
    let spec = service_spec(sizes, seed);
    // Set-up: expand the spec and build each distinct input once.
    let setup_s = (0..SERVICE_SETUPS)
        .map(|k| {
            time_setup(seed, k, |setup_seed| {
                let s = WorkloadScale {
                    seed: setup_seed,
                    ..spec.scale
                };
                let inputs: BTreeSet<_> = spec
                    .expand_jobs()
                    .iter()
                    .map(|j| input_key(j.kind, j.genome))
                    .collect();
                for (kind, genome) in inputs {
                    black_box(kind.workload(genome, &s));
                }
            })
        })
        .collect();

    let t = Instant::now();
    let report = run_service(&spec);
    let wall_s = secs(t);
    clock.sample();
    let completed: Vec<u64> = report
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Completed)
        .map(|j| j.latency_cycles())
        .collect();
    Rep {
        parts_s: vec![wall_s],
        setup_s,
        sim_cycles: report.total_cycles,
        ops: report.jobs.len() as u64,
        invalid: (report.jobs.len() - completed.len()) as u64,
        job_cycles: completed,
        digests: service_digests(&report),
    }
}

fn service_traced(sizes: &Sizes, seed: u64, layers: &mut Layers) -> (f64, Vec<Digest>) {
    let spec = service_spec(sizes, seed);
    count_runs();
    let t = Instant::now();
    let report = run_service(&spec);
    let wall_s = secs(t);
    let (runs, cycles) = take_runs();

    // The per-job builds `run_service` performs, repeated outside it.
    let jobs = spec.expand_jobs();
    let t = Instant::now();
    for j in &jobs {
        black_box(j.kind.workload(j.genome, &spec.scale));
    }
    set(layers, "genomics.build_s", secs(t));
    set(layers, "genomics.builds", jobs.len() as f64);
    let keys: Vec<_> = jobs.iter().map(|j| input_key(j.kind, j.genome)).collect();
    let distinct: BTreeSet<_> = keys.iter().collect();
    set(layers, "genomics.distinct_inputs", distinct.len() as f64);

    // Rounds with the same multiset of inputs.
    let by_id: BTreeMap<u64, (JobKind, GenomeId)> = jobs
        .iter()
        .map(|j| j.id)
        .zip(keys.iter().copied())
        .collect();
    let shapes: BTreeSet<Vec<(JobKind, GenomeId)>> = report
        .rounds
        .iter()
        .map(|r| {
            let mut s: Vec<_> = r.jobs.iter().map(|id| by_id[id]).collect();
            s.sort();
            s
        })
        .collect();
    let missing = |n: u64| if n == 0 { f64::NAN } else { n as f64 };
    set(layers, "pool.service_s", wall_s);
    set(layers, "pool.rounds", report.rounds.len() as f64);
    set(layers, "pool.distinct_rounds", shapes.len() as f64);
    set(layers, "pool.sim_runs", missing(runs));
    set(layers, "pool.sim_cycles", missing(cycles));
    let wait: u64 = report.jobs.iter().map(|j| j.queue_wait_cycles).sum();
    set(layers, "pool.queue_wait_cycles", wait as f64);
    set(layers, "experiments.sim_runs", missing(runs));
    set(layers, "experiments.sim_cycles", missing(cycles));
    (wall_s, service_digests(&report))
}
