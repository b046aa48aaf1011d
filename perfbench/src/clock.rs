//! Host time scaled to a reference host speed.
//!
//! A small shared virtual machine changes speed by up to 2x over tens
//! of seconds or minutes, as neighbours come and go. The change shows
//! in any code, the benchmark's and the program's alike, so it moves
//! whole runs. The harness therefore times a fixed reference kernel,
//! which lives here and no program change touches, after each timed
//! part of a run. It scales the run's host seconds by how much slower
//! than nominal the kernel ran over the run:
//! `scaled = host × REFERENCE_S / median(samples)`. A program that gets
//! slower still reads slower; a host that gets slower does not.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal host seconds of one reference sample (the median of
/// [`PASSES`] passes). On a 2-vCPU 2.1 GHz virtual machine a sample
/// took about 7 ms in the host's fast spells. Scaled times read as host
/// seconds on a host where a sample takes exactly this long.
pub const REFERENCE_S: f64 = 0.012;

/// Passes per reference sample; the sample is their median, so that a
/// single interrupt or page-in does not move it.
const PASSES: usize = 3;

/// Words in the random-access table: 8 MiB, larger than a core's
/// private caches, so the kernel feels shared-cache and memory
/// contention as the simulator does.
const TABLE_WORDS: usize = 1 << 21;

/// Bytes the reference keeps resident for the whole process.
pub const RESIDENT_BYTES: usize = TABLE_WORDS * std::mem::size_of::<u32>();

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel: random read-modify-writes over an 8 MiB table,
/// then inserts and removals in an ordered map (allocation and pointer
/// chasing), each about half of a pass. The work is the same on every
/// pass. Both halves are memory-bound, as the simulator is: a kernel
/// that computes in registers slows less than the simulator when the
/// host slows, and would leave part of the drift in the figures.
struct Reference {
    table: Vec<u32>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b1))
                .collect(),
        }
    }

    /// Host seconds of one pass.
    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x1234_5678_u64;
        let mut acc = 0_u64;
        for _ in 0..600_000 {
            let i = xorshift(&mut x) as usize & (TABLE_WORDS - 1);
            let v = self.table[i];
            acc = acc.wrapping_add(u64::from(v)).rotate_left(5) ^ x;
            if acc & 3 == 0 {
                self.table[i] = v.wrapping_add(acc as u32);
            }
        }
        let mut map = BTreeMap::new();
        for i in 0..45_000_u64 {
            let k = xorshift(&mut x) % 50_000;
            if i % 3 == 2 {
                map.remove(&k);
            } else {
                *map.entry(k).or_insert(0_u64) += i;
            }
        }
        black_box(&map);
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Host seconds of one sample.
    fn sample(&mut self) -> f64 {
        let mut p: Vec<f64> = (0..PASSES).map(|_| self.pass()).collect();
        p.sort_by(f64::total_cmp);
        p[PASSES / 2]
    }
}

/// Samples the reference through a run and turns the run's host
/// seconds into reference seconds.
pub struct Clock {
    reference: Reference,
    samples: Vec<f64>,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            reference: Reference::new(),
            samples: Vec::new(),
        }
    }

    /// Times one reference sample. The workloads call it after each
    /// timed part, so that the samples follow the host through the run.
    pub fn sample(&mut self) {
        let s = self.reference.sample();
        self.samples.push(s);
    }

    /// Host seconds of the latest sample.
    pub fn last_sample_s(&self) -> f64 {
        self.samples.last().copied().unwrap_or(f64::NAN)
    }

    /// The factor that turns host seconds measured in this run into
    /// reference seconds: [`REFERENCE_S`] over the median sample. One
    /// factor for the whole run, so that a spike in a single sample
    /// cannot move it.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / crate::work::median(self.samples.clone())
    }
}

/// A metric in `unit`, measured in host seconds, in reference seconds:
/// times are multiplied by `factor`, rates divided by it, and other
/// units are left alone.
pub fn to_reference(value: f64, unit: &str, factor: f64) -> f64 {
    match unit {
        "s" => value * factor,
        "1/s" | "Mcycles/s" => value / factor,
        _ => value,
    }
}
