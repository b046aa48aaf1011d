//! The traced run's `Tick` adapter: wraps a model, times each of the
//! three calls the engine makes into it, and counts ticks. It forwards
//! `Probe` untimed, so `obs::drive` runs it through the same loop
//! `BeaconSystem::run` uses.

use std::cell::Cell;
use std::time::Instant;

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::Cycle;

/// Host time (seconds) spent inside the wrapped model, by call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spent {
    pub tick_s: f64,
    pub horizon_s: f64,
    pub idle_s: f64,
    pub ticks: u64,
}

/// A model under `obs::drive` with its `tick`, `next_event` and
/// `is_idle` calls timed. The engine's own loop time, stall checks
/// included, is the run's time minus these three.
pub struct Timed<'a, T: Tick> {
    inner: &'a mut T,
    tick_s: f64,
    ticks: u64,
    // `next_event` and `is_idle` take `&self`.
    horizon_s: Cell<f64>,
    idle_s: Cell<f64>,
}

impl<'a, T: Tick> Timed<'a, T> {
    pub fn new(inner: &'a mut T) -> Self {
        Timed {
            inner,
            tick_s: 0.0,
            ticks: 0,
            horizon_s: Cell::new(0.0),
            idle_s: Cell::new(0.0),
        }
    }

    pub fn spent(&self) -> Spent {
        Spent {
            tick_s: self.tick_s,
            horizon_s: self.horizon_s.get(),
            idle_s: self.idle_s.get(),
            ticks: self.ticks,
        }
    }
}

impl<T: Tick> Tick for Timed<'_, T> {
    fn tick(&mut self, now: Cycle) {
        let t = Instant::now();
        self.inner.tick(now);
        self.tick_s += t.elapsed().as_secs_f64();
        self.ticks += 1;
    }

    fn is_idle(&self) -> bool {
        let t = Instant::now();
        let idle = self.inner.is_idle();
        self.idle_s
            .set(self.idle_s.get() + t.elapsed().as_secs_f64());
        idle
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let t = Instant::now();
        let h = self.inner.next_event(now);
        self.horizon_s
            .set(self.horizon_s.get() + t.elapsed().as_secs_f64());
        h
    }
}

impl<T: Tick + Probe> Probe for Timed<'_, T> {
    fn progress_counter(&self) -> u64 {
        self.inner.progress_counter()
    }

    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        self.inner.gauges(out);
    }

    fn state_snapshot(&self) -> String {
        self.inner.state_snapshot()
    }
}
