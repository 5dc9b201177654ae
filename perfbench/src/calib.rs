//! The machine's speed, gauged next to the workload.
//!
//! On a shared host the same single-threaded code runs in fast and slow
//! stretches that last from seconds to minutes and are up to about 1.7×
//! apart, with no stolen time to show for it; cache- and allocation-heavy
//! code slows the most.  A run's raw times land in whichever stretch it
//! saw, so ten runs spread by nearly that ratio.  The gauge times a fixed
//! probe of the benchmark's own — a small min-plus slab fixed point and a
//! formatted digest of it, the two kinds of work the workloads do — around
//! every timed stretch, and the stretch's times are scaled by
//! ([`REFERENCE_S`] ÷ the probe's time)^e: they read as seconds on a
//! machine where the probe takes [`REFERENCE_S`].  The exponent `e` is how
//! strongly a workload's times follow the probe's, measured on the host
//! (`NOTES.md`): a workload that slows less than the probe gets `e < 1`.
//! The probe never calls the program, so a change to the program moves
//! the scaled figures exactly as it moves the raw ones.

use crate::stats::median;
use std::time::Instant;

/// Time of the [`Probe::standard`] probe, seconds, that scaled figures
/// are expressed against: about what it takes on the fast stretches of a
/// 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_S: f64 = 0.005;
/// The same for the [`Probe::small`] probe.
pub const REFERENCE_SMALL_S: f64 = 0.000_1;

/// Probe runs per gauge reading (the reading is their median).
const RUNS: usize = 3;

/// A probe: hop counts from `n` nodes to `w` spread destinations by
/// synchronous min-plus relaxation, then an FNV-1a digest of every
/// entry's formatted text.  Its graph is a ring plus three fixed
/// pseudo-random links per node.
#[derive(Debug, Clone)]
pub struct Probe {
    adj: Vec<Vec<usize>>,
    w: usize,
    digest: u64,
}

impl Probe {
    /// A probe on `n` nodes and `w` destinations (`w` divides `n`).
    pub fn new(n: usize, w: usize) -> Probe {
        assert!(
            w > 0 && n.is_multiple_of(w),
            "{w} destinations must divide {n} nodes"
        );
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let adj = (0..n)
            .map(|i| {
                let mut v = vec![(i + 1) % n, (i + n - 1) % n];
                v.extend((0..3).map(|_| next() as usize % n).filter(|&k| k != i));
                v
            })
            .collect();
        let mut p = Probe { adj, w, digest: 0 };
        p.digest = p.compute();
        p
    }

    /// The gauge's probe: about 5 ms on a fast 2-vCPU Xeon.
    pub fn standard() -> Probe {
        Probe::new(512, 64)
    }

    /// A probe small enough for the open loop's idle gaps: about 0.1 ms.
    pub fn small() -> Probe {
        Probe::new(64, 16)
    }

    fn compute(&self) -> u64 {
        let (n, w) = (self.adj.len(), self.w);
        let mut cur = vec![u32::MAX; n * w];
        for j in 0..w {
            cur[j * (n / w) * w + j] = 0;
        }
        let mut next = cur.clone();
        loop {
            let mut changed = false;
            for (i, row) in next.chunks_mut(w).enumerate() {
                for (jl, d) in row.iter_mut().enumerate() {
                    let mut best = cur[i * w + jl];
                    for &k in &self.adj[i] {
                        best = best.min(cur[k * w + jl].saturating_add(1));
                    }
                    changed |= best != cur[i * w + jl];
                    *d = best;
                }
            }
            std::mem::swap(&mut cur, &mut next);
            if !changed {
                break;
            }
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (e, d) in cur.iter().enumerate() {
            for &b in format!("({},{})={d:?};", e / w, e % w).as_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        }
        digest
    }

    /// Run the probe once; returns its time, seconds.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        let d = std::hint::black_box(self.compute());
        let s = t.elapsed().as_secs_f64();
        assert_eq!(d, self.digest, "the speed probe computed a wrong digest");
        s
    }
}

/// Time one gauge reading: the median of [`RUNS`] probe runs, seconds.
fn reading(probe: &Probe) -> f64 {
    let runs: Vec<f64> = (0..RUNS).map(|_| probe.time()).collect();
    median(&runs)
}

/// Gauge readings taken between timed stretches.
#[derive(Debug)]
pub struct Gauge {
    probe: Probe,
    last: f64,
    /// Every reading so far, seconds.
    pub readings: Vec<f64>,
}

impl Gauge {
    /// Take the first reading.
    pub fn new() -> Gauge {
        let probe = Probe::standard();
        let last = reading(&probe);
        Gauge {
            probe,
            last,
            readings: vec![last],
        }
    }

    /// Take a reading that opens a new stretch.
    pub fn mark(&mut self) {
        self.last = reading(&self.probe);
        self.readings.push(self.last);
    }

    /// Take a reading and return the scale for the stretch since the
    /// previous one: [`REFERENCE_S`] ÷ the mean of the two readings, raised
    /// to `exponent`, how strongly the stretch's times follow the probe's
    /// (see the module notes).  A time measured in that stretch, times
    /// the scale, is in reference seconds; a rate, divided by it, is per
    /// reference second.
    pub fn scale(&mut self, exponent: f64) -> f64 {
        let now = reading(&self.probe);
        let scale = (REFERENCE_S / ((self.last + now) / 2.0)).powf(exponent);
        self.last = now;
        self.readings.push(now);
        scale
    }

    /// The median reading, seconds, for the record.
    pub fn median_reading(&self) -> f64 {
        median(&self.readings)
    }
}

/// Small probes run in an open loop's idle gaps, so that a session's
/// speed is read all through it rather than at its ends.
#[derive(Debug)]
pub struct IdleGauge {
    probe: Probe,
    /// Probe times, seconds.
    pub times: Vec<f64>,
    typical: f64,
}

impl Default for IdleGauge {
    fn default() -> Self {
        IdleGauge {
            probe: Probe::small(),
            times: Vec::new(),
            typical: REFERENCE_SMALL_S,
        }
    }
}

impl IdleGauge {
    /// Run small probes while three typical probe times still fit before
    /// `due`, so that the next event is not sent late for them.
    pub fn fill(&mut self, due: Instant) {
        while due.saturating_duration_since(Instant::now()).as_secs_f64() > 3.0 * self.typical {
            let t = self.probe.time();
            self.times.push(t);
            self.typical = 0.9 * self.typical + 0.1 * t;
        }
    }

    /// The session's scale: [`REFERENCE_SMALL_S`] ÷ the median probe
    /// time, raised to `exponent` as in [`Gauge::scale`] (1 when no probe
    /// ran).
    pub fn scale(&self, exponent: f64) -> f64 {
        if self.times.is_empty() {
            1.0
        } else {
            (REFERENCE_SMALL_S / median(&self.times)).powf(exponent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic() {
        for (n, w) in [(512, 64), (64, 16)] {
            let p = Probe::new(n, w);
            assert_eq!(p.compute(), p.digest);
            assert_eq!(Probe::new(n, w).digest, p.digest);
        }
        assert_eq!(Probe::standard().digest, 0xb337_aa28_2fb7_9da2);
        assert_ne!(Probe::standard().digest, Probe::small().digest);
    }

    #[test]
    fn scale_is_the_reference_over_the_mean_reading() {
        let mut g = Gauge::new();
        let s = g.scale(0.5);
        let mean = (g.readings[0] + g.readings[1]) / 2.0;
        assert!((s - (REFERENCE_S / mean).sqrt()).abs() < 1e-12);
        assert_eq!(g.readings.len(), 2);
    }

    #[test]
    fn idle_probes_stop_before_the_due_time() {
        let mut g = IdleGauge::default();
        let due = Instant::now() + std::time::Duration::from_millis(20);
        g.fill(due);
        assert!(!g.times.is_empty());
        assert!(Instant::now() <= due);
        assert!((g.scale(1.0) - REFERENCE_SMALL_S / median(&g.times)).abs() < 1e-12);
    }
}
