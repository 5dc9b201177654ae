//! The benchmark's telemetry sink: σ rounds become `sigma.round` spans,
//! and the round and batch counters are summed where the kernel reports
//! them.

use crate::spans;
use dbf_telemetry::TelemetrySink;

/// Counters read off the telemetry stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// σ rounds run.
    pub rounds: u64,
    /// Rows recomputed across those rounds.
    pub rows_recomputed: u64,
    /// Recomputed rows whose value changed.
    pub rows_changed: u64,
    /// Rows one-at-a-time processing would have dirtied.
    pub naive_dirty: u64,
    /// Rows the coalesced batches dirtied.
    pub batch_dirty: u64,
}

/// A sink that records σ rounds as spans under the calling span.
#[derive(Debug, Default)]
pub struct SpanSink {
    /// Totals so far.
    pub counters: Counters,
    open: Option<usize>,
}

impl TelemetrySink for SpanSink {
    fn round_start(&mut self, _round: u64, _scheduled: u64, _frontier: u64) {
        self.open = spans::enter("sigma.round", spans::INHERIT);
    }

    fn round_end(&mut self, _round: u64, recomputed: u64, changed: u64, _wall_ns: u64) {
        spans::exit(self.open.take());
        self.counters.rounds += 1;
        self.counters.rows_recomputed += recomputed;
        self.counters.rows_changed += changed;
    }

    fn serve_batch(
        &mut self,
        _batch: u64,
        _events: u64,
        naive_dirty: u64,
        batch_dirty: u64,
        _rounds: u64,
    ) {
        self.counters.naive_dirty += naive_dirty;
        self.counters.batch_dirty += batch_dirty;
    }
}
