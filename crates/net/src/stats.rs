//! Network delivery statistics.

use std::fmt;

/// A fixed-bucket latency histogram with power-of-two bucket boundaries.
///
/// Bucket `0` counts zero-cycle deliveries; bucket `i ≥ 1` counts latencies
/// in `[2^(i-1), 2^i - 1]`; the last bucket is open-ended. Recording is a
/// shift and an increment — no floats anywhere near the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHist {
    buckets: [u64; LatencyHist::BUCKETS],
}

impl LatencyHist {
    /// Number of buckets (the last one is open-ended).
    pub const BUCKETS: usize = 16;

    /// The bucket index a latency falls into.
    pub fn bucket_of(latency: u64) -> usize {
        match latency {
            0 => 0,
            l => ((64 - l.leading_zeros()) as usize).min(Self::BUCKETS - 1),
        }
    }

    /// The inclusive `(lo, hi)` latency range of bucket `i`; the final
    /// bucket's `hi` is `u64::MAX`.
    pub fn bounds(i: usize) -> (u64, u64) {
        assert!(i < Self::BUCKETS);
        match i {
            0 => (0, 0),
            i if i == Self::BUCKETS - 1 => (1 << (i - 1), u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Counts one delivery with the given latency.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// Total recorded deliveries (equals `NetStats::delivered` when the
    /// fabric maintains the histogram).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `pct`-th percentile latency under the **upper-bound-of-bucket
    /// convention**: the smallest bucket whose cumulative count reaches
    /// `ceil(total · pct / 100)` answers with its *inclusive upper bound*
    /// (a conservative estimate — the true percentile is never above it).
    /// The open-ended last bucket has no upper bound and answers with its
    /// lower bound instead, the only case where the estimate can be low.
    ///
    /// Returns `None` before any delivery.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= pct <= 100`.
    pub fn percentile(&self, pct: u32) -> Option<u64> {
        assert!((1..=100).contains(&pct), "percentile {pct} out of range");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = u64::try_from((u128::from(total) * u128::from(pct)).div_ceil(100))
            .expect("rank <= total");
        let mut cumulative = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let (lo, hi) = Self::bounds(i);
                return Some(if hi == u64::MAX { lo } else { hi });
            }
        }
        unreachable!("rank <= total implies some bucket reaches it")
    }

    /// Adds another histogram's counts into this one (per-bucket sum).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (slot, add) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += add;
        }
    }

    /// The histogram of deliveries recorded since `baseline` was snapshotted
    /// from this same histogram (per-bucket subtraction). Used by measurement
    /// windows: snapshot before, subtract after, extract percentiles of the
    /// window alone.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any bucket of `baseline` exceeds this histogram's —
    /// i.e. `baseline` is not an earlier snapshot of the same counter stream.
    pub fn since(&self, baseline: &LatencyHist) -> LatencyHist {
        let mut out = LatencyHist::default();
        for (i, slot) in out.buckets.iter_mut().enumerate() {
            debug_assert!(
                self.buckets[i] >= baseline.buckets[i],
                "baseline is not an earlier snapshot (bucket {i})"
            );
            *slot = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        out
    }
}

impl fmt::Display for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        if total == 0 {
            return writeln!(f, "latency histogram: (no deliveries)");
        }
        writeln!(f, "latency histogram ({total} deliveries):")?;
        let peak = *self.buckets.iter().max().expect("non-empty");
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = Self::bounds(i);
            let label = if hi == u64::MAX {
                format!("{lo}+")
            } else if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            };
            let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
            writeln!(f, "  {label:>12} {count:>8}  {bar}")?;
        }
        Ok(())
    }
}

/// Injected-fault tallies, maintained by [`crate::FaultyFabric`] and all
/// zero on an unwrapped (fault-free) fabric.
///
/// Faulted-away messages are **not** `bad_dest` drops: a dropped message had
/// a valid destination and was accepted at the injection boundary (the
/// sender believes it was sent), whereas a `bad_dest` rejection hands the
/// message back. The conservation law under faults is
/// `injected - faults.dropped == delivered + in_flight`, where `injected`
/// includes the extra copies counted in `faults.duplicated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Accepted injections silently discarded at the entry link.
    pub dropped: u64,
    /// Extra copies injected behind an accepted message.
    pub duplicated: u64,
    /// Accepted injections whose payload had one bit flipped in `m1..m4`
    /// (`m0` — and with it the destination — is never corrupted).
    pub corrupted: u64,
    /// Transient link-stall events scheduled (each blinds one node port for
    /// the configured stall length).
    pub stalls: u64,
}

impl FaultCounters {
    /// Whether any fault has been recorded.
    pub fn any(&self) -> bool {
        self.dropped > 0 || self.duplicated > 0 || self.corrupted > 0 || self.stalls > 0
    }

    /// Per-counter difference against an earlier snapshot of the same stream
    /// (measurement windows, like [`LatencyHist::since`]).
    pub fn since(&self, baseline: &FaultCounters) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped - baseline.dropped,
            duplicated: self.duplicated - baseline.duplicated,
            corrupted: self.corrupted - baseline.corrupted,
            stalls: self.stalls - baseline.stalls,
        }
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults(dropped={} duplicated={} corrupted={} stalls={})",
            self.dropped, self.duplicated, self.corrupted, self.stalls
        )
    }
}

/// Simulator work-effort meters for the hot-set scheduler.
///
/// These count what the *simulator* did, not what the simulated machine
/// did: how many channel slots and delivery flows each per-cycle scan
/// actually visited, and how much of the dense (size-proportional) scan it
/// proved unnecessary. Two bit-identical simulations may legitimately differ
/// here (hot-set vs dense cross-check), which is why [`NetStats`] equality
/// deliberately ignores this field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Mesh channel slots examined by `tick` across all cycles.
    pub scanned_channels: u64,
    /// Delivery flows examined by the retransmission pump across all cycles.
    pub scanned_flows: u64,
    /// Dense-scan slots/flows the active-set frontier skipped (the saved
    /// work: dense cost minus what was scanned).
    pub skipped_work: u64,
    /// Live delivery flow-map entries (tx + rx) at sampling time — the
    /// sparse flow store's current footprint.
    pub active_flows: u64,
    /// High-water mark of [`active_flows`](Self::active_flows) over the
    /// whole machine.
    pub peak_flows: u64,
    /// Flow lookups made by the delivery protocol, one per lookup
    /// (timer maintenance and invariant checks are not counted).
    pub flow_probes: u64,
}

impl ScanStats {
    /// Adds another counter set into this one (used to merge the fabric's
    /// channel counters with the delivery layer's flow counters).
    pub fn merge(&mut self, other: ScanStats) {
        self.scanned_channels += other.scanned_channels;
        self.scanned_flows += other.scanned_flows;
        self.skipped_work += other.skipped_work;
        self.active_flows += other.active_flows;
        self.peak_flows += other.peak_flows;
        self.flow_probes += other.flow_probes;
    }
}

/// Counters common to all [`crate::Network`] implementations.
///
/// Equality compares the *simulated behaviour* only: every field except
/// [`scan`](NetStats::scan) (which measures simulator effort and differs
/// between the hot-set scheduler and its dense cross-check) participates in
/// `==`. The equivalence suites rely on this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Messages accepted for injection.
    pub injected: u64,
    /// Messages delivered (ejected).
    pub delivered: u64,
    /// Injections refused because the entry buffer was full.
    pub inject_refusals: u64,
    /// Injections rejected because the source or destination does not
    /// exist on this fabric (counted per attempt; see [`crate::InjectError::BadDest`]).
    pub bad_dest: u64,
    /// Sum of per-message latencies, in cycles.
    ///
    /// **Convention:** latency is the fabric residency of a message — from
    /// the cycle its injection was *accepted* (which, on the mesh, includes
    /// time spent queued in the injection FIFO) to the cycle it was ejected
    /// (including time spent deliverable but not yet drained by the
    /// receiver). Driven by the machine simulator, this equals
    /// `Delivered.cycle - Sent.cycle` of the corresponding trace events, and
    /// is never less than 1: the hand-off from the injection phase of one
    /// cycle is visible to the receiver no earlier than the next cycle, so a
    /// zero-latency ideal fabric reports latency 1.
    pub total_latency: u64,
    /// Packet moves blocked by a full downstream buffer (contention measure;
    /// always zero for the ideal network).
    pub blocked_hops: u64,
    /// High-water mark of in-flight messages.
    pub in_flight_hwm: usize,
    /// Per-delivery latency distribution (same convention as
    /// [`total_latency`](NetStats::total_latency)).
    pub latency_hist: LatencyHist,
    /// Injected-fault tallies; all zero unless the fabric is wrapped in a
    /// [`crate::FaultyFabric`].
    pub faults: FaultCounters,
    /// Hot-set scheduler work meters — **excluded from equality** (see the
    /// type-level docs).
    pub scan: ScanStats,
}

impl PartialEq for NetStats {
    fn eq(&self, other: &NetStats) -> bool {
        // `scan` intentionally omitted: it measures simulator effort, not
        // simulated behaviour (hot-set vs dense scans visit different
        // counts while producing identical traffic).
        self.injected == other.injected
            && self.delivered == other.delivered
            && self.inject_refusals == other.inject_refusals
            && self.bad_dest == other.bad_dest
            && self.total_latency == other.total_latency
            && self.blocked_hops == other.blocked_hops
            && self.in_flight_hwm == other.in_flight_hwm
            && self.latency_hist == other.latency_hist
            && self.faults == other.faults
    }
}

impl Eq for NetStats {}

impl NetStats {
    /// Mean delivery latency in cycles, or `None` before any delivery.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.total_latency as f64 / self.delivered as f64)
    }

    pub(crate) fn record_delivery(&mut self, latency: u64) {
        self.delivered += 1;
        self.total_latency += latency;
        self.latency_hist.record(latency);
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net(injected={} delivered={} refusals={} bad_dest={} mean_latency=",
            self.injected, self.delivered, self.inject_refusals, self.bad_dest,
        )?;
        // "No deliveries yet" and "zero mean latency" are different facts;
        // print n/a rather than a fake 0.00.
        match self.mean_latency() {
            Some(mean) => write!(f, "{mean:.2}")?,
            None => write!(f, "n/a")?,
        }
        write!(
            f,
            " blocked={} hwm={})",
            self.blocked_hops, self.in_flight_hwm,
        )?;
        // Fault-free fabrics print exactly what they always printed.
        if self.faults.any() {
            write!(f, " {}", self.faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_scan_counters() {
        let a = NetStats {
            injected: 5,
            ..NetStats::default()
        };
        let mut b = a;
        b.scan.scanned_channels = 100;
        b.scan.skipped_work = 900;
        b.scan.active_flows = 7;
        b.scan.peak_flows = 9;
        b.scan.flow_probes = 11;
        assert_eq!(a, b, "scan counters measure effort, not behaviour");
        b.injected = 6;
        assert_ne!(a, b, "behavioural fields still compare");
    }

    #[test]
    fn scan_merge_adds_counters() {
        let mut a = ScanStats {
            scanned_channels: 1,
            scanned_flows: 2,
            skipped_work: 3,
            active_flows: 4,
            peak_flows: 5,
            flow_probes: 6,
        };
        a.merge(ScanStats {
            scanned_channels: 10,
            scanned_flows: 20,
            skipped_work: 30,
            active_flows: 40,
            peak_flows: 50,
            flow_probes: 60,
        });
        assert_eq!(a.scanned_channels, 11);
        assert_eq!(a.scanned_flows, 22);
        assert_eq!(a.skipped_work, 33);
        assert_eq!(a.active_flows, 44);
        assert_eq!(a.peak_flows, 55);
        assert_eq!(a.flow_probes, 66);
    }

    #[test]
    fn mean_latency() {
        let mut s = NetStats::default();
        assert_eq!(s.mean_latency(), None);
        s.delivered = 4;
        s.total_latency = 10;
        assert_eq!(s.mean_latency(), Some(2.5));
    }

    #[test]
    fn display_prints_na_before_any_delivery() {
        let mut s = NetStats {
            injected: 3,
            ..NetStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("mean_latency=n/a"), "{text}");
        s.delivered = 2;
        s.total_latency = 5;
        let text = s.to_string();
        assert!(text.contains("mean_latency=2.50"), "{text}");
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(LatencyHist::bucket_of(0), 0);
        assert_eq!(LatencyHist::bucket_of(1), 1);
        assert_eq!(LatencyHist::bucket_of(2), 2);
        assert_eq!(LatencyHist::bucket_of(3), 2);
        assert_eq!(LatencyHist::bucket_of(4), 3);
        assert_eq!(LatencyHist::bucket_of(7), 3);
        assert_eq!(LatencyHist::bucket_of(8), 4);
        assert_eq!(LatencyHist::bucket_of(1 << 20), LatencyHist::BUCKETS - 1);
        assert_eq!(LatencyHist::bucket_of(u64::MAX), LatencyHist::BUCKETS - 1);
        for i in 0..LatencyHist::BUCKETS {
            let (lo, hi) = LatencyHist::bounds(i);
            assert_eq!(LatencyHist::bucket_of(lo), i);
            if hi != u64::MAX {
                assert_eq!(LatencyHist::bucket_of(hi), i);
            }
        }
    }

    #[test]
    fn percentile_upper_bound_convention() {
        let mut h = LatencyHist::default();
        assert_eq!(h.percentile(50), None);
        // 10 deliveries: latencies 1..=10 land in buckets 1 (1), 2 (2,3),
        // 3 (4..7), 4 (8,9,10).
        for lat in 1..=10 {
            h.record(lat);
        }
        // p50 → rank 5 → cumulative 1+2+4=7 at bucket 3 → upper bound 7.
        assert_eq!(h.percentile(50), Some(7));
        // p10 → rank 1 → bucket 1 → upper bound 1.
        assert_eq!(h.percentile(10), Some(1));
        // p99/p100 → rank 10 → bucket 4 → upper bound 15.
        assert_eq!(h.percentile(99), Some(15));
        assert_eq!(h.percentile(100), Some(15));
        // A single sample answers every percentile with its bucket.
        let mut one = LatencyHist::default();
        one.record(3);
        assert_eq!(one.percentile(1), Some(3));
        assert_eq!(one.percentile(99), Some(3));
    }

    #[test]
    fn percentile_open_bucket_answers_lower_bound() {
        let mut h = LatencyHist::default();
        h.record(u64::MAX);
        let (lo, hi) = LatencyHist::bounds(LatencyHist::BUCKETS - 1);
        assert_eq!(hi, u64::MAX);
        assert_eq!(h.percentile(99), Some(lo));
    }

    #[test]
    #[should_panic(expected = "percentile 0 out of range")]
    fn percentile_rejects_zero() {
        let _ = LatencyHist::default().percentile(0);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = LatencyHist::default();
        a.record(1);
        a.record(300);
        let mut b = LatencyHist::default();
        b.record(1);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[1], 2);
    }

    #[test]
    fn since_isolates_a_window() {
        let mut h = LatencyHist::default();
        h.record(1);
        h.record(100);
        let snapshot = h;
        h.record(2);
        h.record(2);
        let window = h.since(&snapshot);
        assert_eq!(window.total(), 2);
        assert_eq!(window.percentile(99), Some(3)); // bucket of 2 is [2,3]
                                                    // The full histogram is unchanged by the subtraction.
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_totals_and_display() {
        let mut h = LatencyHist::default();
        for lat in [0, 1, 1, 5, 300] {
            h.record(lat);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        let text = h.to_string();
        assert!(text.contains("5 deliveries"), "{text}");
        assert!(LatencyHist::default().to_string().contains("no deliveries"));
    }
}
