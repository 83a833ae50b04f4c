//! Per-window traces assembled by the receiving host from in-band
//! telemetry sections, held in a bounded ring with a deterministic
//! sampling knob.

use crate::hop::HopRecord;
use std::collections::{BTreeMap, VecDeque};

/// The trace of one window's journey: which kernel/seq/sender it was,
/// and the hop records stamped by each on-path switch in path order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowTrace {
    /// Kernel id the window addressed.
    pub kernel: u16,
    /// Window sequence number.
    pub seq: u32,
    /// Originating sender id.
    pub sender: u16,
    /// Hop records in path order (first switch first).
    pub hops: Vec<HopRecord>,
}

/// Fixed-point scale for the sampler: Q32, so `1.0` is exactly
/// `1 << 32` and accumulator arithmetic is integer-exact.
const SAMPLING_ONE: u64 = 1 << 32;

/// A bounded ring buffer of [`WindowTrace`]s with a sampling knob.
///
/// Sampling is a deterministic error-accumulator (no RNG, so simulated
/// runs stay reproducible): with `sampling = 0.25` exactly every fourth
/// [`TraceRing::should_sample_for`] of a sender returns `true`. The
/// accumulator is integer fixed-point (Q32), so long runs cannot drift
/// the way a floating-point accumulator does, and each sender has its
/// own accumulator: with multiple senders
/// interleaving through one ring, each sender's kept set depends only on
/// its own window order, never on how the interleaving happened to land.
/// When the ring is full the oldest trace is evicted and counted in
/// [`TraceRing::dropped`].
#[derive(Debug)]
pub struct TraceRing {
    ring: VecDeque<WindowTrace>,
    cap: usize,
    sampling_fp: u64,
    per_sender: BTreeMap<u16, u64>,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` traces (minimum 1) that
    /// samples the given fraction of windows (`sampling` clamped to
    /// `[0, 1]`).
    pub fn new(sampling: f64, cap: usize) -> Self {
        TraceRing {
            ring: VecDeque::new(),
            cap: cap.max(1),
            sampling_fp: (sampling.clamp(0.0, 1.0) * SAMPLING_ONE as f64).round() as u64,
            per_sender: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn advance(acc: &mut u64, fp: u64) -> bool {
        *acc += fp;
        if *acc >= SAMPLING_ONE {
            *acc -= SAMPLING_ONE;
            true
        } else {
            false
        }
    }

    /// Advances `sender`'s sampler stream: `true` iff its next outgoing
    /// window should carry a telemetry section. Because each sender
    /// owns its accumulator, the decision for a sender's n-th window is
    /// a pure function of `(sampling, n)` — reordering *between*
    /// senders can never change which windows are kept.
    pub fn should_sample_for(&mut self, sender: u16) -> bool {
        let fp = self.sampling_fp;
        Self::advance(self.per_sender.entry(sender).or_insert(0), fp)
    }

    /// Stores a completed trace, evicting the oldest when full.
    pub fn push(&mut self, trace: WindowTrace) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(trace);
    }

    /// Drains and returns every buffered trace, oldest first.
    pub fn take(&mut self) -> Vec<WindowTrace> {
        self.ring.drain(..).collect()
    }

    /// Clones the buffered traces without draining them (used by the
    /// flight recorder, which must not disturb the running host).
    pub fn snapshot(&self) -> Vec<WindowTrace> {
        self.ring.iter().cloned().collect()
    }

    /// Number of buffered traces.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Traces evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u32) -> WindowTrace {
        WindowTrace {
            kernel: 1,
            seq,
            sender: 7,
            hops: vec![],
        }
    }

    #[test]
    fn sampler_is_deterministic_and_proportional() {
        let mut r = TraceRing::new(0.25, 8);
        let hits: Vec<bool> = (0..8).map(|_| r.should_sample_for(7)).collect();
        assert_eq!(hits.iter().filter(|&&h| h).count(), 2);
        // Exactly every 4th window.
        assert_eq!(
            hits,
            vec![false, false, false, true, false, false, false, true]
        );
        let mut all = TraceRing::new(1.0, 8);
        assert!((0..100).all(|_| all.should_sample_for(7)));
        let mut none = TraceRing::new(0.0, 8);
        assert!(!(0..100).any(|_| none.should_sample_for(7)));
    }

    #[test]
    fn sampler_is_drift_free_over_long_runs() {
        // With a float accumulator, 0.1 accumulates representation
        // error; the Q32 accumulator keeps the kept-count exact forever.
        let mut r = TraceRing::new(0.1, 8);
        let kept = (0..1_000_000).filter(|_| r.should_sample_for(7)).count();
        assert_eq!(kept, 100_000);
    }

    #[test]
    fn per_sender_sampling_is_interleaving_invariant() {
        // The kept set for each sender must be a pure function of that
        // sender's own window order, whatever the global interleaving.
        let decide = |order: &[u16]| -> Vec<(u16, u32)> {
            let mut r = TraceRing::new(0.25, 64);
            let mut next_seq: BTreeMap<u16, u32> = BTreeMap::new();
            let mut kept = Vec::new();
            for &sender in order {
                let seq = next_seq.entry(sender).or_insert(0);
                if r.should_sample_for(sender) {
                    kept.push((sender, *seq));
                }
                *seq += 1;
            }
            kept.sort_unstable();
            kept
        };
        // 8 windows per sender, three very different interleavings.
        let blocked: Vec<u16> = [vec![1u16; 8], vec![2u16; 8]].concat();
        let alternating: Vec<u16> = (0..16).map(|i| 1 + (i % 2) as u16).collect();
        let lopsided: Vec<u16> =
            [vec![1u16; 6], vec![2u16; 7], vec![1u16; 2], vec![2u16; 1]].concat();
        let want: Vec<(u16, u32)> = vec![(1, 3), (1, 7), (2, 3), (2, 7)];
        assert_eq!(decide(&blocked), want);
        assert_eq!(decide(&alternating), want);
        assert_eq!(decide(&lopsided), want);
    }

    #[test]
    fn concurrent_producers_keep_a_deterministic_set() {
        use std::sync::{Arc, Mutex};
        // Two real threads race through one shared ring; whatever
        // interleaving the scheduler produces, the kept set is the one
        // the single-threaded oracle predicts.
        let per_sender = 64u32;
        let oracle: Vec<(u16, u32)> = {
            let mut r = TraceRing::new(0.25, 1024);
            let mut kept = Vec::new();
            for sender in [1u16, 2] {
                for seq in 0..per_sender {
                    if r.should_sample_for(sender) {
                        kept.push((sender, seq));
                    }
                }
            }
            kept.sort_unstable();
            kept
        };
        for _ in 0..8 {
            let ring = Arc::new(Mutex::new(TraceRing::new(0.25, 1024)));
            let threads: Vec<_> = [1u16, 2]
                .into_iter()
                .map(|sender| {
                    let ring = ring.clone();
                    std::thread::spawn(move || {
                        for seq in 0..per_sender {
                            let mut r = ring.lock().unwrap();
                            if r.should_sample_for(sender) {
                                let mut t = trace(seq);
                                t.sender = sender;
                                r.push(t);
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let mut kept: Vec<(u16, u32)> = ring
                .lock()
                .unwrap()
                .snapshot()
                .iter()
                .map(|t| (t.sender, t.seq))
                .collect();
            kept.sort_unstable();
            assert_eq!(kept, oracle);
        }
    }

    #[test]
    fn ring_bounds_and_evicts_oldest() {
        let mut r = TraceRing::new(1.0, 2);
        r.push(trace(1));
        r.push(trace(2));
        r.push(trace(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let seqs: Vec<u32> = r.take().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert!(r.is_empty());
    }
}
