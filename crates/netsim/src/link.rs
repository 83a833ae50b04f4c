//! Store-and-forward links.
//!
//! A link direction is a FIFO transmitter: a packet of `n` bytes starts
//! serializing when the transmitter frees up, takes `n·8/bandwidth`
//! to put on the wire, and arrives `latency` later. Deterministic loss
//! (`drop_every`) and probabilistic loss (seeded xorshift) support the
//! failure-injection tests.

use crate::event::{Time, SECONDS};

/// Static link parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkSpec {
    /// Bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub latency: Time,
    /// Drop every n-th packet (deterministic loss; 0 = never).
    pub drop_every: u64,
    /// Probabilistic loss in [0, 1] (applied with a per-link seeded
    /// PRNG; 0.0 = never).
    pub loss: f64,
    /// Deliver every n-th successfully transmitted packet twice
    /// (deterministic duplication; 0 = never). The copy trails the
    /// original by one serialization time, as a link-layer retransmit
    /// would.
    pub dup_every: u64,
    /// When a loss fires, also drop the following `burst_len - 1`
    /// packets (correlated loss; 0 or 1 = independent single drops).
    pub burst_len: u64,
    /// Delay every n-th delivered packet by an extra [`LinkSpec::jitter`]
    /// (deterministic reordering; 0 = never).
    pub jitter_every: u64,
    /// Extra propagation delay applied by `jitter_every`.
    pub jitter: Time,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000_000, // 10 Gb/s
            latency: 1_000,                // 1 µs
            drop_every: 0,
            loss: 0.0,
            dup_every: 0,
            burst_len: 0,
            jitter_every: 0,
            jitter: 0,
        }
    }
}

impl LinkSpec {
    /// Serialization time for `bytes`.
    fn ser_time(&self, bytes: usize) -> Time {
        (bytes as u128 * 8 * SECONDS as u128 / self.bandwidth_bps as u128) as Time
    }
}

/// What one [`LinkDir::transmit_outcome`] call did to a packet, in full:
/// arrival times (if any), whether loss injection ate it, and whether
/// that loss was part of a correlated burst. The ncscope event path
/// needs the drop/burst facts that the `Option<Time>` API erases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransmitOutcome {
    /// Arrival time at the far end (`None` when the packet was lost).
    pub arrival: Option<Time>,
    /// Trailing duplicate's arrival, when duplication injection fired.
    pub dup: Option<Time>,
    /// Loss injection ate the packet.
    pub dropped: bool,
    /// The drop rode an in-progress correlated loss burst (rather than
    /// being a fresh trigger).
    pub burst: bool,
}

/// One direction of a link at runtime.
#[derive(Clone, Debug)]
pub struct LinkDir {
    /// Parameters.
    pub spec: LinkSpec,
    /// When the transmitter is next free.
    pub free_at: Time,
    /// Packets sent.
    pub packets: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Packets dropped by loss injection.
    pub dropped: u64,
    /// Packets delivered twice by duplication injection.
    pub duplicated: u64,
    /// Remaining packets of an in-progress loss burst.
    burst_left: u64,
    /// Packets that made it onto the wire (denominator for `dup_every`
    /// and `jitter_every` cadences, which apply to delivered packets).
    delivered: u64,
    rng: u64,
}

impl LinkDir {
    /// Creates a direction with a seed for probabilistic loss.
    pub fn new(spec: LinkSpec, seed: u64) -> Self {
        LinkDir {
            spec,
            free_at: 0,
            packets: 0,
            bytes: 0,
            dropped: 0,
            duplicated: 0,
            burst_left: 0,
            delivered: 0,
            rng: seed | 1,
        }
    }

    fn next_rand(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Transmits `nbytes` at time `now`: the packet's arrival time at
    /// the far end (`None` when loss injection eats it, which still
    /// counts the serialization — the bits were sent), its trailing
    /// copy's when duplication injection fires, and whether (and how)
    /// loss injection fired.
    pub fn transmit_outcome(&mut self, now: Time, nbytes: usize) -> TransmitOutcome {
        let start = now.max(self.free_at);
        let ser = self.spec.ser_time(nbytes);
        self.free_at = start + ser;
        self.packets += 1;
        self.bytes += nbytes as u64;
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.dropped += 1;
            return TransmitOutcome {
                arrival: None,
                dup: None,
                dropped: true,
                burst: true,
            };
        }
        let lost = (self.spec.drop_every > 0 && self.packets.is_multiple_of(self.spec.drop_every))
            || (self.spec.loss > 0.0 && self.next_rand() < self.spec.loss);
        if lost {
            self.dropped += 1;
            self.burst_left = self.spec.burst_len.saturating_sub(1);
            return TransmitOutcome {
                arrival: None,
                dup: None,
                dropped: true,
                burst: false,
            };
        }
        self.delivered += 1;
        let mut delay = self.spec.latency;
        if self.spec.jitter_every > 0 && self.delivered.is_multiple_of(self.spec.jitter_every) {
            delay += self.spec.jitter;
        }
        let arrival = start + ser + delay;
        let dup = if self.spec.dup_every > 0 && self.delivered.is_multiple_of(self.spec.dup_every) {
            self.duplicated += 1;
            Some(arrival + ser.max(1))
        } else {
            None
        };
        TransmitOutcome {
            arrival: Some(arrival),
            dup,
            dropped: false,
            burst: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time() {
        let spec = LinkSpec {
            bandwidth_bps: 1_000_000_000, // 1 Gb/s
            latency: 500,
            ..Default::default()
        };
        // 1250 bytes = 10_000 bits @1Gb/s = 10 µs.
        assert_eq!(spec.ser_time(1250), 10_000);
    }

    #[test]
    fn fifo_queueing() {
        let spec = LinkSpec {
            bandwidth_bps: 1_000_000_000,
            latency: 0,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        let a1 = dir.transmit_outcome(0, 1250).arrival.unwrap();
        let a2 = dir.transmit_outcome(0, 1250).arrival.unwrap();
        assert_eq!(a1, 10_000);
        assert_eq!(a2, 20_000, "second packet queues behind the first");
        // After the queue drains, no backlog.
        let a3 = dir.transmit_outcome(50_000, 1250).arrival.unwrap();
        assert_eq!(a3, 60_000);
    }

    #[test]
    fn latency_added_after_serialization() {
        let spec = LinkSpec {
            bandwidth_bps: 1_000_000_000,
            latency: 7_000,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        assert_eq!(dir.transmit_outcome(0, 1250).arrival, Some(17_000));
    }

    #[test]
    fn deterministic_loss() {
        let spec = LinkSpec {
            drop_every: 3,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        let outcomes: Vec<bool> = (0..9)
            .map(|_| dir.transmit_outcome(0, 100).arrival.is_some())
            .collect();
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(dir.dropped, 3);
    }

    #[test]
    fn deterministic_duplication() {
        let spec = LinkSpec {
            dup_every: 3,
            latency: 0,
            bandwidth_bps: 1_000_000_000,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        let mut arrivals = Vec::new();
        for _ in 0..6 {
            let o = dir.transmit_outcome(0, 1250);
            arrivals.push([o.arrival, o.dup]);
        }
        let dups: Vec<bool> = arrivals.iter().map(|a| a[1].is_some()).collect();
        assert_eq!(dups, vec![false, false, true, false, false, true]);
        assert_eq!(dir.duplicated, 2);
        // The copy trails its original by one serialization time.
        let [Some(first), Some(second)] = arrivals[2] else {
            panic!("expected duplicate");
        };
        assert_eq!(second, first + spec.ser_time(1250));
    }

    #[test]
    fn burst_loss_extends_a_drop() {
        let spec = LinkSpec {
            drop_every: 4,
            burst_len: 3,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        let outcomes: Vec<bool> = (0..10)
            .map(|_| dir.transmit_outcome(0, 100).arrival.is_some())
            .collect();
        // Packet 4 triggers, packets 5 and 6 ride the burst; packet 8
        // is both a multiple of 4 and a fresh trigger.
        assert_eq!(
            outcomes,
            vec![true, true, true, false, false, false, true, false, false, false]
        );
        assert_eq!(dir.dropped, 6);
    }

    #[test]
    fn jitter_reorders_deterministically() {
        let spec = LinkSpec {
            jitter_every: 2,
            jitter: 50_000,
            latency: 1_000,
            bandwidth_bps: 10_000_000_000,
            ..Default::default()
        };
        let mut dir = LinkDir::new(spec, 1);
        let a1 = dir.transmit_outcome(0, 100).arrival.unwrap();
        let a2 = dir.transmit_outcome(0, 100).arrival.unwrap();
        let a3 = dir.transmit_outcome(0, 100).arrival.unwrap();
        assert!(a2 > a3, "jittered packet 2 arrives after packet 3");
        assert!(a1 < a3);
    }

    #[test]
    fn probabilistic_loss_is_seeded() {
        let spec = LinkSpec {
            loss: 0.5,
            ..Default::default()
        };
        let run = |seed: u64| -> Vec<bool> {
            let mut dir = LinkDir::new(spec, seed);
            (0..32)
                .map(|_| dir.transmit_outcome(0, 100).arrival.is_some())
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same trace");
        let drops = run(42).iter().filter(|ok| !**ok).count();
        assert!(drops > 4 && drops < 28, "loss roughly half, got {drops}/32");
    }
}
