//! Self-calibrating anomaly baselines: EWMA mean + EWMA absolute
//! deviation (a streaming stand-in for the median absolute deviation)
//! over per-link / per-switch / per-tenant series.
//!
//! No hand-set thresholds: each series learns its own level and spread
//! during warmup, and a point is anomalous when it deviates from the
//! learned mean by more than `k` spreads. A relative + absolute
//! deviation floor keeps near-constant series (spread ≈ 0) from
//! flagging trivia, and detection is up-only by default — a series
//! *dropping* (end of run, drained tenant) is not an incident unless
//! the caller opts in via [`AnomalyConfig::watch_low`].
//!
//! All arithmetic is plain IEEE f64 over identical inputs, so verdicts
//! are deterministic across runs.

/// Tuning for every `EwmaMad` detector an engine owns.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyConfig {
    /// EWMA smoothing factor for both mean and deviation.
    pub alpha: f64,
    /// Flag when `|x - mean| > k * spread`.
    pub k: f64,
    /// Observations before any verdict (the baseline must settle).
    pub warmup: u64,
    /// Absolute spread floor.
    pub abs_floor: f64,
    /// Relative spread floor, as a fraction of `|mean|`.
    pub rel_floor: f64,
    /// Also flag downward deviations (default: up-only).
    pub watch_low: bool,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            alpha: 0.3,
            k: 8.0,
            warmup: 5,
            abs_floor: 4.0,
            rel_floor: 0.25,
            watch_low: false,
        }
    }
}

/// A flagged deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Anomaly {
    /// The offending observation.
    pub value: f64,
    /// Learned baseline mean at flag time.
    pub mean: f64,
    /// Learned spread (post-floor) at flag time.
    pub spread: f64,
    /// `|value - mean| / spread` — how many spreads out.
    pub score: f64,
    /// Deviation direction: `true` = above baseline.
    pub high: bool,
}

/// One series' streaming baseline.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EwmaMad {
    mean: f64,
    dev: f64,
    n: u64,
}

impl EwmaMad {
    /// Feeds one observation; returns the verdict *before* the
    /// baseline absorbs it (so a level shift is judged against the
    /// pre-shift baseline, then re-baselined over the following
    /// `~1/alpha` ticks — a persistent shift fires once, not forever).
    pub(crate) fn observe(&mut self, cfg: &AnomalyConfig, x: f64) -> Option<Anomaly> {
        let verdict = if self.n >= cfg.warmup {
            let floor = cfg.abs_floor.max(cfg.rel_floor * self.mean.abs());
            let spread = self.dev.max(floor);
            let delta = x - self.mean;
            let score = delta.abs() / spread;
            if score > cfg.k && (delta > 0.0 || cfg.watch_low) {
                Some(Anomaly {
                    value: x,
                    mean: self.mean,
                    spread,
                    score,
                    high: delta > 0.0,
                })
            } else {
                None
            }
        } else {
            None
        };
        if self.n == 0 {
            self.mean = x;
        } else {
            let delta = x - self.mean;
            self.mean += cfg.alpha * delta;
            self.dev = (1.0 - cfg.alpha) * self.dev + cfg.alpha * delta.abs();
        }
        self.n += 1;
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_never_flags() {
        let cfg = AnomalyConfig::default();
        let mut d = EwmaMad::default();
        for x in [0.0, 1000.0, 0.0, 1000.0, 0.0] {
            assert_eq!(d.observe(&cfg, x), None, "warmup must stay silent");
        }
    }

    #[test]
    fn step_change_is_flagged_once_then_rebaselined() {
        let cfg = AnomalyConfig::default();
        let mut d = EwmaMad::default();
        for i in 0..50u64 {
            // Steady series with mild texture.
            let x = 100.0 + (i % 3) as f64;
            assert!(d.observe(&cfg, x).is_none(), "steady state flagged at {i}");
        }
        // 10× step: flags immediately, scored against the old baseline.
        let a = d.observe(&cfg, 1000.0).expect("step must flag");
        assert!(a.high && a.score > cfg.k);
        assert!((a.mean - 101.0).abs() < 2.0);
        // The shifted level stops flagging once absorbed.
        let mut flags = 0;
        for _ in 0..20 {
            flags += d.observe(&cfg, 1000.0).is_some() as u32;
        }
        assert!(flags <= 3, "rebaselining too slow: {flags} repeat flags");
        assert!(d.observe(&cfg, 1000.0).is_none());
    }

    #[test]
    fn downward_moves_are_gated_by_default() {
        // k below the floor-limited drop score (a drop to zero on a
        // constant series scores exactly 1/rel_floor), so direction
        // gating is the only thing standing between the drop and a
        // flag.
        let cfg = AnomalyConfig {
            k: 3.0,
            ..AnomalyConfig::default()
        };
        let mut d = EwmaMad::default();
        for _ in 0..20 {
            d.observe(&cfg, 500.0);
        }
        assert!(d.observe(&cfg, 0.0).is_none(), "up-only by default");
        let low = AnomalyConfig {
            watch_low: true,
            ..cfg
        };
        let mut d = EwmaMad::default();
        for _ in 0..20 {
            d.observe(&low, 500.0);
        }
        let a = d.observe(&low, 0.0).expect("watch_low flags drops");
        assert!(!a.high);
    }

    #[test]
    fn constant_series_needs_a_real_excursion() {
        // Spread collapses to 0 on a constant series; the floors must
        // keep small wiggles unflagged while real excursions still fire.
        let cfg = AnomalyConfig::default();
        let mut d = EwmaMad::default();
        for _ in 0..30 {
            d.observe(&cfg, 8.0);
        }
        assert!(d.observe(&cfg, 11.0).is_none(), "within floor × k");
        let mut d2 = d;
        assert!(d2.observe(&cfg, 100.0).is_some(), "real excursion fires");
    }
}
