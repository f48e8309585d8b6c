//! Deterministic, seeded fault injection for the simulated transports.
//!
//! The paper's transfer layer assumes NICs that are merely *busy or
//! idle* (§3.3); a production engine must also survive NICs that are
//! dead, flapping, or corrupting frames. This module provides the
//! vocabulary: a [`FaultPlan`] describes *what goes wrong and when*
//! (link down/up windows, NIC death, per-frame corruption, latency
//! spikes), and a [`FaultInjector`] executes the plan frame by frame,
//! fully deterministically, from a single seed.
//!
//! Any driver can accept a plan through
//! [`Driver::install_faults`](crate::Driver::install_faults); the
//! simulated drivers (`sim`, `mem`, and the `lossy`/`reliable`/
//! `selective` decorators) all do. A chaos run is then reproducible
//! bit-for-bit by re-running with the printed seed.

/// Deterministic xorshift64* generator shared by every fault source.
///
/// Small, fast, and — crucially — *portable*: the same seed produces
/// the same stream on every platform, which is what makes a chaos
/// failure replayable from its printed seed.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A generator seeded with `seed` (zero is mapped to one; xorshift
    /// has a fixed point at zero).
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`; `lo` when the range is empty.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }
}

/// FNV-1a 32-bit checksum over the concatenation of `parts`.
///
/// The reliability decorators stamp this into their frame headers so
/// corruption — injected by a [`FaultPlan`] or real — is detected and
/// the frame discarded instead of delivered; retransmission then
/// recovers it.
pub fn checksum32(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for part in parts {
        for &b in *part {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// One scheduled fault on a rail's timeline.
///
/// Times are in the driver's clock domain: nanoseconds of virtual time
/// for the simulator-backed drivers, a frame counter for the clockless
/// memory fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link drops every frame posted in `[from_ns, until_ns)`,
    /// then comes back (a flapping cable / rebooting switch).
    LinkDown {
        /// Window start (inclusive).
        from_ns: u64,
        /// Window end (exclusive).
        until_ns: u64,
    },
    /// The NIC dies permanently at `at_ns`: every later post fails
    /// with [`NetError::Closed`](crate::NetError::Closed).
    NicDeath {
        /// Instant of death.
        at_ns: u64,
    },
    /// Every frame posted in `[from_ns, until_ns)` is delivered
    /// `extra_ns` late (congestion / PFC storm).
    LatencySpike {
        /// Window start (inclusive).
        from_ns: u64,
        /// Window end (exclusive).
        until_ns: u64,
        /// Added one-way delay.
        extra_ns: u64,
    },
}

/// A deterministic, seeded schedule of faults for one rail.
///
/// Built either explicitly (`FaultPlan::new(seed).link_down(..)…`) or
/// randomly-but-reproducibly with [`FaultPlan::randomized`]. The seed
/// also drives the per-frame drop/corruption coin flips, so the whole
/// fault trace is a pure function of the plan.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the per-frame probabilistic faults.
    pub seed: u64,
    /// Scheduled (time-windowed) faults.
    pub events: Vec<FaultEvent>,
    /// Probability that any given posted frame is silently dropped.
    pub drop_probability: f64,
    /// Probability that any given posted frame has one bit flipped.
    pub corrupt_probability: f64,
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for the coin flips.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Adds a link-down window.
    pub fn link_down(mut self, from_ns: u64, until_ns: u64) -> Self {
        self.events.push(FaultEvent::LinkDown { from_ns, until_ns });
        self
    }

    /// Adds a permanent NIC death at `at_ns`.
    pub fn nic_death(mut self, at_ns: u64) -> Self {
        self.events.push(FaultEvent::NicDeath { at_ns });
        self
    }

    /// Adds a latency-spike window.
    pub fn latency_spike(mut self, from_ns: u64, until_ns: u64, extra_ns: u64) -> Self {
        self.events.push(FaultEvent::LatencySpike {
            from_ns,
            until_ns,
            extra_ns,
        });
        self
    }

    /// Sets the per-frame drop probability (`[0, 1)`).
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_probability = p;
        self
    }

    /// Sets the per-frame single-bit corruption probability (`[0, 1)`).
    pub fn with_corrupt_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "corrupt probability must be in [0,1)"
        );
        self.corrupt_probability = p;
        self
    }

    /// A randomized-but-reproducible plan over `[0, horizon_ns)`:
    /// a couple of link-down windows and latency spikes placed by the
    /// seed, plus mild probabilistic drop/corruption. Never includes
    /// NIC death — permanent faults are opted into explicitly so a
    /// harness controls how many rails can die.
    pub fn randomized(seed: u64, horizon_ns: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..rng.next_range(1, 3) {
            let from = rng.next_range(0, horizon_ns);
            let len = rng.next_range(horizon_ns / 50, horizon_ns / 10).max(1);
            plan = plan.link_down(from, from.saturating_add(len));
        }
        for _ in 0..rng.next_range(0, 3) {
            let from = rng.next_range(0, horizon_ns);
            let len = rng.next_range(horizon_ns / 20, horizon_ns / 5).max(1);
            let extra = rng.next_range(10_000, 500_000);
            plan = plan.latency_spike(from, from.saturating_add(len), extra);
        }
        plan.drop_probability = rng.next_unit() * 0.05;
        plan.corrupt_probability = rng.next_unit() * 0.02;
        plan
    }

    /// Whether the plan can swallow a post or kill the NIC: a drop
    /// probability above zero, a link-down window or a NIC death.
    /// Latency spikes and corruption deliver every frame they touch.
    pub(crate) fn can_lose_posts(&self) -> bool {
        self.drop_probability > 0.0
            || self.events.iter().any(|ev| {
                matches!(
                    ev,
                    FaultEvent::LinkDown { .. } | FaultEvent::NicDeath { .. }
                )
            })
    }

    /// One-line human description (printed by the chaos harness next
    /// to the seed, so a failing schedule is legible).
    pub fn describe(&self) -> String {
        format!(
            "seed={} events={} drop={:.4} corrupt={:.4}",
            self.seed,
            self.events.len(),
            self.drop_probability,
            self.corrupt_probability
        )
    }
}

/// What the injector decided for one posted frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver the (possibly corrupted) frame, `extra_delay_ns` late.
    Deliver {
        /// Additional one-way delay from active latency spikes.
        extra_delay_ns: u64,
    },
    /// Silently drop the frame (loss or link-down window).
    Drop,
    /// The NIC is dead: the post must fail with `Closed`.
    Dead,
}

/// Counters kept by a [`FaultInjector`] (and surfaced through
/// [`Driver::fault_stats`](crate::Driver::fault_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by the drop probability.
    pub random_drops: u64,
    /// Frames dropped inside a link-down window.
    pub link_down_drops: u64,
    /// Frames with an injected bit flip.
    pub corrupted: u64,
    /// Frames delivered late by a latency spike.
    pub delayed: u64,
    /// Posts refused because the NIC had died (first refusal counts
    /// the death itself).
    pub dead_posts: u64,
}

impl FaultStats {
    /// Total frames interfered with (any category).
    pub fn total(&self) -> u64 {
        self.random_drops + self.link_down_drops + self.corrupted + self.delayed + self.dead_posts
    }
}

/// Executes a [`FaultPlan`] frame by frame.
///
/// Drivers call [`FaultInjector::on_post`] with the current time and
/// the assembled frame just before handing it to the wire; the verdict
/// tells them to deliver (possibly late, possibly corrupted), drop, or
/// refuse the post because the NIC is dead.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
    stats: FaultStats,
    dead: bool,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DetRng::new(plan.seed);
        FaultInjector {
            plan,
            rng,
            stats: FaultStats::default(),
            dead: false,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan being executed.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Has a scheduled NIC death already fired?
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Judges one frame posted at `now_ns`. May flip a bit in `frame`
    /// in place (corruption). Deterministic: the same plan and the
    /// same sequence of calls produce the same verdicts.
    pub fn on_post(&mut self, now_ns: u64, frame: &mut [u8]) -> FaultVerdict {
        if !self.dead {
            for ev in &self.plan.events {
                if let FaultEvent::NicDeath { at_ns } = ev {
                    if now_ns >= *at_ns {
                        self.dead = true;
                        break;
                    }
                }
            }
        }
        if self.dead {
            self.stats.dead_posts += 1;
            return FaultVerdict::Dead;
        }
        for ev in &self.plan.events {
            if let FaultEvent::LinkDown { from_ns, until_ns } = ev {
                if now_ns >= *from_ns && now_ns < *until_ns {
                    self.stats.link_down_drops += 1;
                    return FaultVerdict::Drop;
                }
            }
        }
        // Coin flips are drawn unconditionally (drop first, then
        // corrupt) so the stream stays aligned whatever the outcomes.
        let drop_roll = self.rng.next_unit();
        let corrupt_roll = self.rng.next_unit();
        let bit_pick = self.rng.next_u64();
        if drop_roll < self.plan.drop_probability {
            self.stats.random_drops += 1;
            return FaultVerdict::Drop;
        }
        if corrupt_roll < self.plan.corrupt_probability && !frame.is_empty() {
            let bit = bit_pick as usize % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            self.stats.corrupted += 1;
        }
        let mut extra = 0u64;
        for ev in &self.plan.events {
            if let FaultEvent::LatencySpike {
                from_ns,
                until_ns,
                extra_ns,
            } = ev
            {
                if now_ns >= *from_ns && now_ns < *until_ns {
                    extra = extra.saturating_add(*extra_ns);
                }
            }
        }
        if extra > 0 {
            self.stats.delayed += 1;
        }
        FaultVerdict::Deliver {
            extra_delay_ns: extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_reproducible_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = DetRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = DetRng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            let u = r.next_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn link_down_window_drops_then_recovers() {
        let plan = FaultPlan::new(1).link_down(100, 200);
        let mut inj = FaultInjector::new(plan);
        let mut f = vec![0u8; 8];
        assert_eq!(
            inj.on_post(50, &mut f),
            FaultVerdict::Deliver { extra_delay_ns: 0 }
        );
        assert_eq!(inj.on_post(150, &mut f), FaultVerdict::Drop);
        assert_eq!(
            inj.on_post(250, &mut f),
            FaultVerdict::Deliver { extra_delay_ns: 0 }
        );
        assert_eq!(inj.stats().link_down_drops, 1);
    }

    #[test]
    fn nic_death_is_permanent() {
        let plan = FaultPlan::new(1).nic_death(1000);
        let mut inj = FaultInjector::new(plan);
        let mut f = vec![0u8; 8];
        assert!(matches!(
            inj.on_post(999, &mut f),
            FaultVerdict::Deliver { .. }
        ));
        assert_eq!(inj.on_post(1000, &mut f), FaultVerdict::Dead);
        // Still dead later, even if the clock were to rewind.
        assert_eq!(inj.on_post(500, &mut f), FaultVerdict::Dead);
        assert_eq!(inj.stats().dead_posts, 2);
    }

    #[test]
    fn latency_spike_adds_delay_inside_the_window() {
        let plan = FaultPlan::new(1).latency_spike(100, 200, 5_000);
        let mut inj = FaultInjector::new(plan);
        let mut f = vec![0u8; 8];
        assert_eq!(
            inj.on_post(150, &mut f),
            FaultVerdict::Deliver {
                extra_delay_ns: 5_000
            }
        );
        assert_eq!(
            inj.on_post(250, &mut f),
            FaultVerdict::Deliver { extra_delay_ns: 0 }
        );
        assert_eq!(inj.stats().delayed, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = FaultPlan::new(3).with_corrupt_probability(0.999);
        let mut inj = FaultInjector::new(plan);
        let clean = vec![0u8; 64];
        let mut frame = clean.clone();
        let v = inj.on_post(0, &mut frame);
        assert!(matches!(v, FaultVerdict::Deliver { .. }));
        let flipped: u32 = frame
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must flip");
        assert_eq!(inj.stats().corrupted, 1);
    }

    #[test]
    fn same_plan_same_call_sequence_same_verdicts() {
        let run = || {
            let mut inj = FaultInjector::new(
                FaultPlan::new(99)
                    .with_drop_probability(0.3)
                    .with_corrupt_probability(0.2),
            );
            let mut out = Vec::new();
            for i in 0..200u64 {
                let mut f = vec![i as u8; 16];
                out.push((inj.on_post(i * 10, &mut f), f));
            }
            (out, inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn randomized_plan_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::randomized(1234, 1_000_000);
        let b = FaultPlan::randomized(1234, 1_000_000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.drop_probability, b.drop_probability);
        assert_eq!(a.corrupt_probability, b.corrupt_probability);
        assert!(!a.events.is_empty());
        assert!(a
            .events
            .iter()
            .all(|e| !matches!(e, FaultEvent::NicDeath { .. })));
    }
}
