//! Exhaustive model-checking of the engine's lock-free protocols.
//!
//! Compiled only under `--features nmad-model` (mapped to
//! `cfg(nmad_model)` by build.rs): the `crate::sync` facade then routes
//! every atomic, fence, mutex and condvar on the hot path into the
//! nmad-verify runtime, and each `Checker::check` call below runs its
//! closure under *every* thread interleaving (up to the preemption
//! bound) and every weak-memory-allowed load result. A property that
//! holds here holds for all schedules the bound reaches — not just the
//! ones a stress test happened to hit.
//!
//! Each protocol suite is paired with a *mutant*: a copy of the
//! protocol with a deliberately weakened memory ordering that the
//! checker must catch. The mutants keep the checker honest — a
//! verification pass that cannot fail is not evidence.

#![cfg(nmad_model)]

use nmad_core::ring::{Batch, SubmitRing};
use nmad_core::sync::{fence, spin_loop, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use nmad_core::Seqlock;
use nmad_verify::{thread, Checker};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Submission ring: FIFO, no loss, no double-pop, wakeup protocol.
// ---------------------------------------------------------------------

/// One producer, one consumer: values come out in push order, none are
/// lost, none are duplicated — across every schedule.
#[test]
fn model_ring_spsc_fifo_no_loss() {
    let stats = Checker::new()
        .max_schedules(15_000)
        .check(|| {
            let ring = Arc::new(SubmitRing::new(2));
            let r = Arc::clone(&ring);
            let producer = thread::spawn(move || {
                r.push(1u64);
                r.push(2u64);
            });
            let mut got = Vec::new();
            while got.len() < 2 {
                match ring.pop() {
                    Some(v) => got.push(v),
                    None => spin_loop(),
                }
            }
            producer.join();
            assert_eq!(got, [1, 2], "ring broke FIFO or duplicated a value");
            assert!(ring.pop().is_none(), "ring invented a value");
        })
        .expect("SPSC ring protocol must hold in every schedule");
    assert!(
        stats.schedules >= 100,
        "ring model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.truncated, 0,
        "ring model hit the step bound: {stats:?}"
    );
}

/// Two producers race into the ring, the consumer drains: every value
/// arrives exactly once (MPMC slot claiming never loses or doubles).
#[test]
fn model_ring_mpmc_no_loss_no_double_pop() {
    let stats = Checker::new()
        .max_schedules(15_000)
        .check(|| {
            let ring = Arc::new(SubmitRing::new(2));
            let (r1, r2) = (Arc::clone(&ring), Arc::clone(&ring));
            let p1 = thread::spawn(move || r1.push(1u64));
            let p2 = thread::spawn(move || r2.push(2u64));
            let mut got = Vec::new();
            while got.len() < 2 {
                match ring.pop() {
                    Some(v) => got.push(v),
                    None => spin_loop(),
                }
            }
            p1.join();
            p2.join();
            got.sort_unstable();
            assert_eq!(got, [1, 2], "a value was lost or popped twice");
        })
        .expect("MPMC ring protocol must hold in every schedule");
    assert!(
        stats.schedules >= 100,
        "MPMC model underexplored: {stats:?}"
    );
}

/// The Dekker-style wakeup protocol (`SeqCst` flag + fences on both
/// sides) never strands the consumer: in no schedule does the park
/// have to be rescued by its timeout.
#[test]
fn model_ring_wakeup_never_needs_the_timeout() {
    let stats = Checker::new()
        .max_schedules(15_000)
        .check(|| {
            let ring = Arc::new(SubmitRing::new(2));
            let r = Arc::clone(&ring);
            let consumer = thread::spawn(move || loop {
                if let Some(v) = r.pop() {
                    return v;
                }
                r.wait_nonempty(Duration::from_millis(1));
            });
            ring.push(7u64);
            assert_eq!(consumer.join(), 7);
        })
        .expect("wakeup protocol must hold in every schedule");
    assert_eq!(
        stats.timeouts_fired, 0,
        "a schedule exists where the wakeup is lost and only the \
         park timeout rescues the consumer: {stats:?}"
    );
}

/// The batched slot protocol: a producer stages two slots with
/// `push_quiet` and rings the doorbell **once**, after the last push.
/// In every schedule the parked consumer is woken without its timeout
/// firing, and the flattened slots preserve FIFO across the whole run —
/// the exact invariant `SubmitBatch::flush` relies on.
#[test]
fn model_ring_batched_slots_flatten_fifo() {
    let stats = Checker::new()
        .max_schedules(15_000)
        .check(|| {
            let ring: Arc<SubmitRing<Batch<u64, 2>>> = Arc::new(SubmitRing::new(2));
            let r = Arc::clone(&ring);
            let consumer = thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 4 {
                    match r.pop() {
                        Some(slot) => got.extend(slot),
                        None => {
                            r.wait_nonempty(Duration::from_millis(1));
                        }
                    }
                }
                got
            });
            let mut s1 = Batch::<u64, 2>::new();
            s1.push(1).unwrap();
            s1.push(2).unwrap();
            let mut s2 = Batch::<u64, 2>::new();
            s2.push(3).unwrap();
            s2.push(4).unwrap();
            ring.push_quiet(s1);
            ring.push_quiet(s2);
            ring.doorbell();
            assert_eq!(
                consumer.join(),
                [1, 2, 3, 4],
                "flattened slots broke FIFO or lost an op"
            );
        })
        .expect("batched slot protocol must hold in every schedule");
    assert!(
        stats.schedules >= 100,
        "batched ring model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.timeouts_fired, 0,
        "a schedule exists where the single flush doorbell is lost and \
         only the park timeout rescues the consumer: {stats:?}"
    );
}

/// Mutant: the doorbell rung *before* the quiet pushes (the ordering
/// `SubmitBatch::flush` must never produce). The consumer can then
/// check emptiness after the doorbell but before the pushes and park
/// with the batch already committed — the checker must find a schedule
/// where only the timeout rescues it.
#[test]
fn model_ring_doorbell_before_push_mutant_is_caught() {
    let stats = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let ring: Arc<SubmitRing<Batch<u64, 2>>> = Arc::new(SubmitRing::new(2));
            let r = Arc::clone(&ring);
            let consumer = thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 2 {
                    match r.pop() {
                        Some(slot) => got.extend(slot),
                        None => {
                            r.wait_nonempty(Duration::from_millis(1));
                        }
                    }
                }
                got
            });
            let mut slot = Batch::<u64, 2>::new();
            slot.push(1).unwrap();
            slot.push(2).unwrap();
            ring.doorbell(); // mutant: doorbell precedes the push
            ring.push_quiet(slot);
            assert_eq!(consumer.join(), [1, 2]);
        })
        .expect("the park timeout keeps even the mutant live");
    assert!(
        stats.timeouts_fired > 0,
        "the doorbell-before-push mutant must exhibit a stranded park \
         (rescued only by the timeout) in some schedule: {stats:?}"
    );
}

/// Mutant: the same wakeup protocol with the `SeqCst` fences stripped
/// and the flag demoted to `Relaxed`. The lost-wakeup window opens and
/// the checker finds it — visible as parks that only the last-resort
/// timeout rescues.
#[test]
fn model_ring_wakeup_fence_mutant_is_caught() {
    struct WeakMailbox {
        data: AtomicU64,
        sleeping: AtomicU64,
        lock: Mutex<()>,
        cv: Condvar,
    }
    let stats = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let mb = Arc::new(WeakMailbox {
                data: AtomicU64::new(0),
                sleeping: AtomicU64::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            });
            let m = Arc::clone(&mb);
            let consumer = thread::spawn(move || loop {
                if m.data.load(Ordering::Relaxed) != 0 {
                    return m.data.load(Ordering::Relaxed);
                }
                let guard = m.lock.lock();
                m.sleeping.store(1, Ordering::Relaxed);
                // mutant: no SeqCst fence before the recheck
                if m.data.load(Ordering::Relaxed) == 0 {
                    let (g, _) = m.cv.wait_timeout(guard, Duration::from_millis(1));
                    drop(g);
                } else {
                    drop(guard);
                }
                m.sleeping.store(0, Ordering::Relaxed);
            });
            mb.data.store(7, Ordering::Relaxed);
            // mutant: no SeqCst fence before the sleeping check
            if mb.sleeping.load(Ordering::Relaxed) != 0 {
                let _guard = mb.lock.lock();
                mb.cv.notify_one();
            }
            assert_eq!(consumer.join(), 7);
        })
        .expect("the park timeout keeps even the mutant live");
    assert!(
        stats.timeouts_fired > 0,
        "the fence-stripped mutant must exhibit a lost wakeup \
         (rescued only by the timeout) in some schedule: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Seqlock: reads are never torn; the weakened mutant is.
// ---------------------------------------------------------------------

/// Every read returns a pair some publish actually wrote — never a mix
/// of two publishes — in every schedule and for every weak-memory load
/// result.
#[test]
fn model_seqlock_reads_never_tear() {
    let stats = Checker::new()
        .max_schedules(15_000)
        .check(|| {
            let lock = Arc::new(Seqlock::<2>::new());
            let l = Arc::clone(&lock);
            let writer = thread::spawn(move || {
                l.publish(&[7, 7]);
                l.publish(&[9, 9]);
            });
            let words = lock.read();
            assert_eq!(
                words[0], words[1],
                "torn seqlock read: {words:?} mixes two publishes"
            );
            assert!(matches!(words[0], 0 | 7 | 9), "value from nowhere");
            writer.join();
        })
        .expect("seqlock reads must be tear-free in every schedule");
    assert!(
        stats.schedules >= 100,
        "seqlock model underexplored: {stats:?}"
    );
}

/// Mutant: a seqlock whose publish skips the `Release` fence/store and
/// whose read skips the `Acquire` edges — all `Relaxed`. The sequence
/// check can then validate a torn pair, and the checker must find the
/// schedule (and load result) where it does.
#[test]
fn model_seqlock_relaxed_mutant_is_torn() {
    struct WeakSeqlock {
        seq: AtomicU64,
        vals: [AtomicU64; 2],
    }
    impl WeakSeqlock {
        fn publish(&self, words: &[u64; 2]) {
            let s = self.seq.load(Ordering::Relaxed);
            self.seq.store(s + 1, Ordering::Relaxed);
            // mutant: no Release fence
            for (cell, w) in self.vals.iter().zip(words) {
                cell.store(*w, Ordering::Relaxed);
            }
            self.seq.store(s + 2, Ordering::Relaxed); // mutant: not Release
        }
        fn read(&self) -> Option<[u64; 2]> {
            let s1 = self.seq.load(Ordering::Relaxed); // mutant: not Acquire
            if s1 % 2 == 1 {
                return None;
            }
            let words = [
                self.vals[0].load(Ordering::Relaxed),
                self.vals[1].load(Ordering::Relaxed),
            ];
            // mutant: no Acquire fence
            if self.seq.load(Ordering::Relaxed) == s1 {
                Some(words)
            } else {
                None
            }
        }
    }
    let failure = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let lock = Arc::new(WeakSeqlock {
                seq: AtomicU64::new(0),
                vals: [AtomicU64::new(0), AtomicU64::new(0)],
            });
            let l = Arc::clone(&lock);
            let writer = thread::spawn(move || l.publish(&[7, 7]));
            if let Some(words) = lock.read() {
                assert_eq!(words[0], words[1], "torn read validated: {words:?}");
            }
            writer.join();
        })
        .expect_err("the relaxed seqlock mutant must be caught");
    assert!(
        failure.message.contains("torn read validated"),
        "wrong failure: {failure}"
    );
}

// ---------------------------------------------------------------------
// Request-id watermark: unique, monotone allocation.
// ---------------------------------------------------------------------

/// The application-side id allocator (`fetch_add` on one shared
/// watermark, as in `ThreadedHandle::alloc`) hands out distinct,
/// dense ids no matter how threads race.
#[test]
fn model_id_watermark_allocates_unique_ids() {
    let stats = Checker::new()
        .check(|| {
            let next = Arc::new(AtomicUsize::new(0));
            let (n1, n2) = (Arc::clone(&next), Arc::clone(&next));
            let t1 = thread::spawn(move || n1.fetch_add(1, Ordering::Relaxed));
            let t2 = thread::spawn(move || n2.fetch_add(1, Ordering::Relaxed));
            let c = next.fetch_add(1, Ordering::Relaxed);
            let (a, b) = (t1.join(), t2.join());
            let mut ids = [a, b, c];
            ids.sort_unstable();
            assert_eq!(ids, [0, 1, 2], "ids must be unique and dense: {ids:?}");
            assert_eq!(
                next.load(Ordering::Relaxed),
                3,
                "watermark must be monotone"
            );
        })
        .expect("atomic id allocation must be unique in every schedule");
    // Three commuting fetch_adds dedup down to a small state space —
    // the floor only guards against the model not exploring at all.
    assert!(stats.schedules >= 10, "id model underexplored: {stats:?}");
}

/// Mutant: the allocator decomposed into a racy load-then-store. The
/// checker must find the schedule where two threads read the same
/// watermark and hand out a duplicate id.
#[test]
fn model_id_watermark_load_store_mutant_is_caught() {
    let failure = Checker::new()
        .check(|| {
            let next = Arc::new(AtomicUsize::new(0));
            let alloc = |n: &AtomicUsize| {
                let id = n.load(Ordering::Relaxed);
                n.store(id + 1, Ordering::Relaxed); // mutant: not a fetch_add
                id
            };
            let n1 = Arc::clone(&next);
            let t = thread::spawn(move || alloc(&n1));
            let a = alloc(&next);
            let b = t.join();
            assert_ne!(a, b, "duplicate request id handed out");
        })
        .expect_err("the load/store id mutant must be caught");
    assert!(
        failure.message.contains("duplicate request id"),
        "wrong failure: {failure}"
    );
}

// ---------------------------------------------------------------------
// Exploration volume.
// ---------------------------------------------------------------------

/// The suites above individually assert correctness; this one pins the
/// *amount* of state space they cover. Re-runs the three protocol
/// models and requires ≥ 10 000 distinct schedules in total, so a
/// future change that silently guts the exploration (say, an
/// over-eager dedup) fails loudly.
#[test]
fn model_exploration_covers_ten_thousand_schedules() {
    let ring = Checker::new()
        .max_schedules(8_000)
        .check(|| {
            let ring = Arc::new(SubmitRing::new(2));
            let (r1, r2) = (Arc::clone(&ring), Arc::clone(&ring));
            let p1 = thread::spawn(move || r1.push(1u64));
            let p2 = thread::spawn(move || r2.push(2u64));
            let mut got = 0;
            while got < 2 {
                match ring.pop() {
                    Some(_) => got += 1,
                    None => spin_loop(),
                }
            }
            p1.join();
            p2.join();
        })
        .expect("ring model is correct");
    let seqlock = Checker::new()
        .max_schedules(8_000)
        .check(|| {
            let lock = Arc::new(Seqlock::<2>::new());
            let (l1, l2) = (Arc::clone(&lock), Arc::clone(&lock));
            let writer = thread::spawn(move || {
                l1.publish(&[7, 7]);
                l1.publish(&[9, 9]);
            });
            let reader = thread::spawn(move || {
                let w = l2.read();
                assert_eq!(w[0], w[1]);
            });
            let w = lock.read();
            assert_eq!(w[0], w[1]);
            writer.join();
            reader.join();
        })
        .expect("seqlock model is correct");
    let fence_dekker = Checker::new()
        .check(|| {
            // Store-buffering core of the ring's wakeup handshake.
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x1.store(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                y1.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let saw_x = x.load(Ordering::Relaxed);
            let saw_y = t.join();
            assert!(
                saw_x == 1 || saw_y == 1,
                "both sides of the Dekker handshake went blind"
            );
        })
        .expect("fenced store-buffering is correct");
    let total = ring.schedules + seqlock.schedules + fence_dekker.schedules;
    assert!(
        total >= 10_000,
        "exploration volume regressed below 10k schedules: \
         ring={} seqlock={} dekker={}",
        ring.schedules,
        seqlock.schedules,
        fence_dekker.schedules
    );
}
