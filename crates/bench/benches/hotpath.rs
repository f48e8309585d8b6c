//! Microbenchmarks of the engine's hot path: the two batched
//! primitives this crate's `batch` binary measures end to end (the
//! branchless fixed-layout header pack/unpack of `nmad_core::wire` and
//! the submission ring's slot traffic of `nmad_core::ring`), and the
//! idle progression pump (`hotpath/idle_progress/{sim,mem}`): a
//! `try_progress` that finds nothing to do, the engine's most frequent
//! operation. Over sim drivers a quiet engine answers it from the
//! readiness slots; mem drivers give no hint, so that row times full
//! pumps. The idle rows time [`IDLE_PUMPS`] pumps per iteration,
//! so their ns/iter over 1000 is the cost of one pump. The perf-gate
//! CI job runs these with `--quick` and archives the text report next
//! to the `BENCH_*.json` deltas; the rows are context, not a gate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nmad_core::ring::{Batch, SubmitRing};
use nmad_core::segment::{SeqNo, Tag};
use nmad_core::wire::{
    pack_entry_header, pack_frame_header, unpack_entry_header, unpack_frame_header, EntryHeader,
};
use nmad_core::{EngineCosts, NmadEngine, ShardPolicy, StratAggreg, StratLanes};
use nmad_net::mem::mem_fabric;
use nmad_net::sim::SimDriver;
use nmad_net::{Driver, NullMeter, SimCpuMeter};
use nmad_sim::{host, nic, shared_world, NodeId, SimConfig};

fn sample_header(i: u32) -> EntryHeader {
    EntryHeader {
        kind: 1,
        flags: 0,
        lane: (i % 4) as u8,
        tag: Tag(i),
        seq: SeqNo(i.wrapping_mul(7)),
        len: 64 + i,
        offset: 0,
    }
}

fn bench_header_pack(c: &mut Criterion) {
    c.bench_function("hotpath/pack_entry_header", |b| {
        let h = sample_header(42);
        b.iter(|| black_box(pack_entry_header(black_box(h))))
    });
    c.bench_function("hotpath/unpack_entry_header", |b| {
        let img = pack_entry_header(sample_header(42));
        b.iter(|| black_box(unpack_entry_header(black_box(&img))))
    });
    c.bench_function("hotpath/pack_frame_header", |b| {
        b.iter(|| black_box(pack_frame_header(black_box(16))))
    });
    c.bench_function("hotpath/unpack_frame_header", |b| {
        let img = pack_frame_header(16);
        b.iter(|| unpack_frame_header(black_box(&img)).expect("valid"))
    });
}

/// One producer-side push + consumer-side pop per iteration, the
/// single-submission ring cost the batched path amortizes.
fn bench_ring_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/ring");
    group.throughput(Throughput::Elements(1));
    group.bench_function("push_pop_single", |b| {
        let ring: SubmitRing<u64> = SubmitRing::new(1024);
        b.iter(|| {
            ring.push_quiet(black_box(7));
            black_box(ring.pop())
        })
    });
    // A full 8-op slot per push: the batched slot format. Per element
    // this should beat push_pop_single by the slot amortization the
    // `batch` binary demonstrates end to end.
    group.bench_function("push_pop_slot8", |b| {
        let ring: SubmitRing<Batch<u64, 8>> = SubmitRing::new(1024);
        b.iter(|| {
            let mut slot = Batch::new();
            for i in 0..8u64 {
                slot.push(black_box(i)).expect("capacity 8");
            }
            ring.push_quiet(slot);
            let got = ring.pop().expect("just pushed");
            let mut sum = 0u64;
            for v in got {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_batch_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/batch");
    for n in [1usize, 8] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fill_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut batch: Batch<u64, 8> = Batch::new();
                for i in 0..n as u64 {
                    batch.push(black_box(i)).expect("fits");
                }
                let mut sum = 0u64;
                for v in batch {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

/// Pumps per timed iteration of the idle-progress rows: one pump costs
/// tens of nanoseconds, too little to time alone.
const IDLE_PUMPS: u64 = 1000;

/// Idle `try_progress` with nothing submitted. `sim` pumps, in turn,
/// the four shards of a 4-rail simulated MX engine as `tail-sim` builds
/// it (one rail per shard); `mem` pumps one engine over the in-process
/// driver.
fn bench_idle_progress(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/idle_progress");
    group.throughput(Throughput::Elements(IDLE_PUMPS));
    group.bench_function("sim", |b| {
        const SHARDS: usize = 4;
        let world = shared_world(SimConfig::two_nodes_multirail(vec![
            nic::mx_myri10g();
            SHARDS
        ]));
        let drivers = SimDriver::all_rails(&world, NodeId(0))
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn Driver>)
            .collect();
        let engine = NmadEngine::new(
            drivers,
            Box::new(SimCpuMeter::new(world.clone(), NodeId(0))),
            Box::new(StratLanes::new()),
            EngineCosts::from_software(&host::costs_madmpi()),
        );
        let mut shards = engine.split_for_shards(SHARDS, ShardPolicy::HashByDest);
        b.iter(|| {
            let mut moved = false;
            for k in 0..IDLE_PUMPS as usize {
                moved |= shards[k % SHARDS].try_progress().expect("sim cannot fail");
            }
            black_box(moved)
        })
    });
    group.bench_function("mem", |b| {
        let mut fabric = mem_fabric(2);
        let _peer = fabric.pop().expect("two endpoints");
        let driver = fabric.pop().expect("two endpoints");
        let mut engine = NmadEngine::new(
            vec![Box::new(driver)],
            Box::new(NullMeter),
            Box::new(StratAggreg),
            EngineCosts::zero(),
        );
        b.iter(|| {
            let mut moved = false;
            for _ in 0..IDLE_PUMPS {
                moved |= engine.try_progress().expect("mem peer is alive");
            }
            black_box(moved)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_header_pack,
    bench_ring_push_pop,
    bench_batch_fill,
    bench_idle_progress
);
criterion_main!(benches);
