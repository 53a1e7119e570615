//! Microbenchmarks for the simulator's building blocks: NoC routing and
//! contention, Bloom signatures, the event queue, the FxHash tables, and
//! transactional data-structure operations (via a 1-core simulation).

use criterion::{criterion_group, criterion_main, Criterion};
use noc::Mesh;
use sim_core::event::EventQueue;
use sim_core::fxhash::{hash_u64, FxHashMap};
use sim_core::rng::SimRng;
use sim_core::types::LineAddr;

fn bench_noc(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.bench_function("send_4x8_cross", |b| {
        let mut mesh = Mesh::new(4, 8, 1);
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            mesh.send(t, 0, 31, 5)
        });
    });
    g.bench_function("send_local", |b| {
        let mut mesh = Mesh::new(4, 8, 1);
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            mesh.send(t, 5, 5, 1)
        });
    });
    g.bench_function("route_hops", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for a in 0..32 {
                for bb in 0..32 {
                    acc += noc::route_hops(a, bb, 4);
                }
            }
            acc
        });
    });
    g.finish();
}

fn bench_signature(c: &mut Criterion) {
    let mut g = c.benchmark_group("signature");
    g.bench_function("add", |b| {
        let mut s = coherence::Signature::new(1024, 3);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            s.add(LineAddr(i));
            if i.is_multiple_of(4096) {
                s.clear();
            }
        });
    });
    g.bench_function("test_miss", |b| {
        let mut s = coherence::Signature::new(1024, 3);
        for i in 0..64 {
            s.add(LineAddr(i));
        }
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            s.test(LineAddr(i))
        });
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(7);
            for _ in 0..1000 {
                q.schedule_at(rng.below(10_000), ());
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        });
    });
    // The engine's hot pattern: each response fires its core's `Recv`
    // in the same cycle, which issues the next response a few cycles
    // out, so the front keeps filling with same-cycle bursts.
    g.bench_function("respond_recv_burst_8c_2k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for core in 0..8 {
                q.schedule_at(0, BurstEv::Respond(core));
            }
            let mut n = 0u32;
            while let Some((at, ev)) = q.pop() {
                n += 1;
                match ev {
                    BurstEv::Respond(core) => q.schedule_at(at, BurstEv::Recv(core)),
                    BurstEv::Recv(core) if n < 2048 => {
                        q.schedule_at(at + 1 + core % 3, BurstEv::Respond(core));
                    }
                    BurstEv::Recv(_) => {}
                }
            }
            n
        });
    });
    g.finish();
}

/// Event payload of the Respond->Recv burst bench (core id inside).
#[derive(Clone, Copy)]
enum BurstEv {
    Respond(u64),
    Recv(u64),
}

fn bench_fxhash(c: &mut Criterion) {
    let mut g = c.benchmark_group("fxhash");
    g.bench_function("hash_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            hash_u64(i)
        });
    });
    g.bench_function("map_insert_lookup_1k", |b| {
        b.iter(|| {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000u64 {
                m.insert(i * 7, i);
            }
            (0..1000u64)
                .map(|i| m.get(&(i * 7)).copied().unwrap_or(0))
                .sum::<u64>()
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("next_u64", |b| {
        let mut r = SimRng::new(42);
        b.iter(|| r.next_u64());
    });
    g.bench_function("below", |b| {
        let mut r = SimRng::new(42);
        b.iter(|| r.below(1000));
    });
    g.finish();
}

criterion_group!(
    components,
    bench_noc,
    bench_signature,
    bench_event_queue,
    bench_fxhash,
    bench_rng
);
criterion_main!(components);
