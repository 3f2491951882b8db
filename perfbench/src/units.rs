//! Same-run unit costs of the layers below the communicator (ROADMAP
//! ladder L0–L3): each is timed here, in the process that runs the
//! workload, so host drift between records cancels when they are combined
//! with the workload's counters in `explain`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpsim::mailbox::Envelope;
use mpsim::{BufferPool, LaneMailbox, Payload, SharedBuf, Tag, TimerWheel};

/// Per-operation costs in nanoseconds (memcpy as a bandwidth).
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// L0: `copy_from_slice` bandwidth at the workload's chunk size.
    pub memcpy_gib_s: f64,
    /// L1: `BufferPool::rent` + drop of a chunk-sized buffer.
    pub rent_ns: f64,
    /// L1: `SharedBuf` clone + slice + drop of both views.
    pub share_ns: f64,
    /// L2: `LaneMailbox::push` + `pop` through an inline tag bucket.
    pub push_pop_ns: f64,
    /// L2: the same pair through the wild-tag spill map.
    pub spill_push_pop_ns: f64,
    /// L3: `TimerWheel::arm` + `cancel`.
    pub arm_cancel_ns: f64,
    /// L3: `TimerWheel::arm` + `pop_next` (a timer that fires).
    pub arm_pop_ns: f64,
}

/// Per-iteration cost of `body`: the fastest of a few batches of `iters`,
/// since noise from the rest of the host only ever adds time.
fn per_iter_ns(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 4 {
        body(i); // warm caches and freelists
    }
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                body(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// L0 roofline (fastest sweep): copy `chunk`-sized pieces of an `src_len`-byte source
/// across a destination of `working_set` bytes, the shape of the landing
/// copies (a hot staged envelope into every rank's receive buffer).
pub fn memcpy_gib_s(chunk: usize, working_set: usize, src_len: usize) -> f64 {
    let chunk = chunk.max(1);
    let src: Vec<u8> = (0..src_len.max(chunk)).map(|i| ((i * 131) >> 3) as u8).collect();
    let pieces = working_set.div_ceil(chunk).max(1);
    let mut dst = vec![1u8; pieces * chunk];
    let src_pieces = src.len() / chunk;
    let sweep = |dst: &mut [u8]| {
        let t0 = Instant::now();
        for (k, piece) in dst.chunks_exact_mut(chunk).enumerate() {
            let s = (k % src_pieces) * chunk;
            piece.copy_from_slice(&src[s..s + chunk]);
        }
        black_box(&mut *dst);
        t0.elapsed()
    };
    sweep(&mut dst); // first touch
    let mut best = 0.0f64;
    let started = Instant::now();
    for done in 0.. {
        if done >= 5 && (done >= 30 || started.elapsed() >= Duration::from_millis(300)) {
            break;
        }
        let d = sweep(&mut dst);
        best = best.max(dst.len() as f64 / d.as_secs_f64() / (1u64 << 30) as f64);
    }
    best
}

/// Measure every unit cost for a workload with the given chunk size and
/// receive working set.
pub fn measure(chunk: usize, working_set: usize, src_len: usize, world: usize) -> UnitCosts {
    let memcpy_gib_s = memcpy_gib_s(chunk, working_set, src_len);

    let pool = BufferPool::new();
    let rent_ns = per_iter_ns(200_000, |_| {
        let b = pool.rent(chunk);
        black_box(&b);
    });
    let base = SharedBuf::from(pool.rent(chunk.max(2)));
    let share_ns = per_iter_ns(200_000, |_| {
        let c = base.clone();
        let s = c.slice(0..c.len() / 2);
        black_box((&c, &s));
    });

    // Inline buckets: rotate over 64 source lanes on one tag, as a ring
    // neighbourhood does.
    let mut mb = LaneMailbox::new(world);
    let mut env = Some(Envelope { src: 0, data: Payload::from(base.clone()) });
    let lanes = world.min(64);
    let push_pop_ns = per_iter_ns(400_000, |i| {
        let src = i as usize % lanes;
        let mut e = env.take().unwrap();
        e.src = src;
        mb.push(src, Tag(1), e);
        env = mb.pop(src, Tag(1));
    });
    // Spill map: a lane whose four inline buckets are taken by parked
    // envelopes, fed wild tags (the agreement's digest-shifted pages).
    let mut mb = LaneMailbox::new(world);
    for t in 0..4 {
        mb.push(0, Tag(t), Envelope { src: 0, data: Payload::from(base.clone()) });
    }
    let spill_push_pop_ns = per_iter_ns(400_000, |i| {
        let tag = Tag(0xA100 + (i % 16) as u32);
        mb.push(0, tag, env.take().unwrap());
        env = mb.pop(0, tag);
    });
    assert!(mb.spills() > 0, "spill calibration never reached the spill map");

    let mut wheel = TimerWheel::new();
    const STEP_NS: u64 = 40_000_000;
    let arm_cancel_ns = per_iter_ns(400_000, |i| {
        let h = wheel.arm(0, STEP_NS, i as usize & 1023);
        wheel.cancel(h);
    });
    let mut now = 0u64;
    let arm_pop_ns = per_iter_ns(400_000, |i| {
        wheel.arm(now, now + STEP_NS, i as usize & 1023);
        let (deadline, _) = wheel.pop_next(now).unwrap();
        now = deadline;
    });

    UnitCosts {
        memcpy_gib_s,
        rent_ns,
        share_ns,
        push_pop_ns,
        spill_push_pop_ns,
        arm_cancel_ns,
        arm_pop_ns,
    }
}
