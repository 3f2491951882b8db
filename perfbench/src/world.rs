//! The closed-loop runs: one client, every op starts only after the
//! previous one completed on every rank, all on the single-threaded
//! `EventWorld` executor.
//!
//! * Broadcast workloads keep one world alive across ops: each rank holds
//!   its receive buffer for the world's lifetime, the root alternates two
//!   seeded payloads, and verification runs between the op's closing
//!   barrier and the next op's opening barrier — outside the timed
//!   interval. Op 0 of every world is the warm-up and is billed to set-up.
//! * Self-healing workloads need a fresh world per op (a crash plan kills
//!   ranks for the rest of the world), so each op is one world, timed from
//!   the first rank leaving the opening barrier to the last rank finishing.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use bcast_core::{
    bcast_auto_async, check_recovery_outcome, self_healing_rank_task, Algorithm, EpochComm,
    GuardedComm, RankRun, RecoveryConfig, RecoveryDrill, RecoverySpec, Thresholds,
};
use mpsim::{
    AsyncCommunicator, EventComm, EventWorld, PoolStats, ReactorStats, ReliableComm, Result,
    SubComm, WorldOutcome, WorldTraffic,
};
use netsim::{FaultPlan, FaultyComm};

use crate::timed::{poll_timed, Span, SpanTotals, Timed};

/// The only root every workload uses.
pub const ROOT: usize = 0;

/// Per-receive deadline of the self-healing workloads (virtual clock).
pub const STEP_TIMEOUT: Duration = Duration::from_millis(40);

/// Span sinks of a traced run: the rank task's op future, the
/// communicator the op was handed, and (self-healing only) the bare
/// `EventComm` beneath the fault decorator.
#[derive(Default)]
pub struct Sinks {
    pub task: Span,
    pub outer: Span,
    pub inner: Span,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct OpSpans {
    pub task: SpanTotals,
    pub outer: SpanTotals,
    pub inner: SpanTotals,
}

impl OpSpans {
    fn of(s: &Sinks) -> OpSpans {
        OpSpans { task: s.task.totals(), outer: s.outer.totals(), inner: s.inner.totals() }
    }

    fn minus(self, e: OpSpans) -> OpSpans {
        OpSpans {
            task: self.task.minus(e.task),
            outer: self.outer.minus(e.outer),
            inner: self.inner.minus(e.inner),
        }
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub wall_ns: f64,
    pub spans: OpSpans,
}

/// Everything the counters of a world say, in a form that compares
/// exactly between an untraced and a traced run of the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    per_rank: Vec<[u64; 7]>,
    peers: u64,
    pub pool: PoolStats,
    pub reactor: ReactorStats,
}

impl Fingerprint {
    fn of<R>(out: &WorldOutcome<R>) -> Fingerprint {
        let mut h = DefaultHasher::new();
        let per_rank = out
            .traffic
            .per_rank
            .iter()
            .map(|t| {
                for (peer, pt) in &t.by_peer {
                    (peer, pt.msgs_sent, pt.bytes_sent, pt.msgs_recvd, pt.bytes_recvd).hash(&mut h);
                }
                [
                    t.msgs_sent,
                    t.bytes_sent,
                    t.msgs_recvd,
                    t.bytes_recvd,
                    t.envelopes_sent,
                    t.envelopes_recvd,
                    t.bytes_copied,
                ]
            })
            .collect();
        Fingerprint { per_rank, peers: h.finish(), pool: out.pool, reactor: out.reactor }
    }
}

/// World-level counter totals, summed over the worlds of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Ops the totals cover (warm-ups included).
    pub ops: u64,
    pub msgs: u64,
    pub wire_bytes: u64,
    pub envelopes: u64,
    pub copied: u64,
    pub rents: u64,
    pub misses: u64,
    pub wakeups: u64,
    pub spurious_polls: u64,
    pub cancels: u64,
    pub spills: u64,
    /// Virtual-clock time summed over worlds.
    pub virtual_ns: u64,
    /// Deepest epoch count seen, summed over worlds.
    pub epochs: u64,
}

impl Counters {
    fn add<R>(&mut self, out: &WorldOutcome<R>, ops: u64, epochs: u64) {
        let t: &WorldTraffic = &out.traffic;
        self.ops += ops;
        self.msgs += t.total_msgs();
        self.wire_bytes += t.total_bytes();
        self.envelopes += t.total_envelopes();
        self.copied += t.total_bytes_copied();
        self.rents += out.pool.hits + out.pool.misses;
        self.misses += out.pool.misses;
        self.wakeups += out.reactor.wakeups;
        self.spurious_polls += out.reactor.spurious_polls;
        self.cancels += out.reactor.timer_cancels;
        self.spills += out.reactor.mailbox_spills;
        self.virtual_ns += out.elapsed.as_nanos() as u64;
        self.epochs += epochs;
    }

    /// Fold in the totals of more worlds.
    pub fn merge(&mut self, c: &Counters) {
        self.ops += c.ops;
        self.msgs += c.msgs;
        self.wire_bytes += c.wire_bytes;
        self.envelopes += c.envelopes;
        self.copied += c.copied;
        self.rents += c.rents;
        self.misses += c.misses;
        self.wakeups += c.wakeups;
        self.spurious_polls += c.spurious_polls;
        self.cancels += c.cancels;
        self.spills += c.spills;
        self.virtual_ns += c.virtual_ns;
        self.epochs += c.epochs;
    }

    /// Per-op average of a total.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// When a world stops starting new ops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many measured ops (deterministic: traced comparisons).
    Ops(usize),
    /// Once this much wall time has passed since the first measured op.
    Time(Duration),
}

/// The result of one world.
pub struct World {
    /// Set-up: world construction, staging and (broadcast) the warm-up op.
    pub setup: Duration,
    /// Measured ops (warm-up excluded).
    pub ops: Vec<OpSample>,
    pub counters: Counters,
    pub fingerprint: Fingerprint,
    /// Ops attempted in this world (warm-up included) and how many failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Harness-side state shared by every rank task of one world.
struct Ctl<'a> {
    stop: Stop,
    sinks: Option<&'a Sinks>,
    /// `(start, end)` per op: the first rank out of the opening barrier
    /// sets the start, every rank finishing overwrites the end.
    times: RefCell<Vec<(Instant, Instant)>>,
    /// Cumulative span totals at each op's closing barrier.
    snaps: RefCell<Vec<OpSpans>>,
    decided: Cell<Option<(usize, bool)>>,
    failed_ops: RefCell<Vec<(usize, String)>>,
}

impl<'a> Ctl<'a> {
    fn new(stop: Stop, sinks: Option<&'a Sinks>) -> Self {
        Ctl {
            stop,
            sinks,
            times: RefCell::new(Vec::new()),
            snaps: RefCell::new(Vec::new()),
            decided: Cell::new(None),
            failed_ops: RefCell::new(Vec::new()),
        }
    }

    fn start(&self, op: usize) {
        let mut times = self.times.borrow_mut();
        if times.len() == op {
            let now = Instant::now();
            times.push((now, now));
        }
    }

    fn end(&self, op: usize) {
        self.times.borrow_mut()[op].1 = Instant::now();
    }

    fn fail(&self, op: usize, why: String) {
        let mut f = self.failed_ops.borrow_mut();
        if !f.iter().any(|(o, _)| *o == op) {
            f.push((op, why));
        }
    }

    /// Called by every rank after op `op`'s closing barrier; the first
    /// caller snapshots the spans and decides whether the world goes on,
    /// so every rank reads the same decision.
    fn finish(&self, op: usize) -> bool {
        if let Some((o, stop)) = self.decided.get() {
            if o == op {
                return stop;
            }
        }
        if let Some(s) = self.sinks {
            self.snaps.borrow_mut().push(OpSpans::of(s));
        }
        let stop = match self.stop {
            Stop::Ops(k) => op >= k,
            Stop::Time(d) => op >= 1 && self.times.borrow()[1].0.elapsed() >= d,
        };
        self.decided.set(Some((op, stop)));
        stop
    }

    /// Per-op samples of ops `from..`, span deltas taken between snapshots.
    fn samples(&self, from: usize) -> Vec<OpSample> {
        let times = self.times.borrow();
        let snaps = self.snaps.borrow();
        (from..times.len())
            .map(|op| {
                let (s, e) = times[op];
                let spans = match (snaps.get(op), op.checked_sub(1).and_then(|p| snaps.get(p))) {
                    (Some(&now), Some(&before)) => now.minus(before),
                    (Some(&now), None) => now,
                    _ => OpSpans::default(),
                };
                OpSample { wall_ns: (e - s).as_nanos() as f64, spans }
            })
            .collect()
    }
}

/// Two seeded payloads the root alternates between, so a buffer left over
/// from the previous op cannot pass verification.
pub fn payloads(n: usize, seed: u64) -> [Vec<u8>; 2] {
    [bcast_core::verify::pattern(n, seed), bcast_core::verify::pattern(n, seed ^ 0xA17E_57A7E)]
}

/// How a broadcast world runs op `op`'s broadcast.
#[allow(async_fn_in_trait)]
trait OpStack {
    async fn bcast(&self, op: usize, buf: &mut [u8]) -> Result<()>;
}

/// The broadcast over one communicator (bare or under the timing wrapper).
struct Plain<'a, C: ?Sized>(&'a C);

impl<C: AsyncCommunicator + ?Sized> OpStack for Plain<'_, C> {
    async fn bcast(&self, _op: usize, buf: &mut [u8]) -> Result<()> {
        bcast_auto_async(self.0, buf, ROOT, &Thresholds::default(), true).await
    }
}

/// Ladder step L5: measured ops cycle through the bare `EventComm` and
/// each decorator alone over it, so drift on the host spreads evenly over
/// the legs instead of landing on whichever one ran during it.
pub const LADDER_LEGS: [&str; 6] =
    ["bare", "sub_comm", "epoch_comm", "guarded_comm", "faulty_comm", "reliable_comm"];

struct Ladder<'a> {
    bare: &'a EventComm,
    sub: SubComm<'a, EventComm>,
    epoch: EpochComm<'a, EventComm>,
    guarded: GuardedComm<'a, EventComm>,
    faulty: FaultyComm<'a, EventComm>,
    reliable: ReliableComm<'a, EventComm>,
}

impl OpStack for Ladder<'_> {
    async fn bcast(&self, op: usize, buf: &mut [u8]) -> Result<()> {
        let th = Thresholds::default();
        // Op 0 is the world's warm-up; measured op k runs leg (k - 1) % 6.
        match op.saturating_sub(1) % LADDER_LEGS.len() {
            0 => bcast_auto_async(self.bare, buf, ROOT, &th, true).await,
            1 => bcast_auto_async(&self.sub, buf, ROOT, &th, true).await,
            2 => bcast_auto_async(&self.epoch, buf, ROOT, &th, true).await,
            3 => bcast_auto_async(&self.guarded, buf, ROOT, &th, true).await,
            4 => bcast_auto_async(&self.faulty, buf, ROOT, &th, true).await,
            _ => bcast_auto_async(&self.reliable, buf, ROOT, &th, true).await,
        }
    }
}

/// One rank of a broadcast world: `comm` carries the barriers, `stack`
/// the broadcast itself.
async fn bcast_rank(
    comm: &EventComm,
    stack: &impl OpStack,
    ctl: &Ctl<'_>,
    payloads: &[Vec<u8>; 2],
    task_span: Option<&Span>,
) {
    let n = payloads[0].len();
    let mut buf = vec![0u8; n];
    let mut op = 0;
    loop {
        let payload = &payloads[op % 2];
        if comm.rank() == ROOT {
            buf.copy_from_slice(payload);
        }
        if let Err(e) = comm.barrier().await {
            ctl.fail(op, format!("opening barrier: {e:?}"));
            return;
        }
        ctl.start(op);
        let bcast = stack.bcast(op, &mut buf);
        let res = match task_span {
            Some(span) => poll_timed(span, bcast).await,
            None => bcast.await,
        };
        ctl.end(op);
        if let Err(e) = res {
            ctl.fail(op, format!("rank {}: broadcast failed: {e:?}", comm.rank()));
            return;
        }
        if let Err(e) = comm.barrier().await {
            ctl.fail(op, format!("closing barrier: {e:?}"));
            return;
        }
        let stop = ctl.finish(op);
        if buf != *payload {
            ctl.fail(op, format!("rank {} delivered a wrong payload", comm.rank()));
        }
        if stop {
            return;
        }
        op += 1;
    }
}

/// Which communicator stack a broadcast world hands to the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The bare `EventComm`.
    Bare,
    /// The bare `EventComm` under the benchmark's timing wrapper.
    Traced,
    /// The decorator ladder ([`LADDER_LEGS`]).
    Ladder,
}

/// Run one broadcast world of `p` ranks.
pub fn bcast_world(p: usize, payloads: &[Vec<u8>; 2], stop: Stop, stack: Stack) -> World {
    let sinks = Sinks::default();
    let traced = stack == Stack::Traced;
    let ctl = Ctl::new(stop, traced.then_some(&sinks));
    let t_build = Instant::now();
    let out = EventWorld::run(p, |comm| {
        let (ctl, sinks) = (&ctl, &sinks);
        async move {
            match stack {
                Stack::Bare => bcast_rank(&comm, &Plain(&comm), ctl, payloads, None).await,
                Stack::Traced => {
                    let t = Timed::new(&comm, &sinks.outer);
                    bcast_rank(&comm, &Plain(&t), ctl, payloads, Some(&sinks.task)).await
                }
                Stack::Ladder => {
                    let members = (0..comm.size()).collect();
                    let ladder = Ladder {
                        bare: &comm,
                        // Every rank is a member of the identity view.
                        sub: SubComm::new_async(&comm, members).expect("member of its own world"),
                        epoch: EpochComm::new(&comm, 1),
                        guarded: GuardedComm::new(&comm, STEP_TIMEOUT),
                        faulty: FaultyComm::new(&comm, FaultPlan::new(0x5EED)),
                        reliable: ReliableComm::new(&comm),
                    };
                    bcast_rank(&comm, &ladder, ctl, payloads, None).await
                }
            }
        }
    });
    let times = ctl.times.borrow();
    let setup = match times.get(1) {
        Some(&(start, _)) => start - t_build,
        None => t_build.elapsed(),
    };
    let attempted = times.len() as u64;
    drop(times);
    let mut counters = Counters::default();
    counters.add(&out, attempted, 0);
    World {
        setup,
        ops: ctl.samples(1),
        counters,
        fingerprint: Fingerprint::of(&out),
        attempted,
        failures: ctl
            .failed_ops
            .take()
            .into_iter()
            .map(|(op, why)| format!("op {op}: {why}"))
            .collect(),
    }
}

/// A seeded crash plan: `k` distinct non-root victims, one drawn from each
/// of `k` equal slices of the rank space, each dying a seeded handful of
/// operations after half an epoch more than the previous one, so the
/// crashes land in `k` separate epochs. The slices and the narrow jitter
/// keep every seed's cascade the same shape, so seeds vary the inputs
/// without changing the work an op does by much.
pub fn crash_plan(p: usize, k: usize, seed: u64) -> (FaultPlan, Vec<usize>) {
    let mut rng = SplitMix(seed);
    let mut plan = FaultPlan::new(seed);
    let mut victims: Vec<usize> = Vec::with_capacity(k);
    // One tuned-ring epoch costs about 4·P operations per rank (the
    // spacing the megascale chaos battery uses); the cascade-depth floor
    // in `heal_world` rejects any plan whose crashes share an epoch.
    let per_epoch = 4 * p as u64;
    let slice = ((p - 1) / k.max(1)).max(1) as u64;
    for i in 0..k {
        let victim = 1 + (i as u64 * slice + rng.next() % slice) as usize;
        let after_ops = 4 + i as u64 * per_epoch / 2 + rng.next() % 16;
        plan = plan.with_crash(victim, after_ops);
        victims.push(victim);
    }
    victims.sort_unstable();
    (plan, victims)
}

/// splitmix64: the seed-to-inputs generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The self-healing configuration for `k` planned crashes: with a root
/// that never crashes, `2k + 1` epochs always suffice.
pub fn heal_cfg(k: usize) -> RecoveryConfig {
    RecoveryConfig {
        step_timeout: STEP_TIMEOUT,
        max_epochs: (2 * k + 1) as u32,
        bounded_sendrecv: false,
    }
}

/// One rank of a self-healing world: `comm` carries the opening barrier,
/// `op_comm` (the fault decorator, possibly under timing wrappers) the op.
async fn heal_rank<C: AsyncCommunicator + ?Sized>(
    comm: &EventComm,
    op_comm: &C,
    ctl: &Ctl<'_>,
    src: &[u8],
    cfg: &RecoveryConfig,
    task_span: Option<&Span>,
) -> (Result<()>, RankRun) {
    let opened = comm.barrier().await;
    ctl.start(0);
    let drill = RecoveryDrill::NONE;
    let task = self_healing_rank_task(op_comm, src, ROOT, Algorithm::ScatterRingTuned, cfg, &drill);
    let run = match task_span {
        Some(span) => poll_timed(span, task).await,
        None => task.await,
    };
    ctl.end(0);
    (opened, run)
}

/// One op of a self-healing workload as its own world.
pub fn heal_world(p: usize, src: &[u8], crashes: usize, seed: u64, traced: bool) -> World {
    let (plan, victims) = crash_plan(p, crashes, seed);
    let cfg = heal_cfg(crashes);
    let sinks = Sinks::default();
    let ctl = Ctl::new(Stop::Ops(0), traced.then_some(&sinks));
    let t_build = Instant::now();
    let out = EventWorld::run(p, |comm| {
        let (ctl, sinks, plan, cfg) = (&ctl, &sinks, plan.clone(), &cfg);
        async move {
            if traced {
                let inner = Timed::new(&comm, &sinks.inner);
                let faulty = FaultyComm::new(&inner, plan);
                let outer = Timed::new(&faulty, &sinks.outer);
                heal_rank(&comm, &outer, ctl, src, cfg, Some(&sinks.task)).await
            } else {
                let faulty = FaultyComm::new(&comm, plan);
                heal_rank(&comm, &faulty, ctl, src, cfg, None).await
            }
        }
    });
    let (start, end) = ctl.times.borrow()[0];
    if let Some(s) = ctl.sinks {
        ctl.snaps.borrow_mut().push(OpSpans::of(s));
    }
    let mut failures = Vec::new();
    if let Some(e) = out.results.iter().find_map(|(opened, _)| opened.as_ref().err()) {
        failures.push(format!("opening barrier: {e:?}"));
    }
    let runs: Vec<RankRun> = out.results.iter().map(|(_, r)| r.clone()).collect();
    let spec = RecoverySpec { src, root: ROOT, cfg, planned_victims: &victims, lossy_links: false };
    if let Err(why) = check_recovery_outcome(&spec, &runs, &out.traffic, out.elapsed) {
        failures.push(why);
    }
    let deepest =
        runs.iter().filter_map(|r| r.result.as_ref().ok().map(|h| h.epochs)).max().unwrap_or(0);
    // The cascade-depth floor: a clean world heals in exactly one epoch,
    // and every planned crash must cost an epoch of its own.
    let depth_ok = if crashes == 0 { deepest == 1 } else { deepest >= (crashes as u32).max(2) };
    if !depth_ok {
        failures.push(format!("cascade depth {deepest} below the floor for {crashes} crash(es)"));
    }
    let mut counters = Counters::default();
    counters.add(&out, 1, deepest as u64);
    World {
        setup: start - t_build,
        ops: vec![OpSample {
            wall_ns: (end - start).as_nanos() as f64,
            spans: ctl.samples(0)[0].spans,
        }],
        counters,
        fingerprint: Fingerprint::of(&out),
        attempted: 1,
        failures,
    }
}
