//! `perfbench` — the end-to-end and per-layer benchmark of the paper's
//! broadcast regimes and the self-healing path on the `EventWorld`
//! executor.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced for `--seconds`;
//! `--trace 1` runs a fixed number of ops untraced and traced, checks that
//! their counters agree exactly, and prints the per-layer breakdown with
//! the same-run unit costs that explain it. Every line before the last is
//! a human-readable report; the last line is one JSON object.

mod host;
mod stats;
mod timed;
mod units;
mod world;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bcast_core::traffic::bcast_volume;
use bcast_core::Algorithm;

use stats::{mean, median, quantile};
use world::{bcast_world, heal_world, payloads, Counters, OpSample, Stack, Stop, World};

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// One named workload.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    /// World size.
    p: usize,
    /// Payload bytes.
    n: usize,
    /// `Some(k)`: the self-healing path with `k` planned crashes;
    /// `None`: the plain tuned broadcast.
    crashes: Option<usize>,
    /// Measured ops of each leg of a traced run.
    trace_ops: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload { name: "bcast-lmsg", p: 129, n: 4 << 20, crashes: None, trace_ops: 8 },
    Workload { name: "bcast-mmsg-npof2", p: 1025, n: 64 << 10, crashes: None, trace_ops: 5 },
    Workload { name: "heal-clean", p: 1024, n: 2 << 10, crashes: Some(0), trace_ops: 2 },
    Workload { name: "heal-crash", p: 512, n: 2 << 10, crashes: Some(3), trace_ops: 2 },
];

/// Decorator ladder world: the `bcast-mmsg-npof2` broadcast.
const LADDER: (usize, usize) = (1025, 64 << 10);

impl Workload {
    fn chunk(&self) -> usize {
        self.n.div_ceil(self.p)
    }

    /// Receive buffers of the whole world.
    fn working_set(&self) -> usize {
        self.p * self.n
    }

    fn closed_form(&self) -> bcast_core::traffic::Volume {
        bcast_volume(Algorithm::ScatterRingTuned, self.n, self.p)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds: seconds.max(1), trace })
}

/// Metric lines of the report, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Outcome of a whole benchmark run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    notes: Vec<String>,
}

impl Outcome {
    /// Fold one world in: its failures count against its ops.
    fn absorb(&mut self, label: &str, w: &World) {
        self.attempted += w.attempted;
        if !w.failures.is_empty() {
            self.failed += (w.failures.len() as u64).min(w.attempted);
            self.problems.extend(w.failures.iter().map(|f| format!("{label}: {f}")));
        }
    }

    /// A check on a whole world: a miss fails every op it covered.
    fn require(&mut self, ok: bool, ops: u64, why: String) {
        if !ok {
            self.failed = (self.failed + ops).min(self.attempted);
            self.problems.push(why);
        }
    }
}

/// The checks that pin a broadcast world to the algorithm it claims to
/// run: traffic equal to the `bcast_core::traffic` closed forms and no
/// mailbox spills.
fn check_bcast(out: &mut Outcome, wl: &Workload, w: &World) {
    let c = &w.counters;
    let vol = wl.closed_form();
    out.require(
        c.msgs == c.ops * vol.msgs && c.wire_bytes == c.ops * vol.bytes,
        c.ops,
        format!(
            "traffic {} msgs / {} B over {} ops, closed form {} msgs / {} B per op",
            c.msgs, c.wire_bytes, c.ops, vol.msgs, vol.bytes
        ),
    );
    out.require(c.spills == 0, c.ops, format!("{} mailbox spills in a plain broadcast", c.spills));
}

fn heal_seed(seed: u64, world: u64) -> u64 {
    seed.wrapping_mul(0x100_0000_01B3) ^ world.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(wl: &Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let payloads = payloads(wl.n, seed);
    let budget = Duration::from_secs(seconds);
    let mut setups = Vec::new();
    let mut ops: Vec<OpSample> = Vec::new();
    let mut counters = Counters::default();
    match wl.crashes {
        None => {
            // Three worlds, each set up from scratch and then measured for
            // a third of the budget: three set-up samples per run.
            for i in 0..3 {
                let w = bcast_world(wl.p, &payloads, Stop::Time(budget / 3), Stack::Bare);
                out.absorb(&format!("world {i}"), &w);
                check_bcast(out, wl, &w);
                setups.push(w.setup.as_secs_f64());
                ops.extend(&w.ops);
                counters.merge(&w.counters);
            }
        }
        Some(k) => {
            // One world per op; world 0 is the warm-up and is not timed.
            let started = Instant::now();
            let mut i = 0u64;
            while i < 4 || started.elapsed() < budget {
                let w = heal_world(wl.p, &payloads[i as usize % 2], k, heal_seed(seed, i), false);
                out.absorb(&format!("world {i}"), &w);
                setups.push(w.setup.as_secs_f64());
                if i > 0 {
                    ops.extend(&w.ops);
                    counters.merge(&w.counters);
                }
                i += 1;
            }
        }
    }
    let peak_rss = host::peak_rss_mib();
    let mut walls: Vec<f64> = ops.iter().map(|o| o.wall_ns / 1e6).collect();
    let p50 = median(&mut walls);
    let mean_ms = mean(&walls);
    let m = &mut out.metrics;
    m.put("op_ms_p50", p50, "ms");
    m.put("delivered_gib_s", ((wl.p - 1) * wl.n) as f64 / GIB / (mean_ms / 1e3), "GiB/s");
    m.put("setup_s", median(&mut setups), "s");
    m.put("peak_rss_mib", peak_rss, "MiB");
    m.put("wire_mib_per_op", counters.per_op(counters.wire_bytes) / MIB, "MiB");
    out.notes.push(format!("ops measured: {} (op_ms_p50 sample count)", walls.len()));
    if walls.len() >= 100 {
        out.notes.push(format!("op_ms_p90: {:.4} ms", quantile(&mut walls, 0.9)));
    } else {
        out.notes.push(format!("op_ms_p90: not reported ({} ops < 100 in one run)", walls.len()));
    }
    if wl.crashes.is_some() {
        out.notes.push(format!(
            "recovery_virtual_ms: {:.3} ms (virtual clock, mean per op)",
            counters.per_op(counters.virtual_ns) / 1e6
        ));
    }
}

/// Ladder step L5: the `bcast-mmsg-npof2` broadcast through each decorator
/// alone, per message above the same broadcast on the bare `EventComm`.
/// Each leg keeps its fastest op: host noise only ever adds time.
fn decorator_ladder(out: &mut Outcome, seed: u64) -> Vec<(&'static str, f64)> {
    const ROUNDS: usize = 2;
    let (p, n) = LADDER;
    let legs = world::LADDER_LEGS.len();
    let w = bcast_world(p, &payloads(n, seed), Stop::Ops(ROUNDS * legs), Stack::Ladder);
    out.absorb("decorator ladder", &w);
    let mut best = vec![f64::INFINITY; legs];
    for (i, o) in w.ops.iter().enumerate() {
        best[i % legs] = best[i % legs].min(o.wall_ns);
    }
    let msgs = bcast_volume(Algorithm::ScatterRingTuned, n, p).msgs as f64;
    world::LADDER_LEGS[1..]
        .iter()
        .zip(&best[1..])
        .map(|(&name, ns)| (name, (ns - best[0]) / msgs))
        .collect()
}

/// Self times of one traced op, with the calibrated probe cost taken out.
#[derive(Debug, Default)]
struct Layers {
    event_comm: f64,
    fault: f64,
    algo: f64,
    recovery: f64,
    reactor: f64,
    probe: f64,
    calls: f64,
    timeouts: f64,
}

fn layers_of(o: &OpSample, heal: bool, probe: timed::ProbeCost) -> Layers {
    let (s, d) = (probe.total_ns, probe.inner_ns);
    let sp = &o.spans;
    let task = sp.task.ns as f64;
    let task_p = sp.task.polls as f64;
    let outer = sp.outer.ns as f64;
    let outer_p = sp.outer.polls as f64;
    let inner = sp.inner.ns as f64;
    let inner_p = sp.inner.polls as f64;
    let reactor = o.wall_ns - task - task_p * (s - d);
    let mut l = Layers { reactor, ..Layers::default() };
    if heal {
        l.event_comm = inner - inner_p * d;
        l.fault = outer - inner - inner_p * (s - d) - outer_p * d;
        l.recovery = task - outer - outer_p * (s - d) - task_p * d;
        l.calls = sp.inner.calls as f64;
        l.timeouts = sp.inner.timeouts as f64;
    } else {
        l.event_comm = outer - outer_p * d;
        l.algo = task - outer - outer_p * (s - d) - task_p * d;
        l.calls = sp.outer.calls as f64;
        l.timeouts = sp.outer.timeouts as f64;
    }
    l.probe = (task_p + outer_p + inner_p) * s;
    l
}

/// `--trace 1`: the per-layer breakdown.
fn run_traced(wl: &Workload, seed: u64, out: &mut Outcome) -> f64 {
    let probe = timed::calibrate_probe();
    let units = units::measure(wl.chunk(), wl.working_set(), wl.n, wl.p);
    out.notes.push(format!(
        "probe: {:.2} ns per empty span ({:.2} ns of it inside the span)",
        probe.total_ns, probe.inner_ns
    ));
    let payloads = payloads(wl.n, seed);
    let heal = wl.crashes.is_some();
    let k = wl.trace_ops;

    // Untraced and traced legs over identical inputs.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    match wl.crashes {
        None => {
            let u = bcast_world(wl.p, &payloads, Stop::Ops(k), Stack::Bare);
            let t = bcast_world(wl.p, &payloads, Stop::Ops(k), Stack::Traced);
            for (label, w) in [("untraced", &u), ("traced", &t)] {
                out.absorb(label, w);
                check_bcast(out, wl, w);
            }
            out.require(
                u.fingerprint == t.fingerprint,
                t.attempted,
                format!(
                    "traced counters differ: {:?} vs {:?}",
                    t.fingerprint.reactor, u.fingerprint.reactor
                ),
            );
            counters = u.counters;
            plain.extend(u.ops);
            traced.extend(t.ops);
        }
        Some(crashes) => {
            let warm = heal_world(wl.p, &payloads[0], crashes, heal_seed(seed, 0), false);
            out.absorb("warm-up", &warm);
            for i in 1..=k as u64 {
                let src = &payloads[i as usize % 2];
                let u = heal_world(wl.p, src, crashes, heal_seed(seed, i), false);
                let t = heal_world(wl.p, src, crashes, heal_seed(seed, i), true);
                out.absorb(&format!("untraced world {i}"), &u);
                out.absorb(&format!("traced world {i}"), &t);
                out.require(
                    u.fingerprint == t.fingerprint,
                    1,
                    format!("world {i}: traced counters differ from untraced"),
                );
                counters.merge(&u.counters);
                plain.extend(u.ops);
                traced.extend(t.ops);
            }
        }
    }

    let per_op = |total: u64| counters.per_op(total);
    let ls: Vec<Layers> = traced.iter().map(|o| layers_of(o, heal, probe)).collect();
    let avg = |f: &dyn Fn(&Layers) -> f64| mean(&ls.iter().map(f).collect::<Vec<_>>());
    let wall_t = mean(&traced.iter().map(|o| o.wall_ns).collect::<Vec<_>>());
    let wall_u = mean(&plain.iter().map(|o| o.wall_ns).collect::<Vec<_>>());
    let ms = 1e-6;

    let copied = per_op(counters.copied);
    let rents = per_op(counters.rents);
    let envelopes = per_op(counters.envelopes);
    let spills = per_op(counters.spills);
    let cancels = per_op(counters.cancels);
    let fires = avg(&|l| l.timeouts);
    let memcpy_pred = copied / (units.memcpy_gib_s * GIB) * 1e3;
    let pool_pred = (rents * units.rent_ns + envelopes * units.share_ns) * ms;
    let mailbox_pred =
        ((envelopes - spills).max(0.0) * units.push_pop_ns + spills * units.spill_push_pop_ns) * ms;
    let timer_pred = (cancels * units.arm_cancel_ns + fires * units.arm_pop_ns) * ms;
    // The decorators every message of a self-healing op passes through
    // (ladder step L5); `SubComm` only runs in degraded epochs.
    let ladder = decorator_ladder(out, seed);
    let deco_ns: f64 = ladder
        .iter()
        .filter(|(name, _)| heal && ["faulty_comm", "guarded_comm", "epoch_comm"].contains(name))
        .map(|&(_, ns)| ns.max(0.0))
        .sum();
    let deco_pred = per_op(counters.msgs) * deco_ns * ms;
    let pred = memcpy_pred + pool_pred + mailbox_pred + timer_pred + deco_pred;

    let l = Layers {
        event_comm: avg(&|l| l.event_comm),
        fault: avg(&|l| l.fault),
        algo: avg(&|l| l.algo),
        recovery: avg(&|l| l.recovery),
        reactor: avg(&|l| l.reactor),
        probe: avg(&|l| l.probe),
        calls: avg(&|l| l.calls),
        timeouts: fires,
    };
    let measured = wall_t - l.probe;
    // The unit costs price mechanisms only, not the control flow around
    // them, so the prediction must stay between zero and the measured op.
    let residual_pct = (measured - pred * 1e6) / measured * 100.0;
    let verdict = if (0.0..100.0).contains(&residual_pct) { "within" } else { "OUTSIDE" };
    let sum = l.event_comm + l.fault + l.algo + l.recovery + l.reactor + l.probe;
    out.require(
        (sum - wall_t).abs() <= 1e-6 * wall_t.max(1.0),
        0,
        format!("layer self times sum to {sum} ns, traced op is {wall_t} ns"),
    );
    let vol = wl.closed_form();
    let msgs = per_op(counters.msgs);

    let m = &mut out.metrics;
    m.put("memcpy.copied_mib", copied / MIB, "MiB");
    m.put("memcpy.gib_s", units.memcpy_gib_s, "GiB/s");
    m.put("memcpy.pred_ms", memcpy_pred, "ms");
    m.put("mpsim.pool.rent_ns", units.rent_ns, "ns");
    m.put("mpsim.pool.share_ns", units.share_ns, "ns");
    m.put("mpsim.pool.rents", rents, "count");
    m.put("mpsim.pool.misses", per_op(counters.misses), "count");
    m.put("mpsim.pool.pred_ms", pool_pred, "ms");
    m.put("mpsim.event_mailbox.push_pop_ns", units.push_pop_ns, "ns");
    m.put("mpsim.event_mailbox.spill_push_pop_ns", units.spill_push_pop_ns, "ns");
    m.put("mpsim.event_mailbox.spills", spills, "count");
    m.put("mpsim.event_mailbox.pred_ms", mailbox_pred, "ms");
    m.put("mpsim.event_timer.arm_cancel_ns", units.arm_cancel_ns, "ns");
    m.put("mpsim.event_timer.arm_pop_ns", units.arm_pop_ns, "ns");
    m.put("mpsim.event_timer.cancels", cancels, "count");
    m.put("mpsim.event_timer.pred_ms", timer_pred, "ms");
    m.put("mpsim.event_comm.calls", l.calls, "count");
    m.put("mpsim.event_comm.self_ms", l.event_comm * ms, "ms");
    m.put("mpsim.event_comm.ns_per_call", l.event_comm / l.calls.max(1.0), "ns");
    m.put("mpsim.reactor.self_ms", l.reactor * ms, "ms");
    m.put("mpsim.reactor.wakeups", per_op(counters.wakeups), "count");
    m.put("mpsim.reactor.spurious_polls", per_op(counters.spurious_polls), "count");
    m.put("core.algo.self_ms", l.algo * ms, "ms");
    m.put("core.algo.msgs", msgs, "count");
    m.put("core.algo.envelopes", envelopes, "count");
    m.put("core.recovery.self_ms", l.recovery * ms, "ms");
    m.put("core.recovery.epochs", per_op(counters.epochs), "count");
    m.put("core.recovery.extra_msgs", if heal { msgs - vol.msgs as f64 } else { 0.0 }, "count");
    m.put("core.recovery.virtual_ms", per_op(counters.virtual_ns) * ms, "ms_virtual");
    m.put("netsim.fault.self_ms", l.fault * ms, "ms");
    m.put("explain.pred_ms", pred, "ms");
    m.put("explain.residual_pct", residual_pct, "%");
    m.put("trace.op_ms", wall_t * ms, "ms");
    m.put("trace.probe_ms", l.probe * ms, "ms");
    m.put("trace.overhead_pct", (wall_t - wall_u) / wall_u * 100.0, "%");
    out.notes.push(format!(
        "untraced op {:.3} ms; traced op {:.3} ms = probes {:.3} + reactor {:.3} + algo {:.3} + \
         recovery {:.3} + fault {:.3} + event_comm {:.3}; corrected traced op {:.3} ms",
        wall_u * ms,
        wall_t * ms,
        l.probe * ms,
        l.reactor * ms,
        l.algo * ms,
        l.recovery * ms,
        l.fault * ms,
        l.event_comm * ms,
        measured * ms
    ));
    out.notes.push(format!(
        "explain: memcpy {memcpy_pred:.3} + pool {pool_pred:.3} + mailbox {mailbox_pred:.3} + \
         timer {timer_pred:.3} + decorators {deco_pred:.3} = {pred:.3} ms predicted vs {:.3} ms \
         measured; residual {residual_pct:.2}% {verdict} its bound [0, 100)",
        measured * ms
    ));
    for (name, ns) in ladder {
        out.metrics.put(&format!("decorator.{name}.ns_per_msg"), ns, "ns");
    }
    units.memcpy_gib_s
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let mut out = Outcome::default();
    let gib_s = if args.trace {
        run_traced(&wl, args.seed, &mut out)
    } else {
        run_end_to_end(&wl, args.seed, args.seconds, &mut out);
        units::memcpy_gib_s(wl.chunk(), wl.working_set(), wl.n)
    };

    println!("perfbench {} seed={} trace={}", wl.name, args.seed, u8::from(args.trace));
    println!(
        "record: nproc={} cpu={:?} llc={} memcpy.gib_s={:.3} git={} seed={} workload={} \
         (P={} n={} B, EventWorld, closed loop, 1 client)",
        host::nproc(),
        host::cpu_model(),
        host::llc(),
        gib_s,
        host::git_sha(),
        args.seed,
        wl.name,
        wl.p,
        wl.n
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  fail_ratio: {fail_ratio} ({} of {} ops)", out.failed, out.attempted);
    for p in &out.problems {
        println!("  FAIL: {p}");
    }

    let correct = out.problems.is_empty() && out.attempted > 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
