//! Static schedule sweep: every registered collective × P ∈ {2..32} ×
//! payload sizes × roots × both send semantics, plus the paper's ring
//! theorems, a mutation drill proving the checker has teeth, and the
//! degraded schedules the self-healing broadcast re-derives over survivor
//! subsets after a crash.
//!
//! Exits nonzero (with per-instance diagnostics) on any failure. `--quick`
//! restricts the world-size grid for local smoke runs; CI runs the full
//! sweep.
//!
//! `schedcheck explore-reactor [--max-states N]` runs the other half of the
//! crate instead: the interleaving explorer over every protocol model —
//! the fast-sync mutex, condvar rendezvous and sharded-mailbox legacy
//! models, the four megascale-reactor models (run-queue dedup,
//! external-waker side queue, lane-mailbox routing, timer-wheel
//! generations), and the self-healing broadcast's fast-round agreement
//! with its pairwise fallback. Each model is explored exhaustively *and*
//! with DPOR, the verdicts are required to agree, per-model state counts
//! and reduction factors are printed, and a seeded mutation drill injects
//! a known lost-wakeup / stale-handle / split-brain bug into each reactor
//! and agreement model and demands both explorers catch it. `--max-states` bounds the per-model state budget.

use bcast_core::bcast::{bcast_schedule, bcast_tuned_schedule_with};
use bcast_core::{all_sources, degraded_bcast_schedule, step_flag, traffic, Algorithm};
use schedcheck::models::{
    AgreementModel, CondvarModel, ExternalWakerModel, FastMutexModel, LaneMailboxModel,
    MailboxModel, RunQueueModel, TimerWheelModel,
};
use schedcheck::{check, explore, explore_dpor, Model, Semantics, DEFAULT_MAX_STATES};

/// One failed instance, for the final report.
struct Failure {
    what: String,
    details: Vec<String>,
}

/// Exploration totals for the `explore-reactor` summary line.
#[derive(Default)]
struct ExploreTotals {
    models: usize,
    exhaustive_states: usize,
    dpor_states: usize,
}

/// Run one clean model under both explorers: verdicts must both be clean
/// and DPOR must never visit more states than exhaustive.
fn differential<M: Model>(
    name: &str,
    model: &M,
    max_states: usize,
    totals: &mut ExploreTotals,
    failures: &mut Vec<Failure>,
) {
    let full = explore(model, max_states);
    let dpor = explore_dpor(model, max_states);
    match (&full, &dpor) {
        (Ok(f), Ok(d)) => {
            totals.models += 1;
            totals.exhaustive_states += f.states;
            totals.dpor_states += d.states;
            println!(
                "  {name}: exhaustive {} states / dpor {} = {:.2}x reduction",
                f.states,
                d.states,
                f.states as f64 / d.states as f64
            );
            if d.states > f.states {
                failures.push(Failure {
                    what: format!("explore {name}"),
                    details: vec![format!(
                        "DPOR visited more states than exhaustive ({} vs {})",
                        d.states, f.states
                    )],
                });
            }
        }
        _ => failures.push(Failure {
            what: format!("explore {name}"),
            details: vec![format!("exhaustive: {full:?}"), format!("dpor: {dpor:?}")],
        }),
    }
}

/// Run one mutant under both explorers: both must fail, with the expected
/// substring in the diagnostic. Returns whether the mutant was caught.
fn drill<M: Model>(
    name: &str,
    model: &M,
    expect: &str,
    max_states: usize,
    failures: &mut Vec<Failure>,
) -> bool {
    let mut caught = true;
    for (how, res) in
        [("exhaustive", explore(model, max_states)), ("dpor", explore_dpor(model, max_states))]
    {
        match res {
            Err(e) if e.contains(expect) => {}
            other => {
                caught = false;
                failures.push(Failure {
                    what: format!("mutation {name} [{how}]"),
                    details: vec![format!("expected a '{expect}' diagnostic, got {other:?}")],
                });
            }
        }
    }
    caught
}

/// The `explore-reactor` subcommand.
fn explore_reactor(max_states: usize) -> ! {
    let mut failures: Vec<Failure> = Vec::new();
    let mut totals = ExploreTotals::default();

    // ---- Phase 1: clean protocol models, exhaustive vs DPOR --------------
    println!("phase 1: protocol models, exhaustive vs DPOR (budget {max_states} states)");
    for (threads, sections) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
        differential(
            &format!("fast-mutex t={threads} s={sections}"),
            &FastMutexModel { threads, sections, skip_recheck: false, park_timeout: true },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    for consumers in 1..=2 {
        differential(
            &format!("condvar c={consumers}"),
            &CondvarModel { consumers },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    for senders in 1..=4 {
        differential(
            &format!("mailbox s={senders}"),
            &MailboxModel { senders, broken_skip: false },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    for senders in 1..=3 {
        for crasher in [false, true] {
            differential(
                &format!("reactor-run-queue s={senders} crasher={crasher}"),
                &RunQueueModel { senders, crasher, clear_after_poll: false, skip_exit_wake: false },
                max_states,
                &mut totals,
                &mut failures,
            );
        }
    }
    for wakes in 1..=3 {
        differential(
            &format!("reactor-external-waker w={wakes}"),
            &ExternalWakerModel { wakes, skip_drain: false, drop_drained: false },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    differential(
        "reactor-lane-mailbox",
        &LaneMailboxModel { drop_wild: false, skip_spill_count: false },
        max_states,
        &mut totals,
        &mut failures,
    );
    for (delta_a, delta_b) in [(10, 20), (10, 100), (63, 64)] {
        differential(
            &format!("reactor-timer-wheel a={delta_a} b={delta_b}"),
            &TimerWheelModel { delta_a, delta_b, no_generation: false },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    for ranks in 3..=5 {
        for victim in std::iter::once(None).chain((0..ranks).map(Some)) {
            let crash = victim.map_or("none".to_string(), |v| v.to_string());
            differential(
                &format!("recovery-agreement ranks={ranks} crash={crash}"),
                &AgreementModel { ranks, victim, heal_in_fallback: false },
                max_states,
                &mut totals,
                &mut failures,
            );
        }
    }
    println!(
        "phase 1: {} models clean; {} exhaustive states vs {} DPOR states ({:.2}x overall)",
        totals.models,
        totals.exhaustive_states,
        totals.dpor_states,
        totals.exhaustive_states as f64 / totals.dpor_states.max(1) as f64
    );

    // ---- Phase 2: seeded mutation drill ----------------------------------
    // One known lost-wakeup / stale-handle / accounting bug per knob; a
    // model checker that passes mutants is vacuous.
    let mut drilled = 0usize;
    drilled += usize::from(drill(
        "run-queue clear-after-poll",
        &RunQueueModel {
            senders: 2,
            crasher: false,
            clear_after_poll: true,
            skip_exit_wake: false,
        },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "run-queue skip-exit-wake",
        &RunQueueModel { senders: 1, crasher: true, clear_after_poll: false, skip_exit_wake: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "external-waker skip-drain",
        &ExternalWakerModel { wakes: 1, skip_drain: true, drop_drained: false },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "external-waker drop-drained",
        &ExternalWakerModel { wakes: 1, skip_drain: false, drop_drained: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox drop-wild",
        &LaneMailboxModel { drop_wild: true, skip_spill_count: false },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox skip-spill-count",
        &LaneMailboxModel { drop_wild: false, skip_spill_count: true },
        "terminal state rejected",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "timer-wheel no-generation",
        &TimerWheelModel { delta_a: 10, delta_b: 20, no_generation: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "mailbox broken-skip",
        &MailboxModel { senders: 1, broken_skip: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "recovery-agreement heal-in-fallback",
        &AgreementModel { ranks: 4, victim: Some(2), heal_in_fallback: true },
        "split-brain",
        max_states,
        &mut failures,
    ));
    println!("phase 2: {drilled}/9 seeded mutants caught by both explorers");

    if failures.is_empty() {
        println!("schedcheck explore-reactor: all clear");
        std::process::exit(0);
    }
    eprintln!("schedcheck explore-reactor: {} failure(s)", failures.len());
    for f in &failures {
        eprintln!("FAIL {}", f.what);
        for d in &f.details {
            eprintln!("     {d}");
        }
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "explore-reactor") {
        let max_states = match args.iter().position(|a| a == "--max-states") {
            Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("schedcheck: --max-states needs an integer argument");
                    std::process::exit(2);
                }
            },
            None => DEFAULT_MAX_STATES,
        };
        explore_reactor(max_states);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let ps: Vec<usize> = if quick { vec![2, 3, 4, 8, 13, 16, 32] } else { (2..=32).collect() };

    let mut checks = 0usize;
    let mut failures: Vec<Failure> = Vec::new();

    // ---- Phase 1: full matrix of static analyses -------------------------
    let sources = all_sources();
    for &p in &ps {
        for src in &sources {
            if !src.supports(p) {
                continue;
            }
            for nbytes in [1usize, 17, 64 * p] {
                for root in [0, p - 1] {
                    let sched = src.schedule(p, nbytes, root);
                    for sem in Semantics::ALL {
                        checks += 1;
                        let rep = check(&sched, sem);
                        if !rep.is_clean() {
                            failures.push(Failure {
                                what: format!(
                                    "{} p={p} nbytes={nbytes} root={root} {sem}",
                                    src.name()
                                ),
                                details: rep.errors.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    println!("phase 1: {checks} schedule instances analysed");

    // ---- Phase 2: traffic reconciliation against closed forms ------------
    let algorithms = [
        Algorithm::Binomial,
        Algorithm::ScatterRdAllgather,
        Algorithm::ScatterRingNative,
        Algorithm::ScatterRingTuned,
    ];
    let mut reconciled = 0usize;
    for &p in &ps {
        for alg in algorithms {
            if alg == Algorithm::ScatterRdAllgather && !mpsim::is_pof2(p) {
                continue;
            }
            for nbytes in [1usize, 17, 64 * p] {
                let sched = bcast_schedule(alg, p, nbytes, 0);
                let (msgs, bytes) = sched.planned_volume();
                let model = traffic::bcast_volume(alg, nbytes, p);
                reconciled += 1;
                if (msgs, bytes) != (model.msgs, model.bytes) {
                    failures.push(Failure {
                        what: format!("traffic {} p={p} nbytes={nbytes}", alg.schedule_name()),
                        details: vec![format!(
                            "IR volume ({msgs} msgs, {bytes} B) != closed form ({} msgs, {} B)",
                            model.msgs, model.bytes
                        )],
                    });
                }
            }
        }
    }
    println!("phase 2: {reconciled} IR volumes reconciled with traffic closed forms");

    // ---- Phase 3: the paper's theorems as redundancy checks --------------
    // The tuned ring must be redundancy-free at every size; the native
    // ring's redundancy must equal the closed-form saving — byte-exact for
    // every size, message-exact when every scatter chunk is non-empty.
    let mut theorems = 0usize;
    for &p in &ps {
        for nbytes in [1usize, 17, 64 * p] {
            let tuned = check(
                &bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, 0),
                Semantics::Rendezvous,
            );
            let native = check(
                &bcast_schedule(Algorithm::ScatterRingNative, p, nbytes, 0),
                Semantics::Rendezvous,
            );
            theorems += 1;
            if tuned.redundant_msgs != 0 || tuned.redundant_bytes != 0 {
                failures.push(Failure {
                    what: format!("theorem tuned-redundancy-free p={p} nbytes={nbytes}"),
                    details: vec![format!(
                        "tuned ring has {} redundant msgs / {} redundant bytes",
                        tuned.redundant_msgs, tuned.redundant_bytes
                    )],
                });
            }
            let byte_saving =
                traffic::native_ring_bytes(nbytes, p) - traffic::tuned_ring_bytes(nbytes, p);
            if native.redundant_bytes != byte_saving {
                failures.push(Failure {
                    what: format!("theorem byte-saving p={p} nbytes={nbytes}"),
                    details: vec![format!(
                        "native redundant bytes {} != closed-form saving {byte_saving}",
                        native.redundant_bytes
                    )],
                });
            }
            // The message-count theorem needs every scatter chunk non-empty
            // (zero-length ring hops carry no payload, so the executor does
            // not count them as redundant *messages*); the byte theorem
            // above is exact at every size.
            let layout = bcast_core::ChunkLayout::new(nbytes, p);
            let all_chunks_nonempty = (0..p).all(|r| layout.count(r) > 0);
            if all_chunks_nonempty && native.redundant_msgs != traffic::ring_saving_msgs(p) {
                failures.push(Failure {
                    what: format!("theorem msg-saving p={p} nbytes={nbytes}"),
                    details: vec![format!(
                        "native redundant msgs {} != ring_saving_msgs {}",
                        native.redundant_msgs,
                        traffic::ring_saving_msgs(p)
                    )],
                });
            }
        }
    }
    println!("phase 3: {theorems} sizes checked against the paper's saving theorems");

    // ---- Phase 4: mutation drill -----------------------------------------
    // Seed an off-by-one into the tuned ring's (step, flag) pruning and
    // demand the analyses reject every mutant with a rank-level diagnostic.
    // A checker that passes mutants is vacuous.
    let mut mutants = 0usize;
    for &p in &ps {
        if !quick && ![3, 4, 8, 9, 16, 32].contains(&p) {
            continue;
        }
        let nbytes = 64 * p;
        let correct = bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, 0);
        for delta in [1usize, 2] {
            let sched = bcast_tuned_schedule_with(p, nbytes, 0, |rel, size| {
                let (step, flag) = step_flag(rel, size);
                (step + delta, flag)
            });
            if sched == correct {
                // Degenerate pruning window (e.g. p=2): the off-by-one
                // changes nothing, so there is no mutant to catch.
                continue;
            }
            mutants += 1;
            let caught = Semantics::ALL.iter().any(|&sem| {
                let rep = check(&sched, sem);
                !rep.is_clean() && rep.errors.iter().any(|e| e.contains("rank"))
            });
            if !caught {
                failures.push(Failure {
                    what: format!("mutation step_flag+{delta} p={p}"),
                    details: vec!["off-by-one in (step, flag) pruning was NOT detected".into()],
                });
            }
        }
    }
    println!("phase 4: {mutants} seeded step_flag mutants drilled");

    // ---- Phase 5: degraded (post-crash) schedules ------------------------
    // The self-healing broadcast re-derives its schedule over the survivor
    // subset after a crash. Prove the regenerated ring is still sound:
    // matched, deadlock-free under both semantics, full coverage on every
    // survivor, no ops or obligations on the dead ranks, and traffic equal
    // to the closed form at the shrunken world size.
    let degraded_algorithms =
        [Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned];
    let mut degraded = 0usize;
    for &p in &ps {
        if p < 3 {
            continue; // need at least 2 survivors
        }
        // One dead rank (first / middle / last) and, when possible, a pair.
        let mut casualty_sets: Vec<Vec<usize>> = vec![vec![1 % p], vec![p / 2], vec![p - 1]];
        if p >= 4 {
            casualty_sets.push(vec![1, p - 1]);
        }
        for dead in &casualty_sets {
            let members: Vec<usize> = (0..p).filter(|r| !dead.contains(r)).collect();
            let root = members[0];
            for alg in degraded_algorithms {
                for nbytes in [17usize, 64 * p] {
                    let sched = degraded_bcast_schedule(alg, p, nbytes, &members, root);
                    let (msgs, bytes) = sched.planned_volume();
                    let model = traffic::bcast_volume(alg, nbytes, members.len());
                    if (msgs, bytes) != (model.msgs, model.bytes) {
                        failures.push(Failure {
                            what: format!(
                                "degraded traffic {} p={p} dead={dead:?} nbytes={nbytes}",
                                alg.schedule_name()
                            ),
                            details: vec![format!(
                                "IR volume ({msgs} msgs, {bytes} B) != closed form at P'={} ({} msgs, {} B)",
                                members.len(),
                                model.msgs,
                                model.bytes
                            )],
                        });
                    }
                    for sem in Semantics::ALL {
                        degraded += 1;
                        let rep = check(&sched, sem);
                        if !rep.is_clean() {
                            failures.push(Failure {
                                what: format!(
                                    "degraded {} p={p} dead={dead:?} nbytes={nbytes} {sem}",
                                    alg.schedule_name()
                                ),
                                details: rep.errors.clone(),
                            });
                        }
                    }
                    for &d in dead {
                        if !sched.ranks[d].ops.is_empty() || !sched.ranks[d].required.is_empty() {
                            failures.push(Failure {
                                what: format!(
                                    "degraded {} p={p} dead={dead:?}",
                                    alg.schedule_name()
                                ),
                                details: vec![format!(
                                    "dead rank {d} still has {} op(s) / {} requirement(s)",
                                    sched.ranks[d].ops.len(),
                                    sched.ranks[d].required.len()
                                )],
                            });
                        }
                    }
                }
            }
        }
    }
    println!("phase 5: {degraded} degraded survivor-subset schedules analysed");

    // ---- Verdict ---------------------------------------------------------
    if failures.is_empty() {
        println!("schedcheck: all clear ({} world sizes, {} sources)", ps.len(), sources.len());
        return;
    }
    eprintln!("schedcheck: {} failure(s)", failures.len());
    for f in &failures {
        eprintln!("FAIL {}", f.what);
        for d in &f.details {
            eprintln!("     {d}");
        }
    }
    std::process::exit(1);
}
