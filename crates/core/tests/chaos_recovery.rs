//! Chaos sweep: the self-healing broadcast under seeded drop, duplication,
//! and crash faults, at P ∈ {4, 8, 10, 16}, plus the cross-executor
//! acceptance scenario (one non-root rank crashing mid-ring at P = 8 must
//! leave all 7 survivors with the payload, identically on the threaded
//! runtime and the simulator).
//!
//! Every fault decision comes from a [`FaultPlan`] seeded via
//! `TESTKIT_SEED` (or a fixed default), so a failing run replays
//! bit-identically: same seed → same drops, same crash point, same
//! survivor set.
//!
//! Stacking follows the fault model's division of labor: message loss and
//! duplication between *live* ranks are masked by [`ReliableComm`]
//! (`bounded_sendrecv` tells the recovery layer the pump self-bounds);
//! crashes are healed by `self_healing_bcast` directly over the faulty
//! communicator.

use std::time::Duration;

use bcast_core::recovery::{agreement_tree, branch};
use bcast_core::{
    check_recovery_outcome, self_healing_bcast_async, self_healing_rank_task, Algorithm, RankRun,
    RecoveryConfig, RecoveryDrill, RecoverySpec,
};
use mpsim::{
    complete_now, CommError, Communicator, EventWorld, Rank, ReliableComm, RetryConfig, SyncComm,
    ThreadWorld, WorldTraffic,
};
use netsim::{FaultPlan, FaultyComm, LinkFaults, NetworkModel, Placement, SimWorld};

const PS: [usize; 4] = [4, 8, 10, 16];

/// `TESTKIT_SEED` (decimal or 0x-hex) when set, a fixed default otherwise.
fn battery_seed() -> u64 {
    let Ok(raw) = std::env::var("TESTKIT_SEED") else {
        return 0xC4A0_5BAD_5EED_0002;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("TESTKIT_SEED={raw:?} is not a decimal or 0x-hex u64"))
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n).map(|i| (i as u64).wrapping_mul(131).wrapping_add(salt) as u8).collect()
}

fn quick_retry() -> RetryConfig {
    RetryConfig {
        base_timeout: Duration::from_millis(5),
        max_timeout: Duration::from_millis(40),
        max_attempts: 12,
    }
}

fn recovery_cfg(bounded_sendrecv: bool) -> RecoveryConfig {
    RecoveryConfig { step_timeout: Duration::from_millis(60), max_epochs: 4, bounded_sendrecv }
}

/// Drop / duplication sweep: `ReliableComm` over `FaultyComm`, healed
/// broadcast on top. No rank dies, so every rank must finish in agreement
/// with the full world as survivors and the exact payload.
fn lossy_sweep(faults: LinkFaults, seed_salt: u64) {
    let seed = battery_seed() ^ seed_salt;
    for p in PS {
        let n = 64 * p + 13;
        let src = pattern(n, seed);
        let root = p / 3;
        let out = ThreadWorld::run(p, {
            let src = src.clone();
            move |comm| {
                let plan = FaultPlan::new(seed ^ p as u64).with_default(faults);
                let sync = SyncComm::new(comm);
                let faulty = FaultyComm::new(&sync, plan);
                let rel = ReliableComm::with_config(&faulty, quick_retry());
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; n] };
                let healed = complete_now(self_healing_bcast_async(
                    &rel,
                    &mut buf,
                    root,
                    &recovery_cfg(true),
                ))
                .unwrap_or_else(|e| panic!("p={p} rank {}: {e:?}", comm.rank()));
                assert_eq!(buf, src, "p={p} rank {} got a corrupted payload", comm.rank());
                healed
            }
        });
        for h in &out.results {
            assert_eq!(h.survivors, (0..p).collect::<Vec<_>>(), "p={p}: no rank died here");
        }
    }
}

#[test]
fn dropped_messages_are_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 100_000, dup_ppm: 0, delay_ppm: 0 }, 0xD809);
}

#[test]
fn duplicated_messages_are_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 0, dup_ppm: 400_000, delay_ppm: 0 }, 0xD0B1);
}

#[test]
fn mixed_link_chaos_is_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 60_000, dup_ppm: 150_000, delay_ppm: 150_000 }, 0x3417);
}

/// Crash sweep: a planned fail-stop of one non-root rank mid-broadcast at
/// every world size. The victim must learn it is the casualty; every
/// survivor must finish with the payload and the same survivor set.
#[test]
fn one_rank_crash_heals_at_every_world_size() {
    let seed = battery_seed() ^ 0xC8A5;
    for p in PS {
        let n = 48 * p + 7;
        let src = pattern(n, seed);
        let victim = p - 2; // never the root (root is 0 here)
        let out = ThreadWorld::run(p, {
            let src = src.clone();
            move |comm| {
                let plan = FaultPlan::new(seed ^ p as u64).with_crash(victim, 5);
                let sync = SyncComm::new(comm);
                let faulty = FaultyComm::new(&sync, plan);
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
                match complete_now(self_healing_bcast_async(
                    &faulty,
                    &mut buf,
                    0,
                    &recovery_cfg(false),
                )) {
                    Ok(healed) => {
                        assert_eq!(buf, src, "p={p} rank {} corrupted", comm.rank());
                        Some(healed.survivors)
                    }
                    Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
                    Err(e) => panic!("p={p} rank {}: unexpected {e:?}", comm.rank()),
                }
            }
        });
        let expected: Vec<Rank> = (0..p).filter(|&r| r != victim).collect();
        for (rank, res) in out.results.iter().enumerate() {
            if rank == victim {
                assert!(res.is_none(), "p={p}: the victim must see itself fail");
            } else {
                assert_eq!(
                    res.as_deref(),
                    Some(&expected[..]),
                    "p={p} rank {rank}: wrong survivor set"
                );
            }
        }
    }
}

/// The acceptance scenario: P = 8, the same seeded plan crashes one
/// non-root rank mid-ring on *both* executors. Both worlds must converge
/// to the identical 7-rank survivor set with correct payloads.
#[test]
fn p8_crash_replays_identically_on_both_executors() {
    const P: usize = 8;
    const VICTIM: usize = 3;
    let seed = battery_seed() ^ 0xACCE;
    let n = 1024;
    let src = pattern(n, seed);
    // crash after 5 communicator ops: past the scatter recv, inside the ring
    let plan = FaultPlan::new(seed).with_crash(VICTIM, 5);

    fn run<C: Communicator>(comm: &C, src: &[u8], plan: &FaultPlan) -> Option<Vec<Rank>> {
        let sync = SyncComm::new(comm);
        let faulty = FaultyComm::new(&sync, plan.clone());
        let mut buf = if comm.rank() == 0 { src.to_vec() } else { vec![0u8; src.len()] };
        match complete_now(self_healing_bcast_async(&faulty, &mut buf, 0, &recovery_cfg(false))) {
            Ok(healed) => {
                assert_eq!(buf, src, "rank {} corrupted", comm.rank());
                Some(healed.survivors)
            }
            Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
            Err(e) => panic!("rank {}: unexpected {e:?}", comm.rank()),
        }
    }

    let threaded = ThreadWorld::run(P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| run(comm, &src, &plan)
    });

    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // GuardedComm decomposition needs eager sends
    let simulated = SimWorld::run(model, Placement::new(4), P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| run(comm, &src, &plan)
    });

    let expected: Vec<Rank> = (0..P).filter(|&r| r != VICTIM).collect();
    for (label, results) in [("threaded", &threaded.results), ("simulated", &simulated.results)] {
        for (rank, res) in results.iter().enumerate() {
            if rank == VICTIM {
                assert!(res.is_none(), "{label}: victim must see itself fail");
            } else {
                assert_eq!(res.as_deref(), Some(&expected[..]), "{label} rank {rank}");
            }
        }
    }
    // identical failure + recovery outcome on both executors, same seed
    assert_eq!(threaded.results, simulated.results);
}

/// Run one seeded self-healing launch on the event executor: every rank's
/// `EventComm` is wrapped in a `FaultyComm` under the shared plan, the
/// per-rank recovery task from `bcast_core::event_launch` does the rest.
fn event_cascade(
    p: usize,
    nbytes: usize,
    root: Rank,
    algorithm: Algorithm,
    crashes: &[(Rank, u64)],
    cfg: RecoveryConfig,
    seed: u64,
) -> (Vec<RankRun>, WorldTraffic, Duration, Vec<u8>) {
    let src = pattern(nbytes, seed);
    let mut plan = FaultPlan::new(seed);
    for &(v, after) in crashes {
        plan = plan.with_crash(v, after);
    }
    let out = EventWorld::run(p, |comm| {
        let src = src.clone();
        let plan = plan.clone();
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            self_healing_rank_task(&faulty, &src, root, algorithm, &cfg, &RecoveryDrill::NONE).await
        }
    });
    (out.results, out.traffic, out.elapsed, src)
}

/// EventWorld leg of the acceptance scenario, plus the three-way replay:
/// the same seeded crash plan must land on the identical per-rank outcome
/// on the threaded runtime, the latency simulator, and the event executor —
/// the fault clock counts the same operation sequence on all three.
#[test]
fn p8_crash_replays_identically_on_the_event_executor() {
    const P: usize = 8;
    const VICTIM: usize = 3;
    let seed = battery_seed() ^ 0xACCE; // same plan as the two-executor test
    let n = 1024;
    let src = pattern(n, seed);
    let plan = FaultPlan::new(seed).with_crash(VICTIM, 5);

    let threaded = ThreadWorld::run(P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| {
            let sync = SyncComm::new(comm);
            let faulty = FaultyComm::new(&sync, plan.clone());
            let mut buf = if comm.rank() == 0 { src.to_vec() } else { vec![0u8; src.len()] };
            match complete_now(self_healing_bcast_async(&faulty, &mut buf, 0, &recovery_cfg(false)))
            {
                Ok(healed) => {
                    assert_eq!(buf, src, "rank {} corrupted", comm.rank());
                    Some(healed.survivors)
                }
                Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
                Err(e) => panic!("rank {}: unexpected {e:?}", comm.rank()),
            }
        }
    });

    let (event_runs, traffic, elapsed, _) = event_cascade(
        P,
        n,
        0,
        Algorithm::ScatterRingTuned,
        &[(VICTIM, 5)],
        recovery_cfg(false),
        seed,
    );
    let event: Vec<Option<Vec<Rank>>> = event_runs
        .iter()
        .enumerate()
        .map(|(rank, run)| match &run.result {
            Ok(h) => {
                assert_eq!(run.buf, src, "event rank {rank} corrupted");
                Some(h.survivors.clone())
            }
            Err(CommError::PeerFailed { rank: r }) if *r == rank => None,
            Err(e) => panic!("event rank {rank}: unexpected {e:?}"),
        })
        .collect();

    assert_eq!(threaded.results, event, "executors diverged under one seed");

    let spec = RecoverySpec {
        src: &src,
        root: 0,
        cfg: recovery_cfg(false),
        planned_victims: &[VICTIM],
        lossy_links: false,
    };
    check_recovery_outcome(&spec, &event_runs, &traffic, elapsed).unwrap();
}

/// Cascading multi-epoch recovery with a root-succession chain of depth 3:
/// the root and its first two successors die one epoch apart, the payload
/// is re-sourced down the chain `0 → 4 → 5 → 1`, and the survivors converge
/// with byte-identical payloads. Crash thresholds are tuned to the binomial
/// attempt's op counts (see each victim's comment).
#[test]
fn root_succession_chain_depth3_heals_at_p8() {
    let seed = battery_seed() ^ 0x5CC3;
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 12, // ≥ 2·victims + 1 = 7: liveness guaranteed
        bounded_sendrecv: false,
    };
    let crashes = [
        (0usize, 1u64), // root dies after one send: only subtree {4,5,6,7} completes
        (4, 23),        // first successor dies entering epoch 1, before re-sourcing
        (5, 38),        // second successor dies entering epoch 2, before re-sourcing
    ];
    let (results, traffic, elapsed, src) =
        event_cascade(8, 512, 0, Algorithm::Binomial, &crashes, cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[0, 4, 5], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    for (rank, run) in results.iter().enumerate() {
        if [0, 4, 5].contains(&rank) {
            assert!(run.result.is_err(), "victim {rank} must see itself fail");
            assert!(run.trace.saw(branch::SELF_CRASH) || run.trace.branches == 0);
            continue;
        }
        let h = run.result.as_ref().unwrap();
        assert!(h.epochs >= 3, "rank {rank} healed in only {} epochs", h.epochs);
        assert!(
            run.trace.succession_depth >= 3,
            "rank {rank}: chain {:?} too shallow",
            run.trace.root_chain
        );
        assert_eq!(run.trace.root_chain, vec![0, 4, 5, 1], "rank {rank} followed another chain");
        assert!(run.trace.saw(branch::ROOT_SUCCESSION));
        assert!(run.trace.saw(branch::DEATH_OBSERVED));
    }
}

/// Ranks of `index`'s subtree in the fast round's agreement tree over `n`
/// members, `index` included.
fn agreement_subtree(index: usize, n: usize) -> Vec<usize> {
    let mut out = vec![index];
    let mut i = 0;
    while i < out.len() {
        out.extend(agreement_tree(out[i], n).1);
        i += 1;
    }
    out.sort_unstable();
    out
}

/// The orphan hazard of the fast round: an interior tree node crashes
/// right after sending its reduce frame up, before forwarding the verdict.
/// Everyone outside its subtree commits in epoch 1; the orphaned subtree
/// misses the verdict, falls back, counts the committers (who have
/// returned) dead, and must heal exactly one epoch later — never in the
/// fallback epoch, where excluding the same-epoch committers would be a
/// split-brain.
fn orphaned_subtree_heals_one_epoch_late(p: usize, victim: Rank) {
    let seed = battery_seed() ^ 0x0E9A ^ p as u64;
    let cfg = recovery_cfg(false);
    let nbytes = 8 * p + 5;
    let (parent, children) = agreement_tree(victim, p);
    assert!(parent.is_some() && !children.is_empty(), "rank {victim} must be interior");

    // The victim's fault-free operation count, minus its verdict receive
    // and its verdict forwards, is the count at which its reduce send has
    // just completed.
    let clean = EventWorld::run(p, |comm| async move {
        let faulty = FaultyComm::new(&comm, FaultPlan::new(seed));
        let src = pattern(nbytes, seed);
        let algorithm = Algorithm::ScatterRingTuned;
        let drill = RecoveryDrill::NONE;
        let run = self_healing_rank_task(&faulty, &src, 0, algorithm, &cfg, &drill).await;
        assert_eq!(run.result.map(|h| h.epochs), Ok(1));
        faulty.ops()
    });
    let after_reduce_send = clean.results[victim] - 1 - children.len() as u64;

    let (results, traffic, elapsed, src) = event_cascade(
        p,
        nbytes,
        0,
        Algorithm::ScatterRingTuned,
        &[(victim, after_reduce_send)],
        cfg,
        seed,
    );
    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[victim], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    let subtree = agreement_subtree(victim, p);
    let orphans: Vec<Rank> = subtree.iter().copied().filter(|&r| r != victim).collect();
    for (rank, run) in results.iter().enumerate() {
        if rank == victim {
            assert_eq!(run.result, Err(CommError::PeerFailed { rank }), "P={p}: victim");
            assert!(run.trace.saw(branch::SELF_CRASH));
            continue;
        }
        let h = run.result.as_ref().unwrap_or_else(|e| panic!("P={p} rank {rank}: {e:?}"));
        if subtree.contains(&rank) {
            assert_eq!(h.epochs, 2, "P={p}: orphan {rank} must heal one epoch after the commit");
            assert_eq!(h.survivors, orphans, "P={p}: orphan {rank}");
            assert!(run.trace.saw(branch::HEALED_SURVIVORS), "P={p}: orphan {rank}");
        } else {
            assert_eq!(h.epochs, 1, "P={p}: committer {rank}");
            assert_eq!(h.survivors, (0..p).collect::<Vec<_>>(), "P={p}: committer {rank}");
            assert!(run.trace.saw(branch::HEALED_ALL), "P={p}: committer {rank}");
        }
    }
}

#[test]
fn orphaned_subtree_heals_one_epoch_after_the_committers_p8() {
    orphaned_subtree_heals_one_epoch_late(8, 4);
}

#[test]
fn orphaned_subtree_heals_one_epoch_after_the_committers_p512() {
    orphaned_subtree_heals_one_epoch_late(512, 256);
}

/// The megascale acceptance run: P ∈ {256, 1024, 4096} on the event
/// executor's virtual clock, three non-root ranks crashing one epoch apart
/// (thresholds staggered by ~one epoch's worth of operations, ≈ 4·P per
/// rank). Survivors must converge with ≥ 3 cascading epochs, byte-identical
/// payloads, reconciled traffic, and a bounded virtual recovery time.
fn megascale_cascade(p: usize) {
    let seed = battery_seed() ^ 0x3CA1E ^ p as u64;
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 8, // ≥ 2·victims + 1 = 7: liveness guaranteed
        bounded_sendrecv: false,
    };
    let per_epoch = 4 * p as u64;
    let victims = [p - 2, p / 2, p / 3 + 1];
    let crashes = [(victims[0], 5), (victims[1], per_epoch + 5), (victims[2], 2 * per_epoch + 5)];
    let (results, traffic, elapsed, src) =
        event_cascade(p, 8 * p, 0, Algorithm::ScatterRingTuned, &crashes, cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &victims, lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    let mut max_epochs_seen = 0;
    let mut healed = 0;
    for run in &results {
        if let Ok(h) = &run.result {
            healed += 1;
            max_epochs_seen = max_epochs_seen.max(h.epochs);
        }
    }
    assert!(healed >= p - victims.len(), "only {healed} of {p} ranks healed");
    assert!(
        max_epochs_seen >= 3,
        "P={p}: expected a ≥3-epoch cascade, saw at most {max_epochs_seen}"
    );
}

#[test]
fn megascale_cascade_p256() {
    megascale_cascade(256);
}

#[test]
#[ignore = "release-mode CI phase: debug builds are too slow at P >= 1024"]
fn megascale_cascade_p1024() {
    megascale_cascade(1024);
}

#[test]
#[ignore = "release-mode CI phase: debug builds are too slow at P >= 1024"]
fn megascale_cascade_p4096() {
    megascale_cascade(4096);
}
