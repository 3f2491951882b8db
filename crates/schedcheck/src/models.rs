//! Interleaving models of the runtime's sync-layer protocols.
//!
//! Each model drives the *deployed* decision functions from [`mpsim::proto`]
//! at its decision points, so exploring the model exercises the very
//! predicates compiled into the runtime:
//!
//! * [`FastMutexModel`] — the `fast-sync` spin-then-park mutex: word-sized
//!   state machine (`UNLOCKED`/`LOCKED`/`CONTENDED`), a LIFO parked-waiter
//!   registry, park/unpark with token semantics, and the post-registration
//!   recheck that closes the register/release race. Bounded spinning is
//!   elided (a spin retry revisits the same decision the model already
//!   branches on); the `skip_recheck` knob removes the recheck to prove the
//!   explorer catches the lost-wakeup deadlock the recheck exists for.
//! * [`CondvarModel`] — producer/consumer rendezvous over the fast-sync
//!   condvar protocol: register-before-release waiters, flag-based wakeup.
//! * [`MailboxModel`] — the sharded-mailbox push/notify-skip protocol:
//!   receivers count themselves in `waiters` under the slot lock before
//!   sleeping, senders consult [`mpsim::proto::push_should_notify`] to skip
//!   the wakeup syscall on uncontended pushes. The `broken_skip` knob makes
//!   the sender require *two* waiters, reintroducing the lost wakeup the
//!   under-lock counting prevents.
//!
//! The second group models the megascale event reactor (`mpsim::event_*`),
//! one model per protocol the reactor's hot path leans on:
//!
//! * [`RunQueueModel`] — the `Cell`-dedup run queue plus targeted exit
//!   wakes, driving [`mpsim::proto::wake_should_enqueue`] and
//!   [`mpsim::proto::exit_wakes_watch`]. Its `clear_after_poll` knob moves
//!   the dedup-flag clear from pop time to after the poll (losing
//!   budget-exhausted self-requeues) and `skip_exit_wake` drops the exit
//!   notification to a parked watcher; both deadlock under the explorer.
//! * [`ExternalWakerModel`] — the mutex-protected side queue `Waker`s push
//!   into, drained once per reactor idle transition. Knobs: `skip_drain`
//!   parks without consulting the side queue, `drop_drained` empties it
//!   without scheduling — both are the dropped-wake bugs the drain loop
//!   exists to prevent.
//! * [`LaneMailboxModel`] — the inline-bucket/spill routing of
//!   [`mpsim::LaneMailbox`], driving [`mpsim::event_mailbox::bucket_route`]
//!   over a scripted wild-tag workload. Proves the spill counter accounts
//!   for exactly the envelopes routed past the inline buckets and that no
//!   envelope is lost across the inline/spill boundary; knobs `drop_wild`
//!   (lose spilled envelopes) and `skip_spill_count` (mute the counter) are
//!   caught as a deadlock / rejected terminal respectively.
//! * [`TimerWheelModel`] — arm/fire/cancel over a recycled timer slab with
//!   generation-counted handles, driving
//!   [`mpsim::event_timer::handle_is_live`] and asserting
//!   [`mpsim::TimerWheel::place`]'s slot-distance precondition in every
//!   reachable state. Its `no_generation` knob matches handles on slab
//!   index alone, letting a stale cancel kill a recycled entry — the
//!   deadlock generation counting exists to prevent.
//!
//! The last model checks the self-healing broadcast's agreement protocol
//! (`bcast_core::recovery`):
//!
//! * [`AgreementModel`] — the fast round (AND-reduce and verdict over the
//!   deployed [`agreement_tree`], folded by the deployed [`fold_frame`])
//!   with the pairwise fallback and the deployed [`fallback_decision`],
//!   over 3–5 ranks with one crash at any step and the reliable timeout
//!   oracle. Proves every live rank heals within budget and no survivor
//!   set excludes a rank that heals in the same or a later epoch; its
//!   `heal_in_fallback` knob lets a fallback rank heal at once, and the
//!   orphaned subtree of a crashed interior node then excludes the
//!   same-epoch committers — caught as a split-brain.

use std::collections::BTreeMap;

use bcast_core::recovery::{agreement_tree, fallback_decision, fold_frame, Fallback};
use mpsim::event_mailbox::{bucket_route, BucketRoute};
use mpsim::proto::{
    exit_wakes_watch, push_should_notify, release_needs_wake, slow_path_acquired,
    wake_should_enqueue, CONTENDED, LOCKED, UNLOCKED, WATCH_NONE,
};
use mpsim::TimerWheel;

use crate::explore::{Model, Step};

// ---------------------------------------------------------------------------
// Fast-sync mutex
// ---------------------------------------------------------------------------

/// Per-thread location in the mutex protocol.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum MLoc {
    /// Before a lock attempt (or between critical sections).
    Idle,
    /// In the slow path, about to `swap(CONTENDED)`.
    SlowSwap,
    /// About to push itself onto the parked registry.
    Register,
    /// Registered; about to re-`swap(CONTENDED)` (the race-closing recheck).
    Recheck,
    /// About to park: consumes a pending token or blocks.
    Park,
    /// Inside the critical section.
    Critical,
}

/// State of [`FastMutexModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct MutexState {
    /// The lock word (`UNLOCKED`/`LOCKED`/`CONTENDED`).
    word: u32,
    /// Parked-waiter registry; `unlock` pops the most recent (LIFO `Vec`).
    registry: Vec<u8>,
    /// Per-thread unpark token (set by `unpark`, consumed by `park`).
    token: Vec<bool>,
    /// Per-thread program location.
    loc: Vec<MLoc>,
    /// Critical sections left per thread.
    remaining: Vec<u8>,
}

/// Exhaustive model of the `fast-sync` mutex acquire/release protocol.
pub struct FastMutexModel {
    /// Thread count.
    pub threads: usize,
    /// Lock/unlock cycles per thread.
    pub sections: u8,
    /// Mutation: skip the post-registration recheck. The protocol then has
    /// a reachable lost-wakeup deadlock which [`crate::explore::explore`]
    /// must find (negative test).
    pub skip_recheck: bool,
    /// Model the deployed `park_timeout` instead of a bare `park`. The
    /// timeout is modeled as firing only once the system is otherwise
    /// quiesced (every other live thread parked without a token): earlier
    /// firings just re-run acquire transitions already explored from other
    /// states, and modeling them would make the registry — and hence the
    /// state space — unbounded through retry loops. With a bare `park`
    /// (`false`), three threads have a reachable lost wakeup: an unlock can
    /// pop a *stale* LIFO registry entry (left behind by a recheck-acquire)
    /// and deliver the token to a thread that already finished, stranding
    /// the genuinely parked one. The explorer found that window; this knob
    /// verifies the deployed rescue closes it.
    pub park_timeout: bool,
}

impl FastMutexModel {
    /// Whether every live thread other than `tid` is parked without a
    /// pending token — the condition under which a real `park_timeout`
    /// firing is the only source of progress.
    fn quiesced_except(&self, s: &MutexState, tid: usize) -> bool {
        (0..self.threads).all(|t| {
            t == tid
                || (s.remaining[t] == 0 && s.loc[t] == MLoc::Idle)
                || (s.loc[t] == MLoc::Park && !s.token[t])
        })
    }
}

impl Model for FastMutexModel {
    type State = MutexState;

    fn initial(&self) -> MutexState {
        MutexState {
            word: UNLOCKED,
            registry: Vec::new(),
            token: vec![false; self.threads],
            loc: vec![MLoc::Idle; self.threads],
            remaining: vec![self.sections; self.threads],
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn is_done(&self, s: &MutexState, tid: usize) -> bool {
        s.remaining[tid] == 0 && s.loc[tid] == MLoc::Idle
    }

    fn step(&self, s: &MutexState, tid: usize) -> Step<MutexState> {
        let mut n = s.clone();
        match s.loc[tid] {
            MLoc::Idle => {
                // Fast path: CAS(UNLOCKED -> LOCKED); on failure enter the
                // slow path (the bounded spin retries this same branch).
                if s.word == UNLOCKED {
                    n.word = LOCKED;
                    n.loc[tid] = MLoc::Critical;
                } else {
                    n.loc[tid] = MLoc::SlowSwap;
                }
            }
            MLoc::SlowSwap => {
                let prev = s.word;
                n.word = CONTENDED;
                n.loc[tid] = if slow_path_acquired(prev) { MLoc::Critical } else { MLoc::Register };
            }
            MLoc::Register => {
                n.registry.push(tid as u8);
                n.loc[tid] = if self.skip_recheck { MLoc::Park } else { MLoc::Recheck };
            }
            MLoc::Recheck => {
                // Same swap as SlowSwap; acquiring here leaves our stale
                // registry entry behind (the real code does too — a later
                // pop yields a spurious unpark, which park loops tolerate).
                let prev = s.word;
                n.word = CONTENDED;
                n.loc[tid] = if slow_path_acquired(prev) { MLoc::Critical } else { MLoc::Park };
            }
            MLoc::Park => {
                // park() with token semantics: a pending unpark token makes
                // park return immediately; otherwise the thread blocks here
                // until some unlock unparks it — or, in the deployed lock,
                // until park_timeout fires (rescue-only, see `park_timeout`).
                if s.token[tid] {
                    n.token[tid] = false;
                    n.loc[tid] = MLoc::SlowSwap;
                } else if self.park_timeout && self.quiesced_except(s, tid) {
                    n.loc[tid] = MLoc::SlowSwap;
                } else {
                    return Step::Blocked;
                }
            }
            MLoc::Critical => {
                // unlock(): swap(UNLOCKED), wake one parked waiter only if
                // contention was observed.
                let prev = s.word;
                n.word = UNLOCKED;
                if release_needs_wake(prev) {
                    if let Some(t) = n.registry.pop() {
                        n.token[t as usize] = true;
                    }
                }
                n.remaining[tid] -= 1;
                n.loc[tid] = MLoc::Idle;
            }
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &MutexState) -> Result<(), String> {
        let holders = s.loc.iter().filter(|&&l| l == MLoc::Critical).count();
        if holders > 1 {
            return Err(format!(
                "mutual exclusion violated: {holders} threads in the critical section"
            ));
        }
        if holders == 1 && s.word == UNLOCKED {
            return Err("critical section entered while the lock word is UNLOCKED".into());
        }
        Ok(())
    }

    fn accept(&self, s: &MutexState) -> Result<(), String> {
        if s.word != UNLOCKED {
            return Err(format!("lock word {} left at termination", s.word));
        }
        // Stale registry entries are legal (recheck-acquire leaves them; the
        // matching unpark is spurious), but leftover *tokens* on undone work
        // are not possible here since all threads completed their sections.
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fast-sync condvar (producer/consumer)
// ---------------------------------------------------------------------------

/// Per-thread location in the condvar model. The first `consumers` threads
/// consume one item each; the last thread produces all items.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum CLoc {
    /// Acquiring the (abstract, one-step) slot mutex.
    Lock,
    /// Holding the mutex, checking the predicate.
    Check,
    /// Registered; about to release the mutex (register-before-release).
    Unlock,
    /// Waiting for its notify flag.
    WaitFlag,
    /// Producer: holding the mutex, about to increment and release.
    Produce,
    /// Producer: about to `notify_one`.
    Notify,
    /// Finished.
    Done,
}

/// State of [`CondvarModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct CondvarState {
    /// Abstract mutex: holder tid or `None` (acquire/release are single
    /// atomic steps; the mutex internals are checked by [`FastMutexModel`]).
    holder: Option<u8>,
    /// Items available (the predicate).
    items: u8,
    /// Condvar waiter registry (LIFO, like the `SpinList` `Vec::pop`).
    waiters: Vec<u8>,
    /// Per-thread notified flag.
    flag: Vec<bool>,
    /// Per-thread location.
    loc: Vec<CLoc>,
    /// Items the producer still has to produce.
    to_produce: u8,
}

/// Producer/consumer rendezvous over the fast-sync condvar protocol:
/// `consumers` threads each take one item, one producer produces that many,
/// notifying once per item.
pub struct CondvarModel {
    /// Number of consumer threads (the producer is thread `consumers`).
    pub consumers: usize,
}

impl CondvarModel {
    fn producer(&self) -> usize {
        self.consumers
    }
}

impl Model for CondvarModel {
    type State = CondvarState;

    fn initial(&self) -> CondvarState {
        let n = self.consumers + 1;
        let mut loc = vec![CLoc::Lock; n];
        loc[self.producer()] = CLoc::Lock;
        CondvarState {
            holder: None,
            items: 0,
            waiters: Vec::new(),
            flag: vec![false; n],
            loc,
            to_produce: self.consumers as u8,
        }
    }

    fn threads(&self) -> usize {
        self.consumers + 1
    }

    fn is_done(&self, s: &CondvarState, tid: usize) -> bool {
        s.loc[tid] == CLoc::Done
    }

    fn step(&self, s: &CondvarState, tid: usize) -> Step<CondvarState> {
        let mut n = s.clone();
        let producer = self.producer();
        match s.loc[tid] {
            CLoc::Lock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                n.loc[tid] = if tid == producer { CLoc::Produce } else { CLoc::Check };
            }
            CLoc::Check => {
                if s.items > 0 {
                    n.items -= 1;
                    n.holder = None;
                    n.loc[tid] = CLoc::Done;
                } else {
                    // wait(): register while still holding the lock…
                    n.waiters.push(tid as u8);
                    n.flag[tid] = false;
                    n.loc[tid] = CLoc::Unlock;
                }
            }
            CLoc::Unlock => {
                // …then release and sleep on the flag.
                n.holder = None;
                n.loc[tid] = CLoc::WaitFlag;
            }
            CLoc::WaitFlag => {
                if !s.flag[tid] {
                    return Step::Blocked;
                }
                n.loc[tid] = CLoc::Lock;
            }
            CLoc::Produce => {
                n.items += 1;
                n.to_produce -= 1;
                n.holder = None;
                n.loc[tid] = CLoc::Notify;
            }
            CLoc::Notify => {
                // notify_one(): pop one registered waiter, set its flag.
                if let Some(w) = n.waiters.pop() {
                    n.flag[w as usize] = true;
                }
                n.loc[tid] = if s.to_produce == 0 { CLoc::Done } else { CLoc::Lock };
            }
            CLoc::Done => unreachable!("done threads are never stepped"),
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &CondvarState) -> Result<(), String> {
        if s.items as usize > self.consumers {
            return Err(format!("overproduced: {} items", s.items));
        }
        Ok(())
    }

    fn accept(&self, s: &CondvarState) -> Result<(), String> {
        if s.items != 0 {
            return Err(format!("{} items never consumed", s.items));
        }
        if s.holder.is_some() {
            return Err("mutex still held at termination".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Mailbox push / notify-skip
// ---------------------------------------------------------------------------

/// Per-thread location in the mailbox model. Threads `0..senders` push one
/// message each; thread `senders` is the receiving rank popping `senders`
/// messages.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum BLoc {
    /// Acquiring the slot lock.
    Lock,
    /// Sender: holding the lock, about to push + read `waiters`.
    Push,
    /// Sender: released the lock, about to notify (wake decision made).
    MaybeNotify,
    /// Receiver: holding the lock, checking the queue.
    CheckQueue,
    /// Receiver: counted in `waiters`, registered; about to release.
    Unlock,
    /// Receiver: sleeping on its flag.
    WaitFlag,
    /// Receiver: woke up; reacquiring the lock to decrement `waiters`.
    Relock,
    /// Finished.
    Done,
}

/// State of [`MailboxModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct MailboxState {
    /// Abstract slot lock: holder tid or `None`.
    holder: Option<u8>,
    /// Queued messages in the slot.
    queue: u8,
    /// Receivers counted as blocked (the notify-skip predicate's input).
    waiters: u8,
    /// Condvar registry (receiver tids).
    registered: Vec<u8>,
    /// Per-thread notified flag.
    flag: Vec<bool>,
    /// Sender's wake decision, made under the lock, applied after release.
    wake: Vec<bool>,
    /// Per-thread location.
    loc: Vec<BLoc>,
    /// Messages the receiver still has to pop.
    to_pop: u8,
}

/// The sharded-mailbox push/notify-skip protocol: `senders` one-shot pushers
/// against one receiver popping `senders` messages from the same slot.
pub struct MailboxModel {
    /// Number of sender threads (the receiver is thread `senders`).
    pub senders: usize,
    /// Mutation: the sender skips the notify unless *two* waiters are
    /// counted — reintroducing the lost wakeup that counting `waiters`
    /// under the slot lock prevents. The explorer must find the deadlock.
    pub broken_skip: bool,
}

impl MailboxModel {
    fn receiver(&self) -> usize {
        self.senders
    }
}

impl Model for MailboxModel {
    type State = MailboxState;

    fn initial(&self) -> MailboxState {
        let n = self.senders + 1;
        MailboxState {
            holder: None,
            queue: 0,
            waiters: 0,
            registered: Vec::new(),
            flag: vec![false; n],
            wake: vec![false; n],
            loc: vec![BLoc::Lock; n],
            to_pop: self.senders as u8,
        }
    }

    fn threads(&self) -> usize {
        self.senders + 1
    }

    fn is_done(&self, s: &MailboxState, tid: usize) -> bool {
        s.loc[tid] == BLoc::Done
    }

    fn step(&self, s: &MailboxState, tid: usize) -> Step<MailboxState> {
        let mut n = s.clone();
        let receiver = self.receiver();
        match s.loc[tid] {
            BLoc::Lock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                n.loc[tid] = if tid == receiver { BLoc::CheckQueue } else { BLoc::Push };
            }
            BLoc::Push => {
                // push(): enqueue, then read the waiter count under the lock
                // — the decision the runtime delegates to proto::push_should_notify.
                n.queue += 1;
                n.wake[tid] = if self.broken_skip {
                    s.waiters > 1
                } else {
                    push_should_notify(s.waiters as usize)
                };
                n.holder = None;
                n.loc[tid] = BLoc::MaybeNotify;
            }
            BLoc::MaybeNotify => {
                // notify_all() after releasing the lock, only if the
                // under-lock read said someone was blocked.
                if s.wake[tid] {
                    for w in n.registered.drain(..) {
                        n.flag[w as usize] = true;
                    }
                }
                n.loc[tid] = BLoc::Done;
            }
            BLoc::CheckQueue => {
                if s.queue > 0 {
                    n.queue -= 1;
                    n.to_pop -= 1;
                    n.holder = None;
                    n.loc[tid] = if n.to_pop == 0 { BLoc::Done } else { BLoc::Lock };
                } else {
                    // pop_blocking(): count ourselves, register, and only
                    // then release — all under the slot lock.
                    n.waiters += 1;
                    n.registered.push(tid as u8);
                    n.flag[tid] = false;
                    n.loc[tid] = BLoc::Unlock;
                }
            }
            BLoc::Unlock => {
                n.holder = None;
                n.loc[tid] = BLoc::WaitFlag;
            }
            BLoc::WaitFlag => {
                if !s.flag[tid] {
                    return Step::Blocked;
                }
                n.loc[tid] = BLoc::Relock;
            }
            BLoc::Relock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                n.waiters -= 1;
                n.loc[tid] = BLoc::CheckQueue;
            }
            BLoc::Done => unreachable!("done threads are never stepped"),
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &MailboxState) -> Result<(), String> {
        if s.queue as usize > self.senders {
            return Err(format!("queue overflow: {}", s.queue));
        }
        if s.waiters > 1 {
            return Err(format!("waiter count {} with a single receiver", s.waiters));
        }
        Ok(())
    }

    fn accept(&self, s: &MailboxState) -> Result<(), String> {
        if s.queue != 0 {
            return Err(format!("{} messages left undelivered", s.queue));
        }
        if s.waiters != 0 {
            return Err(format!("waiter count {} at termination", s.waiters));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: run queue dedup + targeted exit wakes
// ---------------------------------------------------------------------------

/// State of [`RunQueueModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct RunQueueState {
    /// The receiver task's dedup flag ≡ run-queue membership (the queue
    /// only ever holds this one task).
    queued: bool,
    /// Delivered, unconsumed messages in the receiver's mailbox.
    msgs: u8,
    /// Messages the receiver has consumed.
    consumed: u8,
    /// The receiver's targeted-wake registration (`WATCH_NONE` or the
    /// crasher's rank).
    watching: usize,
    /// Whether the crasher rank has exited.
    crasher_exited: bool,
    /// Receiver ran to completion.
    r_done: bool,
    /// Per-sender completion.
    sender_done: Vec<bool>,
    /// Crasher thread completion.
    crasher_done: bool,
}

/// The event reactor's run-queue protocol: `senders` threads deliver one
/// message each to a single receiver task (mailbox push + dedup-flagged
/// wake), a reactor thread pops and polls it with a 1-message poll budget
/// (so a poll with backlog must self-requeue), and optionally a crasher
/// rank exits that the receiver — once its messages are in — parks a
/// targeted watch on. Wake decisions are the deployed
/// [`mpsim::proto::wake_should_enqueue`] / [`mpsim::proto::exit_wakes_watch`].
pub struct RunQueueModel {
    /// Message-delivering threads.
    pub senders: usize,
    /// Add a crasher rank the receiver must observe exiting (via a
    /// targeted watch) after consuming all messages.
    pub crasher: bool,
    /// Mutation: clear the dedup flag after the poll returns instead of at
    /// pop time. A budget-exhausted self-requeue during the poll then sees
    /// the flag still set, is deduplicated away, and the clear erases the
    /// task's last wake — the reactor idles over a non-empty mailbox.
    pub clear_after_poll: bool,
    /// Mutation: `rank_exited` skips waking watchers — a receiver parked on
    /// the crasher waits forever.
    pub skip_exit_wake: bool,
}

impl RunQueueModel {
    /// Thread id of the crasher (when enabled); doubles as its rank.
    fn crasher_tid(&self) -> usize {
        self.senders
    }
}

impl Model for RunQueueModel {
    type State = RunQueueState;

    fn initial(&self) -> RunQueueState {
        RunQueueState {
            // The reactor seeds every task into the run queue at startup.
            queued: true,
            msgs: 0,
            consumed: 0,
            watching: WATCH_NONE,
            crasher_exited: false,
            r_done: false,
            sender_done: vec![false; self.senders],
            crasher_done: !self.crasher,
        }
    }

    fn threads(&self) -> usize {
        self.senders + usize::from(self.crasher) + 1
    }

    fn is_done(&self, s: &RunQueueState, tid: usize) -> bool {
        if tid < self.senders {
            s.sender_done[tid]
        } else if self.crasher && tid == self.crasher_tid() {
            s.crasher_done
        } else {
            s.r_done
        }
    }

    fn step(&self, s: &RunQueueState, tid: usize) -> Step<RunQueueState> {
        let mut n = s.clone();
        if tid < self.senders {
            // push_envelope: mailbox push, then a dedup-flagged direct wake.
            n.msgs += 1;
            if wake_should_enqueue(s.queued) {
                n.queued = true;
            }
            n.sender_done[tid] = true;
            return Step::Next(n);
        }
        if self.crasher && tid == self.crasher_tid() {
            // rank_exited: record the exit, wake tasks watching this rank.
            n.crasher_exited = true;
            n.crasher_done = true;
            if !self.skip_exit_wake
                && exit_wakes_watch(s.watching, self.crasher_tid())
                && wake_should_enqueue(s.queued)
            {
                n.queued = true;
            }
            return Step::Next(n);
        }
        // Reactor turn: pop + poll, one atomic transition (the reactor is
        // single-threaded; wakes racing a poll come from other transitions).
        if !s.queued {
            return Step::Blocked;
        }
        n.queued = false; // deployed behavior: flag cleared at pop
        if s.msgs > 0 {
            n.msgs -= 1;
            n.consumed += 1;
        }
        if n.consumed as usize == self.senders && (!self.crasher || s.crasher_exited) {
            n.r_done = true;
        } else if n.msgs > 0 {
            // Poll budget exhausted with backlog: self-requeue through the
            // same wake path. Under the mutation the flag is still set here
            // (cleared only after the poll), so the wake deduplicates away.
            let flag_seen = self.clear_after_poll;
            if wake_should_enqueue(flag_seen) {
                n.queued = true;
            }
        } else if n.consumed as usize == self.senders && self.crasher && !s.crasher_exited {
            // All messages in; park a targeted watch on the crasher.
            n.watching = self.crasher_tid();
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &RunQueueState) -> Result<(), String> {
        let pushed = s.sender_done.iter().filter(|d| **d).count();
        if s.msgs as usize + s.consumed as usize != pushed {
            return Err(format!(
                "message conservation broken: {} pending + {} consumed != {pushed} pushed",
                s.msgs, s.consumed
            ));
        }
        Ok(())
    }

    fn accept(&self, s: &RunQueueState) -> Result<(), String> {
        if s.msgs != 0 {
            return Err(format!("{} messages left undelivered", s.msgs));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: external-waker side queue
// ---------------------------------------------------------------------------

/// State of [`ExternalWakerModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct ExternalWakerState {
    /// Entries in the mutex-protected side queue (all for the one task).
    side: u8,
    /// The task's dedup flag ≡ run-queue membership.
    queued: bool,
    /// Wake-work units published (one per waker thread).
    work: u8,
    /// Work units the task has observed.
    consumed: u8,
    /// Task ran to completion.
    r_done: bool,
    /// Per-waker completion.
    waker_done: Vec<bool>,
}

/// The reactor's external-wake protocol: `Waker`s invoked off the reactor
/// thread append to a mutexed side queue; the reactor, finding its run
/// queue empty, drains the side queue through the dedup-flagged
/// [`mpsim::proto::wake_should_enqueue`] push before it may park. The model
/// proves no wake is dropped between a drain and the idle declaration: the
/// park condition (run queue empty ∧ side queue empty) is re-evaluated
/// against every interleaved external push.
pub struct ExternalWakerModel {
    /// External waker threads, each publishing one work unit + one wake.
    pub wakes: usize,
    /// Mutation: park without consulting the side queue.
    pub skip_drain: bool,
    /// Mutation: drain the side queue but discard the entries instead of
    /// scheduling them.
    pub drop_drained: bool,
}

impl Model for ExternalWakerModel {
    type State = ExternalWakerState;

    fn initial(&self) -> ExternalWakerState {
        ExternalWakerState {
            side: 0,
            queued: true, // startup seed, as in the reactor
            work: 0,
            consumed: 0,
            r_done: false,
            waker_done: vec![false; self.wakes],
        }
    }

    fn threads(&self) -> usize {
        self.wakes + 1
    }

    fn is_done(&self, s: &ExternalWakerState, tid: usize) -> bool {
        if tid < self.wakes {
            s.waker_done[tid]
        } else {
            s.r_done
        }
    }

    fn step(&self, s: &ExternalWakerState, tid: usize) -> Step<ExternalWakerState> {
        let mut n = s.clone();
        if tid < self.wakes {
            // TaskWaker::wake — publish work, then push onto the side
            // queue (never the run queue: wakers run off-thread).
            n.work += 1;
            n.side += 1;
            n.waker_done[tid] = true;
            return Step::Next(n);
        }
        // Reactor turn.
        if s.queued {
            // Poll: consume all published work this turn.
            n.queued = false;
            n.consumed += s.work;
            n.work = 0;
            if n.consumed as usize >= self.wakes {
                n.r_done = true;
            }
            return Step::Next(n);
        }
        if s.side > 0 && !self.skip_drain {
            // drain_external: move every side entry through the dedup push.
            for _ in 0..s.side {
                if !self.drop_drained && wake_should_enqueue(n.queued) {
                    n.queued = true;
                }
            }
            n.side = 0;
            return Step::Next(n);
        }
        // Run queue empty, side queue empty (or unread, under the
        // mutations): the reactor parks. A later external push re-enables
        // the drain transition — unless the mutation never looks.
        Step::Blocked
    }

    fn invariant(&self, s: &ExternalWakerState) -> Result<(), String> {
        if s.consumed as usize > self.wakes {
            return Err(format!("consumed {} of {} wakes", s.consumed, self.wakes));
        }
        Ok(())
    }

    fn accept(&self, s: &ExternalWakerState) -> Result<(), String> {
        // Side entries may outlive the task (a wake for a completed task is
        // drained and skipped in the reactor), but work must not.
        if s.work != 0 {
            return Err(format!("{} published wakes never observed", s.work));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: lane-mailbox inline/spill routing
// ---------------------------------------------------------------------------

/// Scripted push tags for [`LaneMailboxModel`]: four distinct tags claim
/// every inline bucket, then a repeated wild tag and a fresh one exercise
/// the spill map (payload = push index).
const LANE_PUSH_TAGS: [u32; 7] = [0, 1, 2, 3, 9, 9, 5];
/// Scripted pop order, by push index: interleaves inline and spill lookups
/// and keeps per-tag FIFO (push 4 before push 5, both tag 9).
const LANE_POP_ORDER: [usize; 7] = [4, 0, 6, 1, 5, 2, 3];
/// Pushes the script routes to the spill map (indices 4, 5, 6).
const LANE_EXPECTED_SPILLS: u8 = 3;

/// State of [`LaneMailboxModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct LaneMailboxState {
    /// Inline buckets in claim order: `(tag, queued payloads)`. Buckets
    /// fill in first-seen-tag order and never free, as in the real lane.
    inline: Vec<(u32, Vec<u8>)>,
    /// Spill map in insertion order: `(tag, queued payloads)`.
    spill: Vec<(u32, Vec<u8>)>,
    /// Envelopes routed to the spill map (the `mailbox_spills` counter).
    spills: u8,
    /// Next push script index.
    s_idx: u8,
    /// Next pop script index.
    r_idx: u8,
    /// A pop returned the wrong payload (FIFO or routing violation).
    mismatch: bool,
}

/// The [`mpsim::LaneMailbox`] inline-bucket/spill protocol: a sender pushes
/// the scripted wild-tag workload while a receiver pops it back in an
/// interleaved order, every routing decision made by the deployed
/// [`mpsim::event_mailbox::bucket_route`]. Explores all push/pop
/// interleavings and proves per-tag FIFO across the inline/spill boundary
/// plus exact spill accounting.
pub struct LaneMailboxModel {
    /// Mutation: spill-routed envelopes are dropped instead of stored — the
    /// receiver waits for them forever.
    pub drop_wild: bool,
    /// Mutation: spill-routed envelopes skip the spill counter — the
    /// terminal state under-reports and is rejected.
    pub skip_spill_count: bool,
}

impl Model for LaneMailboxModel {
    type State = LaneMailboxState;

    fn initial(&self) -> LaneMailboxState {
        LaneMailboxState {
            inline: Vec::new(),
            spill: Vec::new(),
            spills: 0,
            s_idx: 0,
            r_idx: 0,
            mismatch: false,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn is_done(&self, s: &LaneMailboxState, tid: usize) -> bool {
        if tid == 0 {
            s.s_idx as usize == LANE_PUSH_TAGS.len()
        } else {
            s.r_idx as usize == LANE_POP_ORDER.len()
        }
    }

    fn step(&self, s: &LaneMailboxState, tid: usize) -> Step<LaneMailboxState> {
        let mut n = s.clone();
        let tags: Vec<u32> = s.inline.iter().map(|(t, _)| *t).collect();
        if tid == 0 {
            // LaneMailbox::push with the deployed routing decision.
            let tag = LANE_PUSH_TAGS[s.s_idx as usize];
            let payload = s.s_idx;
            match bucket_route(&tags, tag) {
                BucketRoute::Existing(i) => n.inline[i].1.push(payload),
                BucketRoute::NewInline => n.inline.push((tag, vec![payload])),
                BucketRoute::Spill => {
                    if !self.skip_spill_count {
                        n.spills += 1;
                    }
                    if !self.drop_wild {
                        match n.spill.iter_mut().find(|(t, _)| *t == tag) {
                            Some((_, q)) => q.push(payload),
                            None => n.spill.push((tag, vec![payload])),
                        }
                    }
                }
            }
            n.s_idx += 1;
            return Step::Next(n);
        }
        // LaneMailbox::pop, blocking until the expected envelope arrives.
        let want = LANE_POP_ORDER[s.r_idx as usize];
        let tag = LANE_PUSH_TAGS[want];
        let got = match bucket_route(&tags, tag) {
            BucketRoute::Existing(i) => {
                if n.inline[i].1.is_empty() {
                    None
                } else {
                    Some(n.inline[i].1.remove(0))
                }
            }
            // A pop routed NewInline finds nothing inline; only the spill
            // map could hold the tag — mirroring the real pop's fallthrough.
            BucketRoute::NewInline | BucketRoute::Spill => n
                .spill
                .iter_mut()
                .find(|(t, q)| *t == tag && !q.is_empty())
                .map(|(_, q)| q.remove(0)),
        };
        match got {
            None => Step::Blocked,
            Some(payload) => {
                if payload as usize != want {
                    n.mismatch = true;
                }
                n.r_idx += 1;
                Step::Next(n)
            }
        }
    }

    fn invariant(&self, s: &LaneMailboxState) -> Result<(), String> {
        if s.mismatch {
            return Err("pop returned an out-of-order or misrouted envelope".into());
        }
        if s.inline.len() > mpsim::event_mailbox::INLINE_TAGS {
            return Err(format!("{} inline buckets claimed", s.inline.len()));
        }
        Ok(())
    }

    fn accept(&self, s: &LaneMailboxState) -> Result<(), String> {
        if s.spills != LANE_EXPECTED_SPILLS {
            return Err(format!(
                "spill counter {} does not account for the {LANE_EXPECTED_SPILLS} wild envelopes",
                s.spills
            ));
        }
        if s.inline.iter().any(|(_, q)| !q.is_empty()) || s.spill.iter().any(|(_, q)| !q.is_empty())
        {
            return Err("envelopes left queued at termination".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: timer wheel generations
// ---------------------------------------------------------------------------

/// One slab slot in [`TimerWheelModel`]'s abstract wheel.
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct TimerSlot {
    gen: u32,
    armed: bool,
    deadline: u64,
    seq: u8,
    owner: u8,
}

/// Per-thread location in the timer model.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum TLoc {
    /// About to arm a timer.
    Arm,
    /// Waiting for the armed timer to fire.
    WaitFire,
    /// Task A only: about to cancel its (already fired, hence stale)
    /// handle — the half-polled-future-drop pattern.
    CancelStale,
    /// Finished.
    Done,
}

/// State of [`TimerWheelModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct TimerWheelState {
    /// The entry slab; freed slots are recycled lowest-index-first with a
    /// generation bump, as in the real wheel's free list.
    slots: Vec<TimerSlot>,
    /// Task A's handle `(idx, gen)` from its arm, kept past the fire.
    handle_a: Option<(u8, u32)>,
    /// Virtual clock.
    now: u64,
    /// Last popped `(deadline, seq)`, for the ordering invariant.
    last_pop: Option<(u64, u8)>,
    /// Global arming sequence.
    next_seq: u8,
    /// Per-task fired flag (the reactor's wake).
    fired: [bool; 2],
    /// Task program counters: A, B.
    loc: [TLoc; 2],
}

/// The [`mpsim::TimerWheel`] handle-generation protocol: task A arms a
/// short timer, waits for it to fire, then cancels its stale handle (as a
/// dropped receive future does); task B arms a longer timer that may
/// recycle A's freed slab slot; the reactor pops due timers in
/// `(deadline, seq)` order and advances the clock. Cancel liveness is the
/// deployed [`mpsim::event_timer::handle_is_live`], and every reachable
/// state asserts [`mpsim::TimerWheel::place`]'s slot-distance precondition
/// for each armed entry.
pub struct TimerWheelModel {
    /// A's relative deadline.
    pub delta_a: u64,
    /// B's relative deadline.
    pub delta_b: u64,
    /// Mutation: cancel matches on slab index alone (no generation check) —
    /// A's stale cancel can kill B's recycled entry, stranding B.
    pub no_generation: bool,
}

impl TimerWheelModel {
    const REACTOR: usize = 2;

    /// Arm a timer into the slab, recycling the lowest freed slot (free
    /// list order is immaterial with two tasks) with a generation bump at
    /// release time — matching `TimerWheel::release`.
    fn arm(s: &mut TimerWheelState, owner: u8, deadline: u64) -> (u8, u32) {
        let seq = s.next_seq;
        s.next_seq += 1;
        if let Some(i) = s.slots.iter().position(|e| !e.armed) {
            let e = &mut s.slots[i];
            e.armed = true;
            e.deadline = deadline;
            e.seq = seq;
            e.owner = owner;
            (i as u8, e.gen)
        } else {
            s.slots.push(TimerSlot { gen: 0, armed: true, deadline, seq, owner });
            ((s.slots.len() - 1) as u8, 0)
        }
    }
}

impl Model for TimerWheelModel {
    type State = TimerWheelState;

    fn initial(&self) -> TimerWheelState {
        TimerWheelState {
            slots: Vec::new(),
            handle_a: None,
            now: 0,
            last_pop: None,
            next_seq: 0,
            fired: [false, false],
            loc: [TLoc::Arm, TLoc::Arm],
        }
    }

    fn threads(&self) -> usize {
        3
    }

    fn is_done(&self, s: &TimerWheelState, tid: usize) -> bool {
        if tid == Self::REACTOR {
            s.loc == [TLoc::Done, TLoc::Done]
        } else {
            s.loc[tid] == TLoc::Done
        }
    }

    fn step(&self, s: &TimerWheelState, tid: usize) -> Step<TimerWheelState> {
        let mut n = s.clone();
        if tid == Self::REACTOR {
            // pop_next + clock advance + wake, one idle transition.
            let Some(best) = s
                .slots
                .iter()
                .enumerate()
                .filter(|(_, e)| e.armed)
                .min_by_key(|(_, e)| (e.deadline, e.seq))
                .map(|(i, _)| i)
            else {
                return Step::Blocked;
            };
            let (deadline, seq, owner) = {
                let e = &mut n.slots[best];
                e.armed = false;
                e.gen = e.gen.wrapping_add(1); // release: stale out handles
                (e.deadline, e.seq, e.owner)
            };
            n.last_pop = Some((deadline, seq));
            if deadline > n.now {
                n.now = deadline;
            }
            n.fired[owner as usize] = true;
            return Step::Next(n);
        }
        match s.loc[tid] {
            TLoc::Arm => {
                let delta = if tid == 0 { self.delta_a } else { self.delta_b };
                let handle = Self::arm(&mut n, tid as u8, s.now + delta);
                if tid == 0 {
                    n.handle_a = Some(handle);
                }
                n.loc[tid] = TLoc::WaitFire;
            }
            TLoc::WaitFire => {
                if !s.fired[tid] {
                    return Step::Blocked;
                }
                n.loc[tid] = if tid == 0 { TLoc::CancelStale } else { TLoc::Done };
            }
            TLoc::CancelStale => {
                // TimerWheel::cancel with the deployed liveness decision.
                // lint: allow(panic) — loc CancelStale implies A armed.
                let (idx, gen) = s.handle_a.expect("A cancels only after arming");
                let e = &mut n.slots[idx as usize];
                let live = if self.no_generation {
                    e.armed
                } else {
                    mpsim::event_timer::handle_is_live(e.gen, e.armed, gen)
                };
                if live {
                    e.armed = false;
                    e.gen = e.gen.wrapping_add(1);
                }
                n.loc[0] = TLoc::Done;
            }
            TLoc::Done => unreachable!("done threads are never stepped"),
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &TimerWheelState) -> Result<(), String> {
        for e in s.slots.iter().filter(|e| e.armed) {
            if e.deadline < s.now {
                return Err(format!(
                    "clock {} passed armed deadline {} — the wheel's scan precondition",
                    s.now, e.deadline
                ));
            }
            // The deployed placement function must put the entry within 64
            // slots of the clock's digit at its level (module docs theorem).
            let (level, _slot) = TimerWheel::place(s.now, e.deadline);
            let dist = (e.deadline >> (6 * level as u32)) - (s.now >> (6 * level as u32));
            if dist >= 64 {
                return Err(format!(
                    "entry at deadline {} sits {dist} slots past the clock at level {level}",
                    e.deadline
                ));
            }
        }
        if let Some(last) = s.last_pop {
            for e in s.slots.iter().filter(|e| e.armed) {
                if (e.deadline, e.seq) < last {
                    return Err(format!(
                        "armed ({}, {}) sorts before the last pop {last:?}: out-of-order pop",
                        e.deadline, e.seq
                    ));
                }
            }
        }
        Ok(())
    }

    fn accept(&self, s: &TimerWheelState) -> Result<(), String> {
        if s.slots.iter().any(|e| e.armed) {
            return Err("armed timers left at termination".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Self-healing broadcast: fast-round agreement with pairwise fallback
// ---------------------------------------------------------------------------

/// Fast-round reduce phase (tag offset inside the agreement page).
const REDUCE: u8 = 1;
/// Fast-round verdict phase.
const VERDICT: u8 = 2;
/// Pairwise fallback exchange.
const PAIRWISE: u8 = 0;

/// Per-rank location in [`AgreementModel`].
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum ALoc {
    /// Waiting for the reduce frame of tree child `k` (ascending order).
    Reduce(u8),
    /// About to send the AND up to the tree parent.
    SendUp,
    /// Waiting for the parent's verdict.
    Verdict,
    /// About to forward the verdict to the `k`-th child, largest first.
    Forward(u8),
    /// Fallback: about to send this rank's report to its `k`-th peer.
    PairSend(u8),
    /// Fallback: waiting for the `k`-th peer's report.
    PairRecv(u8),
    /// Returned: healed, crashed, or out of epochs.
    Exited,
}

/// One rank of [`AgreementModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct ARank {
    loc: ALoc,
    /// Current epoch.
    epoch: u8,
    /// Current member list as a bit mask over ranks.
    members: u8,
    /// The fast round's running verdict.
    ok: bool,
    /// Peers this epoch's fallback found dead.
    dead: u8,
    /// `(Healed::epochs, survivors mask)` once healed.
    healed: Option<(u8, u8)>,
    /// Whether the planned crash hit this rank.
    crashed: bool,
}

/// State of [`AgreementModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct AgreementState {
    ranks: Vec<ARank>,
    /// Frames in flight, keyed `(src, dst, phase, epoch, tag digest)` — the
    /// digest is the member mask for the fast round's phases and `0` for the
    /// digest-free pairwise tag. Each key is sent at most once.
    frames: BTreeMap<(u8, u8, u8, u8, u8), u8>,
}

/// The self-healing broadcast's agreement: `ranks` ranks, every one of which
/// already holds the payload, run the epoch loop's fast round over the
/// deployed [`agreement_tree`] with the deployed [`fold_frame`], fall back
/// to the pairwise exchange on a miss, and decide with the deployed
/// [`fallback_decision`]. An optional `victim` fail-stops at any step (a
/// separate crasher thread, so every interleaving of the crash is
/// explored). Receives follow the reliable timeout oracle: a frame that is
/// still coming is waited for, and a receive fails only once its sender has
/// exited (crashed or returned) or moved past the frame's epoch or member
/// list.
///
/// Properties: every live rank terminates (deadlock freedom) and heals
/// within `2·crashes + 1` epochs; no healed rank's survivor set excludes a
/// rank that healed in the same or a later epoch, nor counts one that
/// neither healed nor crashed.
pub struct AgreementModel {
    /// World size (at most 8).
    pub ranks: usize,
    /// The rank that may crash, if any.
    pub victim: Option<usize>,
    /// Mutation: a rank whose fallback finds every remaining member holding
    /// the payload heals in that same epoch, instead of through the next
    /// epoch's fast round. An orphaned subtree then excludes the ranks that
    /// committed in that epoch — the split-brain the rule exists to stop.
    pub heal_in_fallback: bool,
}

impl AgreementModel {
    fn max_epochs(&self) -> u8 {
        2 * u8::from(self.victim.is_some()) + 1
    }

    /// Member ranks of `mask`, ascending.
    fn list(mask: u8) -> Vec<u8> {
        (0..8).filter(|r| mask & (1 << r) != 0).collect()
    }

    /// `(parent, children)` of `r` in the tree over `mask`, as ranks.
    fn tree(r: u8, mask: u8) -> (Option<u8>, Vec<u8>) {
        let list = Self::list(mask);
        let index = list.iter().position(|&m| m == r).unwrap_or(0);
        let (parent, children) = agreement_tree(index, list.len());
        (parent.map(|p| list[p]), children.into_iter().map(|c| list[c]).collect())
    }

    /// Try to receive `(src → dst, phase, epoch, digest)`: `Some(Some(b))`
    /// takes the frame, `Some(None)` is a failed receive (the sender can no
    /// longer send it), `None` blocks.
    fn recv(s: &mut AgreementState, src: u8, dst: u8, phase: u8, digest: u8) -> Option<Option<u8>> {
        let me = &s.ranks[dst as usize];
        let key = (src, dst, phase, me.epoch, digest);
        if let Some(b) = s.frames.remove(&key) {
            return Some(Some(b));
        }
        let peer = &s.ranks[src as usize];
        let gone = peer.loc == ALoc::Exited
            || peer.epoch > me.epoch
            || (phase != PAIRWISE && peer.epoch == me.epoch && peer.members != me.members);
        gone.then_some(None)
    }

    /// The location after the reduce phase's children are all in.
    fn after_reduce(r: u8, mask: u8) -> ALoc {
        if Self::tree(r, mask).0.is_some() {
            ALoc::SendUp
        } else {
            ALoc::Forward(0)
        }
    }

    /// Fold one failed-or-received fast-round frame, through the deployed
    /// fold.
    fn fold(ok: bool, frame: Option<u8>) -> bool {
        fold_frame(ok, frame.map(|b| [b]).as_ref().map(|b| &b[..]))
    }

    /// End of the verdict forwards: commit, or fall back. (A lone member
    /// has no receive to miss, so a miss always leaves peers to ask.)
    fn finish_fast_round(rank: &mut ARank) {
        if rank.ok {
            rank.healed = Some((rank.epoch + 1, rank.members));
            rank.loc = ALoc::Exited;
        } else {
            rank.dead = 0;
            rank.loc = ALoc::PairSend(0);
        }
    }

    /// End of the pairwise exchange: the deployed fallback decision.
    fn finish_fallback(&self, rank: &mut ARank) {
        let remaining = rank.members & !rank.dead;
        let n = remaining.count_ones() as usize;
        // Every rank holds the payload in this model, so every survivor of
        // the exchange reported it.
        match fallback_decision(n, n) {
            Fallback::Retry { skip_attempt } => {
                if self.heal_in_fallback && skip_attempt {
                    rank.healed = Some((rank.epoch + 1, remaining));
                    rank.loc = ALoc::Exited;
                } else if rank.epoch + 1 >= self.max_epochs() {
                    rank.loc = ALoc::Exited;
                } else {
                    // The skipped attempt leaves the next epoch's fast
                    // round as its first step.
                    rank.epoch += 1;
                    rank.members = remaining;
                    rank.ok = true;
                    rank.loc = ALoc::Reduce(0);
                }
            }
            Fallback::PayloadLost => rank.loc = ALoc::Exited,
        }
    }
}

impl Model for AgreementModel {
    type State = AgreementState;

    fn initial(&self) -> AgreementState {
        assert!((1..=8).contains(&self.ranks), "1..=8 ranks");
        let all = ((1u16 << self.ranks) - 1) as u8;
        let rank = ARank {
            loc: ALoc::Reduce(0),
            epoch: 0,
            members: all,
            ok: true,
            dead: 0,
            healed: None,
            crashed: false,
        };
        AgreementState { ranks: vec![rank; self.ranks], frames: BTreeMap::new() }
    }

    fn threads(&self) -> usize {
        self.ranks + usize::from(self.victim.is_some())
    }

    fn is_done(&self, s: &AgreementState, tid: usize) -> bool {
        match s.ranks.get(tid) {
            Some(rank) => rank.loc == ALoc::Exited,
            // The crasher: done once its victim has returned either way.
            None => self.victim.is_none_or(|v| s.ranks[v].loc == ALoc::Exited),
        }
    }

    fn step(&self, s: &AgreementState, tid: usize) -> Step<AgreementState> {
        let mut n = s.clone();
        let Some(rank) = s.ranks.get(tid) else {
            // The crasher fail-stops its victim: gone, frames already sent
            // stay deliverable.
            let v = self.victim.unwrap_or(0);
            n.ranks[v].crashed = true;
            n.ranks[v].loc = ALoc::Exited;
            return Step::Next(n);
        };
        let r = tid as u8;
        let (parent, children) = Self::tree(r, rank.members);
        let digest = rank.members;
        match rank.loc {
            ALoc::Reduce(k) => {
                let Some(&c) = children.get(k as usize) else {
                    n.ranks[tid].loc = Self::after_reduce(r, rank.members);
                    return Step::Next(n);
                };
                let Some(frame) = Self::recv(&mut n, c, r, REDUCE, digest) else {
                    return Step::Blocked;
                };
                let me = &mut n.ranks[tid];
                me.ok = Self::fold(me.ok, frame);
                me.loc = if k as usize + 1 < children.len() {
                    ALoc::Reduce(k + 1)
                } else {
                    Self::after_reduce(r, rank.members)
                };
            }
            ALoc::SendUp => {
                let p = parent.unwrap_or(r);
                n.frames.insert((r, p, REDUCE, rank.epoch, digest), u8::from(rank.ok));
                n.ranks[tid].loc = ALoc::Verdict;
            }
            ALoc::Verdict => {
                let p = parent.unwrap_or(r);
                let Some(frame) = Self::recv(&mut n, p, r, VERDICT, digest) else {
                    return Step::Blocked;
                };
                let me = &mut n.ranks[tid];
                me.ok = Self::fold(me.ok, frame);
                me.loc = ALoc::Forward(0);
            }
            ALoc::Forward(k) => {
                let mut me = n.ranks[tid].clone();
                if let Some(&c) = children.iter().rev().nth(k as usize) {
                    n.frames.insert((r, c, VERDICT, rank.epoch, digest), u8::from(rank.ok));
                    me.loc = ALoc::Forward(k + 1);
                } else {
                    Self::finish_fast_round(&mut me);
                }
                n.ranks[tid] = me;
            }
            ALoc::PairSend(k) => {
                let peers: Vec<u8> =
                    Self::list(rank.members).into_iter().filter(|&q| q != r).collect();
                let q = peers[k as usize];
                n.frames.insert((r, q, PAIRWISE, rank.epoch, 0), 1);
                n.ranks[tid].loc = ALoc::PairRecv(k);
            }
            ALoc::PairRecv(k) => {
                let peers: Vec<u8> =
                    Self::list(rank.members).into_iter().filter(|&q| q != r).collect();
                let q = peers[k as usize];
                let Some(frame) = Self::recv(&mut n, q, r, PAIRWISE, 0) else {
                    return Step::Blocked;
                };
                let mut me = n.ranks[tid].clone();
                if frame.is_none() {
                    me.dead |= 1 << q;
                }
                if (k as usize) + 1 < peers.len() {
                    me.loc = ALoc::PairSend(k + 1);
                } else {
                    self.finish_fallback(&mut me);
                }
                n.ranks[tid] = me;
            }
            ALoc::Exited => return Step::Blocked,
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &AgreementState) -> Result<(), String> {
        for (x, rx) in s.ranks.iter().enumerate() {
            let Some((ex, mx)) = rx.healed else { continue };
            if mx & (1 << x) == 0 {
                return Err(format!("rank {x} healed outside its own survivor set"));
            }
            for (y, ry) in s.ranks.iter().enumerate() {
                if let Some((ey, _)) = ry.healed {
                    if mx & (1 << y) == 0 && ey >= ex {
                        return Err(format!(
                            "rank {x} (healed epoch {ex}) excludes rank {y}, which healed in \
                             epoch {ey} — a split-brain"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn accept(&self, s: &AgreementState) -> Result<(), String> {
        for (x, rx) in s.ranks.iter().enumerate() {
            match rx.healed {
                None if !rx.crashed => {
                    return Err(format!("live rank {x} never healed ({rx:?})"));
                }
                None => {}
                Some((_, mx)) => {
                    if let Some(ghost) = (0..s.ranks.len()).find(|&y| {
                        mx & (1 << y) != 0 && s.ranks[y].healed.is_none() && !s.ranks[y].crashed
                    }) {
                        return Err(format!("rank {x} counts rank {ghost}, which never healed"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_dpor, DEFAULT_MAX_STATES};

    #[test]
    fn fast_mutex_two_threads_bare_park_exhaustive() {
        // Two threads never leave a *stale* entry above a live one in the
        // LIFO registry, so even a bare park (no timeout) is deadlock-free.
        let stats = explore(
            &FastMutexModel { threads: 2, sections: 2, skip_recheck: false, park_timeout: false },
            DEFAULT_MAX_STATES,
        )
        .unwrap();
        assert!(stats.states > 50, "suspiciously small exploration: {stats:?}");
    }

    #[test]
    fn fast_mutex_bare_park_three_threads_has_the_lost_wakeup_window() {
        // Discovered by this explorer: with three threads and a bare park,
        // an unlock can pop a stale LIFO registry entry (left behind by a
        // recheck-acquire) and hand the token to a thread that already
        // finished, stranding the genuinely parked waiter. This is the
        // precise reason sync_fast uses park_timeout rather than park.
        let err = explore(
            &FastMutexModel { threads: 3, sections: 1, skip_recheck: false, park_timeout: false },
            DEFAULT_MAX_STATES,
        )
        .unwrap_err();
        assert!(err.contains("deadlock") && err.contains("Park"), "{err}");
    }

    #[test]
    fn fast_mutex_park_timeout_three_threads_exhaustive() {
        // The deployed protocol: park_timeout rescues every lost-wakeup
        // window. Exhaustive over three threads, two sections each.
        for sections in 1..=2 {
            explore(
                &FastMutexModel { threads: 3, sections, skip_recheck: false, park_timeout: true },
                DEFAULT_MAX_STATES,
            )
            .unwrap();
        }
    }

    #[test]
    fn fast_mutex_without_recheck_loses_a_wakeup() {
        // Registration without the recheck: an unlock that raced past the
        // registration leaves the waiter parked forever. The explorer must
        // exhibit the deadlock — this is the race the recheck swap closes.
        // (Bare park: with park_timeout the recheck is a latency
        // optimization; with park it is a correctness requirement.)
        let err = explore(
            &FastMutexModel { threads: 2, sections: 1, skip_recheck: true, park_timeout: false },
            DEFAULT_MAX_STATES,
        )
        .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn condvar_rendezvous_exhaustive() {
        for consumers in 1..=2 {
            explore(&CondvarModel { consumers }, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn mailbox_notify_skip_is_sound() {
        for senders in 1..=2 {
            explore(&MailboxModel { senders, broken_skip: false }, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn mailbox_broken_skip_deadlocks() {
        let err = explore(&MailboxModel { senders: 1, broken_skip: true }, DEFAULT_MAX_STATES)
            .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    // -- reactor run queue --------------------------------------------------

    fn run_queue(senders: usize, crasher: bool) -> RunQueueModel {
        RunQueueModel { senders, crasher, clear_after_poll: false, skip_exit_wake: false }
    }

    #[test]
    fn run_queue_dedup_is_sound() {
        for senders in 1..=3 {
            for crasher in [false, true] {
                explore(&run_queue(senders, crasher), DEFAULT_MAX_STATES).unwrap();
                explore_dpor(&run_queue(senders, crasher), DEFAULT_MAX_STATES).unwrap();
            }
        }
    }

    #[test]
    fn run_queue_clear_after_poll_loses_the_self_requeue() {
        // Two messages land before the first poll; the poll's budget-
        // exhausted self-requeue is deduplicated against its own stale
        // flag, and the trailing clear erases the task's only wake.
        let m = RunQueueModel {
            senders: 2,
            crasher: false,
            clear_after_poll: true,
            skip_exit_wake: false,
        };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    #[test]
    fn run_queue_skip_exit_wake_strands_the_watcher() {
        // The receiver consumes its message, parks a targeted watch on the
        // crasher — and the crasher's exit never wakes it.
        let m = RunQueueModel {
            senders: 1,
            crasher: true,
            clear_after_poll: false,
            skip_exit_wake: true,
        };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    // -- external waker side queue ------------------------------------------

    #[test]
    fn external_waker_drain_is_sound() {
        for wakes in 1..=3 {
            let m = ExternalWakerModel { wakes, skip_drain: false, drop_drained: false };
            explore(&m, DEFAULT_MAX_STATES).unwrap();
            explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn external_waker_mutants_drop_the_wake() {
        // Either mutation leaves the published work unobserved: the park
        // condition stops seeing (or stops honoring) the side queue.
        for (skip_drain, drop_drained) in [(true, false), (false, true)] {
            let m = ExternalWakerModel { wakes: 1, skip_drain, drop_drained };
            for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
                let err = run.unwrap_err();
                assert!(err.contains("deadlock"), "{err}");
            }
        }
    }

    // -- lane mailbox inline/spill -------------------------------------------

    #[test]
    fn lane_mailbox_routing_is_sound() {
        let m = LaneMailboxModel { drop_wild: false, skip_spill_count: false };
        explore(&m, DEFAULT_MAX_STATES).unwrap();
        explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
    }

    #[test]
    fn lane_mailbox_drop_wild_strands_the_receiver() {
        let m = LaneMailboxModel { drop_wild: true, skip_spill_count: false };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    #[test]
    fn lane_mailbox_skip_spill_count_rejected_at_terminal() {
        let m = LaneMailboxModel { drop_wild: false, skip_spill_count: true };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("terminal state rejected") && err.contains("spill"), "{err}");
        }
    }

    // -- timer wheel generations ---------------------------------------------

    #[test]
    fn timer_wheel_generations_are_sound() {
        // Deadlines at different wheel levels (10 < 64 ≤ 100) so the place()
        // precondition is exercised across a level boundary.
        for (delta_a, delta_b) in [(10, 20), (10, 100), (63, 64)] {
            let m = TimerWheelModel { delta_a, delta_b, no_generation: false };
            explore(&m, DEFAULT_MAX_STATES).unwrap();
            explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn timer_wheel_no_generation_fires_a_stale_handle() {
        // A's fired slot is recycled by B's arm before A's stale cancel
        // lands; without the generation check the cancel kills B's live
        // entry and B waits forever.
        let m = TimerWheelModel { delta_a: 10, delta_b: 20, no_generation: true };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    // -- self-healing agreement ----------------------------------------------

    #[test]
    fn agreement_fast_round_with_fallback_is_sound() {
        for ranks in 3..=4 {
            for victim in std::iter::once(None).chain((0..ranks).map(Some)) {
                let m = AgreementModel { ranks, victim, heal_in_fallback: false };
                let full = explore(&m, DEFAULT_MAX_STATES).unwrap();
                let dpor = explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
                assert!(dpor.states <= full.states, "ranks={ranks} victim={victim:?}");
            }
        }
    }

    #[test]
    fn agreement_heal_in_fallback_is_a_split_brain() {
        // Rank 2 is interior in the 4-rank tree (child 3): crashing right
        // after its reduce send orphans rank 3, whose fallback then finds
        // the committers 0 and 1 gone.
        let m = AgreementModel { ranks: 4, victim: Some(2), heal_in_fallback: true };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("split-brain"), "{err}");
        }
    }
}
