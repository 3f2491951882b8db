//! Self-healing broadcast: timeout-guarded execution, failure agreement,
//! and degraded-ring recovery on the surviving ranks.
//!
//! The tuned scatter–ring broadcast, like every static-schedule collective,
//! hangs if a participant dies mid-ring: its neighbors wait forever on a
//! `sendrecv` that can never match. This module turns that hang into
//! detection and recovery:
//!
//! 1. **Guarded attempt** — the broadcast runs over a [`GuardedComm`], which
//!    bounds every receive with a deadline, and an [`EpochComm`], which
//!    shifts all tags by the attempt number so retries can never match stale
//!    messages from a failed attempt. A dead neighbor surfaces as
//!    [`CommError::Timeout`] or — when the backend's exited-rank detector
//!    fires first — [`CommError::PeerFailed`].
//! 2. **Agreement** — first a **fast round**: a one-byte "payload complete"
//!    bit is AND-reduced up a binomial tree over the current members
//!    ([`agreement_tree`], rooted at `members[0]`) and the verdict travels
//!    back down the same tree — `2(members − 1)` one-byte messages. The
//!    reduce phase must finish within one heartbeat deadline of the round's
//!    start, the verdict within two; every error, timeout or garbled byte
//!    folds to "not ok" ([`fold_frame`]). A verdict of 1 **commits**: every
//!    member held the payload, so the rank heals at once. Any other outcome
//!    **falls back** to the pairwise exchange, in which every member sends
//!    its bit to every other member and collects the peers' bits under the
//!    heartbeat deadline widened by the fast round's two phases.
//!    Membership is decided by that exchange *alone*: an attempt-time or
//!    fast-round timeout is only a stall symptom (a live neighbor of a dead
//!    rank stalls too), but a rank that misses the pairwise deadline —
//!    sized to cover the worst-case attempt cascade plus the fast round —
//!    is dead under the fail-stop assumption (below), so every live rank
//!    computes the same verdict. **A rank that fell back never heals in
//!    that epoch** ([`fallback_decision`]): a crash between an interior
//!    tree node's reduce send and its verdict forward lets the rest of the
//!    world commit while the node's subtree falls back, and the committers,
//!    having returned, look dead to that subtree. Deferring the fallback
//!    ranks' heal to a later epoch — whose attempt is skipped when every
//!    remaining member already holds the payload — keeps their exclusion
//!    of the committers epoch-monotone (see
//!    [`crate::check_recovery_outcome`]).
//! 3. **Degraded rerun** — the survivors form a [`SubComm`], the
//!    binomial-scatter `(step, flag)` schedule is re-derived over the
//!    shrunken world (simply by running the same algorithm at the smaller
//!    size), and the broadcast reruns from the lowest-ranked survivor that
//!    holds the full payload. The loop repeats until a fast round commits
//!    or the epoch budget is exhausted.
//!
//! The matching *symbolic* schedule of a degraded rerun is available from
//! [`degraded_bcast_schedule`], so `schedcheck` verifies the regenerated
//! ring exactly like the full-world one.
//!
//! ## One loop for every backend
//!
//! The decorators and the epoch loop are written once, over
//! [`AsyncCommunicator`]. The discrete-event executor runs
//! [`self_healing_bcast_async`] as suspending tasks on its virtual clock,
//! where every timeout is free — recovery at `P = 4096` with cascading
//! failures completes in well under a second of real time. Blocking
//! backends enter through [`self_healing_bcast`], which drives the same
//! future through the [`SyncComm`] bridge with [`complete_now`], so a
//! seeded fault plan replays to the identical survivor set on every
//! executor.
//!
//! Crashes that land *during* an agreement round or mid-degraded-schedule
//! surface as the next epoch's deaths: membership-digest tag isolation
//! ([`membership_digest`]) keeps verdict-split groups from corrupting each
//! other, and agreement self-crash detection keeps a dying rank from
//! poisoning its own verdict. Root-succession chains of any depth fall out
//! of iterating the same succession rule. Every run can record a
//! [`RecoveryTrace`] — epochs entered, succession chain, deaths observed,
//! branch bits — the coverage signal `chaos-search` steers by.
//!
//! ## Fault model
//!
//! Recovery assumes **fail-stop** processes and a **reliable timeout
//! oracle**: a rank that fails stays silent forever (no Byzantine
//! behavior), and the pairwise deadline is long enough that a live rank is
//! never mistaken for dead. The fast round needs neither: a missed
//! fast-round deadline, even on a live peer, only sends the epoch to the
//! pairwise fallback. A false suspicion does not corrupt data — the
//! falsely-excluded rank returns [`CommError::PeerFailed`] naming itself
//! and the survivors still complete — but it does shrink the world more
//! than necessary. Message *loss* between live ranks is the job of
//! [`mpsim::ReliableComm`], stacked underneath; this module only handles
//! silence.
//!
//! Like everything timeout-based, [`GuardedComm`] decomposes `sendrecv`
//! into an eager send followed by a bounded receive, so the transport must
//! deliver eagerly (the threaded backend always does; simulated worlds
//! need a model with a high `eager_threshold`).

use std::collections::BTreeSet;
use std::time::Duration;

use mpsim::{
    complete_now, AsyncCommunicator, CommError, Communicator, Rank, Result, SubComm, SyncComm, Tag,
};

use crate::bcast::{bcast_with_async, Algorithm};
use crate::schedule::Schedule;

/// Tag offset between broadcast attempts: epoch `e` runs its collective on
/// `Tag(t + e · EPOCH_TAG_STRIDE)`, so a retry can never match a stale
/// message from an earlier, partially-failed attempt.
pub const EPOCH_TAG_STRIDE: u32 = 0x100;

/// Base tag of the per-epoch agreement page: epoch `e`'s pairwise exchange
/// runs on `AGREEMENT_TAG_BASE + e · EPOCH_TAG_STRIDE`, its fast round's
/// reduce and verdict phases one and two tags above.
pub const AGREEMENT_TAG_BASE: u32 = 0xA100;

/// Offset of the fast round's reduce phase inside an agreement page.
const FAST_REDUCE: u32 = 1;
/// Offset of the fast round's verdict phase inside an agreement page.
const FAST_VERDICT: u32 = 2;

/// Shift granularity of the membership digest inside an attempt's tag: the
/// digest occupies bits 12 and up, above every user tag (< `0x100`), every
/// epoch shift (`epoch · 0x100`), and the whole agreement range
/// (`0xA100..≈0xB100`), and below [`mpsim::reliable::DATA_TAG_BASE`] so the
/// reliability layer's rebasing can never push an attempt tag into its
/// reserved acknowledgement range.
pub const MEMBERSHIP_DIGEST_SHIFT: u32 = 12;

/// Digest of a member list, folded into every *attempt* tag by
/// [`EpochComm::isolated`] and into the fast round's tags — never into the
/// pairwise exchange's tag.
///
/// A crash that lands *during* an agreement round can split the verdict:
/// peers the victim already answered believe it alive, later peers see it
/// dead, and the two groups enter the next epoch with member lists that
/// differ by the victim — and therefore with different degraded schedules.
/// Without isolation the groups' same-epoch messages cross-match with
/// mismatched chunk geometry and corrupt payloads. With the digest in the
/// tag, a rank only ever matches attempt traffic from peers that agree on
/// the membership, so a split epoch stalls cleanly into timeouts and the
/// *next* agreement round re-converges (the victim is silent for everyone
/// by then). The fast round is isolated the same way: groups with diverged
/// lists build different trees, so only ranks that agree on the membership
/// may feed each other's AND; across groups it times out into the
/// fallback. The pairwise tag stays digest-free on purpose — the diverged
/// groups must still heartbeat each other to re-converge. Every tag keeps
/// its low byte (the algorithms' user tags; 0, 1, 2 for the pairwise,
/// reduce and verdict phases), so no shift can alias two kinds of traffic.
pub fn membership_digest(members: &[Rank]) -> u32 {
    // FNV-1a over the member ranks, folded to a 12-bit page well clear of
    // the low pages (user + epoch + agreement tags all sit below 0xB2xx).
    let mut h: u32 = 0x811C_9DC5;
    for &m in members {
        for b in (m as u32).to_le_bytes() {
            h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }
    0x10 + (h % 0xFE0)
}

/// Tuning knobs for [`self_healing_bcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Deadline for each receive inside a broadcast attempt — the failure
    /// detector's resolution. Too short and slow ranks are suspected; too
    /// long and recovery is sluggish.
    pub step_timeout: Duration,
    /// Maximum number of attempts (first try included) before giving up.
    pub max_epochs: u32,
    /// Set when the communicator's own `sendrecv` already returns
    /// [`CommError::Timeout`] on its own (e.g. [`mpsim::ReliableComm`],
    /// whose ack pump has a bounded attempt budget). [`GuardedComm`] then
    /// delegates `sendrecv` instead of decomposing it — decomposition
    /// would wedge the reliability layer's pump, because a blocking
    /// acknowledged send cannot drain incoming data frames.
    pub bounded_sendrecv: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            step_timeout: Duration::from_millis(250),
            max_epochs: 4,
            bounded_sendrecv: false,
        }
    }
}

impl RecoveryConfig {
    /// The heartbeat deadline `hb`, the unit every agreement deadline is
    /// built from. A live member may still be stuck in the failed attempt
    /// when its peers start agreeing: with every receive bounded by one
    /// step-timeout, a stalled attempt drains in at most `scatter depth +
    /// ring steps` timeouts (< 2·members), so twice that plus slack covers
    /// the skew between two members' ends of an attempt.
    ///
    /// The fast round's reduce phase ends `hb` after the round starts (on
    /// each rank's own clock), its verdict phase `2·hb` after; the pairwise
    /// fallback waits [`Self::fallback_timeout`] per peer.
    fn heartbeat_timeout(&self, members: usize) -> Duration {
        self.step_timeout.saturating_mul(2 * members as u32 + 6)
    }

    /// The pairwise fallback's per-peer deadline: `hb` for the attempt skew
    /// plus the fast round's two phases, since one member may enter the
    /// fallback as soon as a `0` verdict reaches it while another waits out
    /// the whole verdict deadline first. With it a live rank is never
    /// mistaken for dead.
    fn fallback_timeout(&self, members: usize) -> Duration {
        self.heartbeat_timeout(members).saturating_mul(3)
    }
}

/// What a successful [`self_healing_bcast`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Healed {
    /// The ranks (world numbering) on which the broadcast completed.
    pub survivors: Vec<Rank>,
    /// Number of attempts performed; `1` means no fault was observed.
    pub epochs: u32,
}

/// Tag-shifting decorator: runs an unmodified collective in a private tag
/// epoch so concurrent or stale traffic on other epochs cannot interfere.
pub struct EpochComm<'a, C: ?Sized> {
    inner: &'a C,
    shift: u32,
}

impl<'a, C: ?Sized> EpochComm<'a, C> {
    /// Wrap `inner`, shifting every tag by `epoch · EPOCH_TAG_STRIDE`.
    pub fn new(inner: &'a C, epoch: u32) -> Self {
        EpochComm { inner, shift: epoch.wrapping_mul(EPOCH_TAG_STRIDE) }
    }

    /// Wrap `inner`, shifting every tag by the epoch *and* a membership
    /// digest, so attempts over diverged member lists can never exchange
    /// data (see [`membership_digest`]).
    pub fn isolated(inner: &'a C, epoch: u32, digest: u32) -> Self {
        EpochComm {
            inner,
            shift: epoch
                .wrapping_mul(EPOCH_TAG_STRIDE)
                .wrapping_add(digest << MEMBERSHIP_DIGEST_SHIFT),
        }
    }

    fn shifted(&self, tag: Tag) -> Tag {
        Tag(tag.0.wrapping_add(self.shift))
    }
}

impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for EpochComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send(buf, dest, self.shifted(tag)).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.inner.recv(buf, src, self.shifted(tag)).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        self.inner.recv_timeout(buf, src, self.shifted(tag), timeout).await
    }

    async fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        self.inner
            .sendrecv(sendbuf, dest, self.shifted(sendtag), recvbuf, src, self.shifted(recvtag))
            .await
    }

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn send_shared(&self, buf: &mpsim::SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send_shared(buf, dest, self.shifted(tag)).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned(capacity, src, self.shifted(tag)).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned_timeout(capacity, src, self.shifted(tag), timeout).await
    }

    async fn sendrecv_shared(
        &self,
        sendbuf: &mpsim::SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<mpsim::SharedBuf> {
        self.inner
            .sendrecv_shared(
                sendbuf,
                dest,
                self.shifted(sendtag),
                recv_capacity,
                src,
                self.shifted(recvtag),
            )
            .await
    }
}

/// Deadline-guarding decorator: every unbounded receive becomes a
/// [`AsyncCommunicator::recv_timeout`] with a fixed step deadline, so a silent
/// peer surfaces as [`CommError::Timeout`] instead of a hang.
///
/// `sendrecv` is decomposed into an eager send followed by a bounded
/// receive — correct only on eagerly-delivering transports (see the
/// [module docs](self)).
pub struct GuardedComm<'a, C: ?Sized> {
    inner: &'a C,
    step_timeout: Duration,
    passthrough_sendrecv: bool,
}

impl<'a, C: ?Sized> GuardedComm<'a, C> {
    /// Wrap `inner` with a per-receive deadline of `step_timeout`.
    pub fn new(inner: &'a C, step_timeout: Duration) -> Self {
        GuardedComm { inner, step_timeout, passthrough_sendrecv: false }
    }

    /// Delegate `sendrecv` to the inner communicator instead of
    /// decomposing it. Only sound when the inner `sendrecv` cannot block
    /// forever on a dead peer — see
    /// [`RecoveryConfig::bounded_sendrecv`].
    pub fn passthrough_sendrecv(mut self) -> Self {
        self.passthrough_sendrecv = true;
        self
    }
}

impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for GuardedComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send(buf, dest, tag).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.inner.recv_timeout(buf, src, tag, self.step_timeout).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        self.inner.recv_timeout(buf, src, tag, timeout.min(self.step_timeout)).await
    }

    async fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        if self.passthrough_sendrecv {
            return self.inner.sendrecv(sendbuf, dest, sendtag, recvbuf, src, recvtag).await;
        }
        // Eager send, bounded receive — sound only on eagerly-delivering
        // transports (see the module docs).
        self.inner.send(sendbuf, dest, sendtag).await?;
        self.inner.recv_timeout(recvbuf, src, recvtag, self.step_timeout).await
    }

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn send_shared(&self, buf: &mpsim::SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send_shared(buf, dest, tag).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<mpsim::SharedBuf> {
        // Same mapping as `recv`: every unbounded owned receive becomes a
        // step-bounded one.
        self.inner.recv_owned_timeout(capacity, src, tag, self.step_timeout).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned_timeout(capacity, src, tag, timeout.min(self.step_timeout)).await
    }

    async fn sendrecv_shared(
        &self,
        sendbuf: &mpsim::SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<mpsim::SharedBuf> {
        if self.passthrough_sendrecv {
            return self
                .inner
                .sendrecv_shared(sendbuf, dest, sendtag, recv_capacity, src, recvtag)
                .await;
        }
        // Same decomposition as `sendrecv`: eager send, bounded receive.
        self.inner.send_shared(sendbuf, dest, sendtag).await?;
        self.inner.recv_owned_timeout(recv_capacity, src, recvtag, self.step_timeout).await
    }
}

// The vectored operations of both decorators intentionally use the trait
// defaults (gather/scatter through `send`/`recv`): the per-link operation
// sequence a fault plan's crash clock counts is then the same whichever
// executor sits underneath, which is what makes seeded cross-executor
// replays line up. The zero-copy operations, by contrast, forward natively
// (with the same tag shifting / timeout bounding as their copying
// counterparts): they bottom out in the same per-link send/recv sequence,
// so replay stays aligned while the payload keeps its refcounted envelope
// all the way down to the executor.

/// One rank's state after an attempt, exchanged in the agreement round.
struct Report {
    has_full: bool,
}

impl Report {
    fn encode(&self) -> [u8; 1] {
        [u8::from(self.has_full)]
    }

    fn decode(bytes: &[u8]) -> Option<Report> {
        match bytes {
            [b @ (0 | 1)] => Some(Report { has_full: *b == 1 }),
            _ => None,
        }
    }
}

/// Fold one fast-round receive into the running verdict `ok`: only a
/// well-formed `1` frame keeps it; a failed receive (`None`: an error or a
/// timeout) or a garbled byte turns it to "not ok".
pub fn fold_frame(ok: bool, frame: Option<&[u8]>) -> bool {
    ok && frame.and_then(Report::decode).is_some_and(|r| r.has_full)
}

/// The fast round's binomial tree over `n` members, by member index:
/// `(parent, children)` of `index`, rooted at index 0. The parent clears
/// the lowest set bit of `index`; the children, in ascending order (the
/// smallest subtree, which reports first, first), add each smaller power
/// of two. The same shape as the binomial broadcast, so the reduce and the
/// verdict each cost `n − 1` messages in `⌈log₂ n⌉` rounds.
pub fn agreement_tree(index: usize, n: usize) -> (Option<usize>, Vec<usize>) {
    assert!(index < n, "member index {index} outside a tree of {n}");
    let span = if index == 0 { n.next_power_of_two() } else { index & index.wrapping_neg() };
    let parent = (index != 0).then(|| index - span);
    let children = std::iter::successors(Some(1usize), |m| Some(m << 1))
        .take_while(|&m| m < span && index + m < n)
        .map(|m| index + m)
        .collect();
    (parent, children)
}

/// Where a pairwise fallback leaves a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Run another epoch over the remaining members. `skip_attempt` when
    /// every one of them already holds the payload: the next epoch then
    /// goes straight to its fast round.
    Retry {
        /// Whether the next epoch's broadcast attempt is skipped.
        skip_attempt: bool,
    },
    /// No remaining member holds the payload: unrecoverable.
    PayloadLost,
}

/// The soundness rule of the fast round: after a fallback that left
/// `remaining` members, `holding` of whom hold the payload, a rank never
/// heals in the same epoch — even when everyone remaining holds the
/// payload, it retries and heals through the next epoch's fast round. Some
/// peers may have committed in this epoch; the fallback has just counted
/// them dead, and only a strictly later heal may exclude them.
pub fn fallback_decision(remaining: usize, holding: usize) -> Fallback {
    if holding == 0 {
        Fallback::PayloadLost
    } else {
        Fallback::Retry { skip_attempt: holding == remaining }
    }
}

/// Outcome of one pairwise exchange, identical on every live member
/// (unless a crash lands mid-exchange — see [`membership_digest`] for how
/// that split is contained).
struct Verdict {
    dead: BTreeSet<Rank>,
    have_full: BTreeSet<Rank>,
}

/// Recovery branch bits, recorded in [`RecoveryTrace::branches`]. The set of
/// bits a run lights up is part of the chaos-search coverage signal: a fault
/// plan that reaches a new combination is interesting by definition.
pub mod branch {
    /// An attempt completed cleanly on this rank.
    pub const CLEAN_ATTEMPT: u32 = 1 << 0;
    /// An attempt stalled (timeout / peer failure) on this rank.
    pub const STALLED_ATTEMPT: u32 = 1 << 1;
    /// Healed through the fast-round commit of an epoch whose attempt ran.
    pub const HEALED_ALL: u32 = 1 << 2;
    /// Healed through the fast-round commit of an epoch whose attempt was
    /// skipped, because the previous epoch's fallback found every
    /// *remaining* member already holding the payload.
    pub const HEALED_SURVIVORS: u32 = 1 << 3;
    /// An agreement round declared at least one member dead.
    pub const DEATH_OBSERVED: u32 = 1 << 4;
    /// The root role moved to a successor.
    pub const ROOT_SUCCESSION: u32 = 1 << 5;
    /// No surviving member held a complete payload: unrecoverable.
    pub const PAYLOAD_LOST: u32 = 1 << 6;
    /// The epoch budget ran out before the world converged.
    pub const EPOCH_BUDGET_EXHAUSTED: u32 = 1 << 7;
    /// This rank's own communicator fail-stopped.
    pub const SELF_CRASH: u32 = 1 << 8;
    /// A garbled report was treated as a peer death.
    pub const GARBLED_REPORT: u32 = 1 << 9;
}

/// What one rank's recovery run did, step by step — the coverage signal the
/// chaos search steers by, and the observability surface the megascale
/// tests assert on.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryTrace {
    /// Epochs entered (attempt + agreement pairs), including the first.
    pub epochs_entered: u32,
    /// Number of times the root role moved (`root_chain.len() - 1`).
    pub succession_depth: u32,
    /// The root chain, starting at the caller-supplied root.
    pub root_chain: Vec<Rank>,
    /// Distinct members this rank's verdicts declared dead, cumulatively.
    pub deaths_observed: usize,
    /// Union of [`branch`] bits hit.
    pub branches: u32,
}

impl RecoveryTrace {
    /// Record a [`branch`] bit.
    pub fn hit(&mut self, bit: u32) {
        self.branches |= bit;
    }

    /// Whether a [`branch`] bit was hit.
    pub fn saw(&self, bit: u32) -> bool {
        self.branches & bit != 0
    }
}

/// Deliberate-regression knobs for the chaos-search drill: each knob
/// re-introduces a recovery bug the invariant checker must catch, proving
/// the adversarial search has teeth (the moral equivalent of the schedcheck
/// models' mutation knobs). Production callers pass
/// [`RecoveryDrill::NONE`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryDrill {
    /// Report `has_full = true` regardless of attempt outcome. A rank
    /// without the payload can then win root succession and broadcast
    /// garbage — the byte-identical-payload invariant catches it.
    pub claim_full_payload: bool,
    /// Never move the root role. A dead root then stays the designated
    /// source and the degraded schedule cannot be built — recovery dies
    /// instead of healing.
    pub skip_root_succession: bool,
    /// Cap the epoch budget below the configured one, starving cascades —
    /// the liveness invariant (enough budget ⇒ every live rank heals)
    /// catches it.
    pub clamp_epoch_budget: Option<u32>,
}

impl RecoveryDrill {
    /// No deliberate regression: the production configuration.
    pub const NONE: RecoveryDrill = RecoveryDrill {
        claim_full_payload: false,
        skip_root_succession: false,
        clamp_epoch_budget: None,
    };
}

/// The fast round over `members` (world numbering): AND `has_full` up the
/// [`agreement_tree`] rooted at `members[0]`, then pass the root's verdict
/// back down. Returns whether this rank committed, i.e. received a `1`
/// verdict — proof that every member held the payload when it reported.
///
/// Both phases run against absolute deadlines taken from this rank's clock
/// at the round's start: `hb` for the children's reduce frames, `2·hb` for
/// the parent's verdict. Every failure folds to "not ok" and the rank
/// still forwards its (then `0`) verdict, so a miss anywhere reaches the
/// whole subtree below it without waiting out further deadlines. The one
/// error that escapes is [`CommError::PeerFailed`] naming this rank: its
/// own communicator fail-stopped. The tags carry the membership digest, so
/// ranks whose member lists diverged never feed each other's AND.
async fn fast_round<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    has_full: bool,
    cfg: &RecoveryConfig,
) -> Result<bool> {
    let me = comm.rank();
    let index = members.iter().position(|&m| m == me).ok_or(CommError::PeerFailed { rank: me })?;
    let (parent, children) = agreement_tree(index, members.len());
    let digest = membership_digest(members) << MEMBERSHIP_DIGEST_SHIFT;
    let reduce_tag = Tag(agreement_tag(epoch, FAST_REDUCE).0.wrapping_add(digest));
    let verdict_tag = Tag(agreement_tag(epoch, FAST_VERDICT).0.wrapping_add(digest));
    let hb = u64::try_from(cfg.heartbeat_timeout(members.len()).as_nanos()).unwrap_or(u64::MAX);
    let start = comm.now_ns();

    let mut ok = has_full;
    for &c in &children {
        ok = recv_bit(comm, ok, members[c], reduce_tag, start.saturating_add(hb)).await?;
    }
    if let Some(p) = parent {
        send_bit(comm, ok, members[p], reduce_tag).await?;
        let deadline = start.saturating_add(hb.saturating_mul(2));
        ok = recv_bit(comm, ok, members[p], verdict_tag, deadline).await?;
    }
    // Largest subtree first: it has the most ranks waiting on the verdict.
    for &c in children.iter().rev() {
        send_bit(comm, ok, members[c], verdict_tag).await?;
    }
    Ok(ok)
}

/// Tag of `phase` in `epoch`'s agreement page.
fn agreement_tag(epoch: u32, phase: u32) -> Tag {
    Tag(AGREEMENT_TAG_BASE.wrapping_add(epoch.wrapping_mul(EPOCH_TAG_STRIDE)).wrapping_add(phase))
}

/// One fast-round receive against an absolute `deadline` (ns on the
/// communicator's clock), folded into `ok` by [`fold_frame`]. Only this
/// rank's own fail-stop escapes as an error.
async fn recv_bit<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    ok: bool,
    src: Rank,
    tag: Tag,
    deadline: u64,
) -> Result<bool> {
    let mut frame = [0u8; 1];
    let left = Duration::from_nanos(deadline.saturating_sub(comm.now_ns()));
    match comm.recv_timeout(&mut frame, src, tag, left).await {
        Ok(n) => Ok(fold_frame(ok, Some(&frame[..n]))),
        Err(CommError::PeerFailed { rank }) if rank == comm.rank() => {
            Err(CommError::PeerFailed { rank })
        }
        Err(_) => Ok(fold_frame(ok, None)),
    }
}

/// One fast-round send. Only this rank's own fail-stop escapes: a frame
/// that does not arrive is the receiver's miss, and its deadline turns it
/// into "not ok" there.
async fn send_bit<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    ok: bool,
    dest: Rank,
    tag: Tag,
) -> Result<()> {
    match comm.send(&Report { has_full: ok }.encode(), dest, tag).await {
        Err(CommError::PeerFailed { rank }) if rank == comm.rank() => {
            Err(CommError::PeerFailed { rank })
        }
        _ => Ok(()),
    }
}

/// The pairwise fallback: exchange [`Report`]s among `members` (world
/// numbering) under [`RecoveryConfig::fallback_timeout`] and fold them into
/// a common [`Verdict`]: a member is dead iff it fails this exchange
/// (timeout, peer failure, or a garbled report). The fail-stop assumption plus the backends' definitive
/// exited-rank detection make the outcome identical on every live member —
/// a dead rank fails *everyone's* heartbeat, and the deadline is sized so a
/// live rank never does. Our *own* communicator fail-stopping mid-round
/// surfaces as a peer failure naming this rank and is propagated instead of
/// declaring every not-yet-visited peer dead.
///
/// The exchange visits peers in ascending member order, which is
/// deadlock-free for pairwise exchanges: the globally smallest unfinished
/// pair is always each other's current partner (each rank only moves past
/// a peer once that pair is done), so someone always progresses. With
/// [`RecoveryConfig::bounded_sendrecv`] the roundtrip uses the reliable
/// layer's self-bounding `sendrecv` pump — an eager send followed by a
/// bounded receive would wedge an acknowledged-send layer, whose `send`
/// cannot complete until the peer actively receives.
async fn agree_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    cfg: &RecoveryConfig,
    trace: &mut RecoveryTrace,
) -> Result<Verdict> {
    let me = comm.rank();
    let tag = agreement_tag(epoch, 0);
    let encoded = mine.encode();
    let deadline = cfg.fallback_timeout(members.len());

    let mut dead = BTreeSet::new();
    let mut have_full = BTreeSet::new();
    if mine.has_full {
        have_full.insert(me);
    }

    let mut frame = [0u8; 1];
    for &peer in members {
        if peer == me {
            continue;
        }
        let outcome = if cfg.bounded_sendrecv {
            comm.sendrecv(&encoded, peer, tag, &mut frame, peer, tag).await
        } else {
            match comm.send(&encoded, peer, tag).await {
                Ok(()) => comm.recv_timeout(&mut frame, peer, tag, deadline).await,
                Err(e) => Err(e),
            }
        };
        match outcome {
            Ok(n) => match Report::decode(&frame[..n]) {
                Some(theirs) => {
                    if theirs.has_full {
                        have_full.insert(peer);
                    }
                }
                None => {
                    trace.hit(branch::GARBLED_REPORT);
                    dead.insert(peer);
                }
            },
            Err(CommError::PeerFailed { rank }) if rank == me => {
                return Err(CommError::PeerFailed { rank: me });
            }
            Err(CommError::Timeout { .. }) | Err(CommError::PeerFailed { .. }) => {
                dead.insert(peer);
            }
            Err(e) => return Err(e),
        }
    }
    have_full.retain(|r| !dead.contains(r));
    Ok(Verdict { dead, have_full })
}

/// Fault-tolerant broadcast of `buf` from `root` using the paper's tuned
/// scatter–ring algorithm, healing around fail-stop crashes, on a blocking
/// backend: [`self_healing_bcast_async`] driven through the [`SyncComm`]
/// bridge.
///
/// On success every *surviving* rank holds the full payload and receives
/// the same [`Healed`] summary. A rank that was declared dead — including
/// one whose own communicator fail-stopped — gets
/// `Err(CommError::PeerFailed)` naming itself. If the payload becomes
/// unrecoverable (no survivor holds a complete copy) every survivor gets
/// `Err(CommError::PeerFailed)` naming the root.
pub fn self_healing_bcast(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    complete_now(self_healing_bcast_async(&SyncComm::new(comm), buf, root, cfg))
}

/// [`self_healing_bcast`] over any [`AsyncCommunicator`] — the one epoch
/// loop every backend runs.
pub async fn self_healing_bcast_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    let mut trace = RecoveryTrace::default();
    self_healing_bcast_traced_async(
        comm,
        buf,
        root,
        Algorithm::ScatterRingTuned,
        cfg,
        &RecoveryDrill::NONE,
        &mut trace,
    )
    .await
}

/// The fully-instrumented entry point: [`self_healing_bcast_async`] with an
/// explicit algorithm for the attempts, plus a [`RecoveryTrace`] filled in
/// as the epoch loop runs (also on the error paths — a crashed or starved
/// rank still reports how far it got) and the [`RecoveryDrill`] regression
/// knobs for the chaos-search drill.
pub async fn self_healing_bcast_traced_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
    drill: &RecoveryDrill,
    trace: &mut RecoveryTrace,
) -> Result<Healed> {
    comm.check_rank(root)?;
    assert!(cfg.max_epochs >= 1, "at least one attempt is required");
    let max_epochs =
        drill.clamp_epoch_budget.map_or(cfg.max_epochs, |c| c.clamp(1, cfg.max_epochs));
    let me = comm.rank();
    let mut members: Vec<Rank> = (0..comm.size()).collect();
    let mut current_root = root;
    let mut has_full = me == root;
    let mut all_dead: BTreeSet<Rank> = BTreeSet::new();
    trace.root_chain.push(root);

    let mut skip_attempt = false;
    for epoch in 0..max_epochs {
        trace.epochs_entered = epoch + 1;
        if !skip_attempt {
            let sub = SubComm::new_async(comm, members.clone())
                // lint: allow(panic) — `me` is always kept in `members` (checked below)
                .expect("member list lost this rank");
            let local_root = sub
                .from_parent(current_root)
                // lint: allow(panic) — root succession keeps the root a member
                // (unless the drill knob disables succession on purpose)
                .unwrap_or_else(|| panic!("root {current_root} is not a member"));
            let epoch_comm = EpochComm::isolated(&sub, epoch, membership_digest(&members));
            let mut guarded = GuardedComm::new(&epoch_comm, cfg.step_timeout);
            if cfg.bounded_sendrecv {
                guarded = guarded.passthrough_sendrecv();
            }

            match bcast_with_async(&guarded, buf, local_root, algorithm).await {
                Ok(()) => {
                    trace.hit(branch::CLEAN_ATTEMPT);
                    has_full = true;
                }
                // Attempt-time stalls only mark the attempt failed; membership
                // is decided by the agreement. Errors from the sub-world stack
                // name *local* ranks.
                Err(CommError::Timeout { peer }) | Err(CommError::PeerFailed { rank: peer }) => {
                    if peer < members.len() && members[peer] == me {
                        trace.hit(branch::SELF_CRASH);
                        return Err(CommError::PeerFailed { rank: me });
                    }
                    trace.hit(branch::STALLED_ATTEMPT);
                }
                Err(e) => return Err(e),
            }
        }

        let report = Report { has_full: has_full || drill.claim_full_payload };
        let committed = match fast_round(comm, &members, epoch, report.has_full, cfg).await {
            Ok(c) => c,
            Err(CommError::PeerFailed { rank }) if rank == me => {
                trace.hit(branch::SELF_CRASH);
                return Err(CommError::PeerFailed { rank: me });
            }
            Err(e) => return Err(e),
        };
        if committed {
            trace.hit(if skip_attempt { branch::HEALED_SURVIVORS } else { branch::HEALED_ALL });
            return Ok(Healed { survivors: members, epochs: epoch + 1 });
        }

        let verdict = match agree_async(comm, &members, epoch, &report, cfg, trace).await {
            Ok(v) => v,
            Err(CommError::PeerFailed { rank }) if rank == me => {
                trace.hit(branch::SELF_CRASH);
                return Err(CommError::PeerFailed { rank: me });
            }
            Err(e) => return Err(e),
        };

        if !verdict.dead.is_empty() {
            trace.hit(branch::DEATH_OBSERVED);
            all_dead.extend(verdict.dead.iter().copied());
            trace.deaths_observed = all_dead.len();
        }
        members.retain(|r| !verdict.dead.contains(r));
        match fallback_decision(members.len(), verdict.have_full.len()) {
            Fallback::PayloadLost => {
                trace.hit(branch::PAYLOAD_LOST);
                return Err(CommError::PeerFailed { rank: root });
            }
            Fallback::Retry { skip_attempt: skip } => {
                // `skip_root_succession` is the seeded regression: a dead
                // root keeps the role.
                let keeps_role =
                    verdict.have_full.contains(&current_root) || drill.skip_root_succession;
                if let Some(&lowest) = verdict.have_full.iter().next().filter(|_| !keeps_role) {
                    trace.hit(branch::ROOT_SUCCESSION);
                    trace.succession_depth += 1;
                    trace.root_chain.push(lowest);
                    current_root = lowest;
                }
                skip_attempt = skip;
            }
        }
    }
    trace.hit(branch::EPOCH_BUDGET_EXHAUSTED);
    Err(CommError::Timeout { peer: current_root })
}

/// The symbolic schedule of a degraded rerun: the chosen algorithm emitted
/// for the shrunken world of `members`, spliced back into full-world rank
/// numbering. `root` is the *world* rank of the rerun's root and must be a
/// member. `schedcheck` analyses (matching, deadlock-freedom, coverage of
/// the survivors) apply to it unchanged.
pub fn degraded_bcast_schedule(
    algorithm: Algorithm,
    p: usize,
    nbytes: usize,
    members: &[Rank],
    root: Rank,
) -> Schedule {
    assert!(!members.is_empty(), "at least one survivor is required");
    assert!(members.iter().all(|&m| m < p), "member outside the world");
    let local_root = members
        .iter()
        .position(|&m| m == root)
        .unwrap_or_else(|| panic!("root {root} is not among the survivors {members:?}"));
    let sub = crate::bcast::bcast_schedule(algorithm, members.len(), nbytes, local_root);
    let mut s = Schedule::new(format!("{}@degraded", sub.name), p, nbytes);
    s.ranks[root].mark_valid(0..nbytes);
    for &m in members {
        s.ranks[m].require(0..nbytes);
    }
    s.splice(&sub, members);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{EventWorld, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    fn quick_cfg() -> RecoveryConfig {
        RecoveryConfig { step_timeout: Duration::from_millis(100), ..RecoveryConfig::default() }
    }

    #[test]
    fn report_roundtrip() {
        assert!(Report::decode(&Report { has_full: true }.encode()).unwrap().has_full);
        assert!(!Report::decode(&Report { has_full: false }.encode()).unwrap().has_full);
        assert!(Report::decode(&[2]).is_none(), "garbled byte rejected");
        assert!(Report::decode(&[]).is_none(), "empty frame rejected");
        assert!(Report::decode(&[0, 0]).is_none(), "overlong frame rejected");
    }

    #[test]
    fn fault_free_bcast_completes_in_one_epoch() {
        let n = 777;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 2, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            healed
        });
        for h in &out.results {
            assert_eq!(h.epochs, 1);
            assert_eq!(h.survivors, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fault_free_agreement_is_one_tree_round_trip_on_threads() {
        let n = 2048;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
            self_healing_bcast(comm, &mut buf, 0, &quick_cfg()).unwrap()
        });
        assert!(out.results.iter().all(|h| h.epochs == 1));
        let expect = crate::traffic::bcast_volume(Algorithm::ScatterRingTuned, n, 8)
            .plus(crate::traffic::fast_agreement_volume(8));
        assert_eq!(out.traffic.total_msgs(), expect.msgs);
        assert_eq!(out.traffic.total_bytes(), expect.bytes);
    }

    #[test]
    fn agreement_tree_is_the_binomial_tree() {
        assert_eq!(agreement_tree(0, 8), (None, vec![1, 2, 4]));
        assert_eq!(agreement_tree(4, 8), (Some(0), vec![5, 6]));
        assert_eq!(agreement_tree(6, 8), (Some(4), vec![7]));
        assert_eq!(agreement_tree(7, 8), (Some(6), vec![]));
        assert_eq!(agreement_tree(0, 1), (None, vec![]));
        assert_eq!(agreement_tree(4, 6), (Some(0), vec![5]));
        // Every non-root has exactly one parent that lists it as a child.
        for n in 1..=33 {
            let mut edges = 0;
            for i in 0..n {
                let (parent, children) = agreement_tree(i, n);
                assert_eq!(parent.is_none(), i == 0);
                for c in children {
                    assert_eq!(agreement_tree(c, n).0, Some(i), "n={n}: {c} under {i}");
                    edges += 1;
                }
            }
            assert_eq!(edges, n - 1, "n={n}");
        }
    }

    #[test]
    fn fast_round_folds_and_fallback_rule() {
        assert!(fold_frame(true, Some(&[1])));
        assert!(!fold_frame(true, Some(&[0])));
        assert!(!fold_frame(false, Some(&[1])), "a miss is never undone");
        assert!(!fold_frame(true, None), "a failed receive is not ok");
        assert!(!fold_frame(true, Some(&[7])), "a garbled byte is not ok");
        assert!(!fold_frame(true, Some(&[])), "an empty frame is not ok");
        assert_eq!(fallback_decision(5, 5), Fallback::Retry { skip_attempt: true });
        assert_eq!(fallback_decision(5, 2), Fallback::Retry { skip_attempt: false });
        assert_eq!(fallback_decision(5, 0), Fallback::PayloadLost);
    }

    #[test]
    fn survivors_heal_around_a_rank_that_exits_mid_world() {
        // Acceptance shape: P = 8, one non-root rank dies before taking part
        // in the ring; the 7 survivors must all end up with the payload.
        let n = 4096;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            if comm.rank() == 5 {
                // fail-stop: return without ever participating
                return None;
            }
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 0, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            Some(healed)
        });
        let expected: Vec<Rank> = vec![0, 1, 2, 3, 4, 6, 7];
        for (rank, h) in out.results.iter().enumerate() {
            if rank == 5 {
                assert!(h.is_none());
            } else {
                let h = h.as_ref().unwrap();
                assert_eq!(h.survivors, expected, "rank {rank} saw a different survivor set");
                assert!(h.epochs >= 2, "a healing epoch must have run");
            }
        }
    }

    #[test]
    fn non_root_crash_with_non_default_root_recovers() {
        let n = 1000;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            if comm.rank() == 1 {
                return None;
            }
            let mut buf = if comm.rank() == 3 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 3, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            Some(healed)
        });
        let expected: Vec<Rank> = vec![0, 2, 3, 4, 5, 6, 7];
        for (rank, h) in out.results.iter().enumerate() {
            if rank != 1 {
                assert_eq!(h.as_ref().unwrap().survivors, expected, "rank {rank} disagreed");
            }
        }
    }

    #[test]
    fn root_crash_is_unrecoverable_when_no_one_has_the_payload() {
        let n = 512;
        let out = ThreadWorld::run(4, |comm| {
            if comm.rank() == 0 {
                return None; // the root dies before sending anything
            }
            let mut buf = vec![0u8; n];
            self_healing_bcast(comm, &mut buf, 0, &quick_cfg()).err()
        });
        for (rank, e) in out.results.iter().enumerate() {
            if rank != 0 {
                assert_eq!(
                    *e,
                    Some(CommError::PeerFailed { rank: 0 }),
                    "rank {rank} must learn the payload is lost"
                );
            }
        }
    }

    #[test]
    fn fault_free_async_bcast_on_event_world() {
        let n = 777;
        let src = pattern(n);
        let out = EventWorld::run(8, |comm| {
            let src = src.clone();
            async move {
                let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; n] };
                let healed =
                    self_healing_bcast_async(&comm, &mut buf, 2, &quick_cfg()).await.unwrap();
                assert_eq!(buf, src);
                healed
            }
        });
        for h in &out.results {
            assert_eq!(h.epochs, 1);
            assert_eq!(h.survivors, (0..8).collect::<Vec<_>>());
        }
        assert!(out.traffic.is_balanced(), "fault-free recovery must reconcile exactly");
    }

    #[test]
    fn survivors_heal_around_an_exiting_rank_on_event_world() {
        let n = 4096;
        let src = pattern(n);
        let out = EventWorld::run(8, |comm| {
            let src = src.clone();
            async move {
                if comm.rank() == 5 {
                    return None; // fail-stop before participating
                }
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
                let mut trace = RecoveryTrace::default();
                let healed = self_healing_bcast_traced_async(
                    &comm,
                    &mut buf,
                    0,
                    Algorithm::ScatterRingTuned,
                    &quick_cfg(),
                    &RecoveryDrill::NONE,
                    &mut trace,
                )
                .await
                .unwrap();
                assert_eq!(buf, src);
                Some((healed, trace))
            }
        });
        let expected: Vec<Rank> = vec![0, 1, 2, 3, 4, 6, 7];
        for (rank, res) in out.results.iter().enumerate() {
            if rank == 5 {
                assert!(res.is_none());
                continue;
            }
            let (h, trace) = res.as_ref().unwrap();
            assert_eq!(h.survivors, expected, "rank {rank} saw a different survivor set");
            assert!(h.epochs >= 2, "a healing epoch must have run");
            assert!(trace.saw(branch::DEATH_OBSERVED));
            assert_eq!(trace.deaths_observed, 1);
            assert_eq!(trace.root_chain, vec![0], "root 0 never moved");
        }
    }

    #[test]
    fn async_sub_comm_exchanges_within_subset() {
        let out = EventWorld::run(5, |comm| async move {
            let Some(sc) = SubComm::new_async(&comm, vec![4, 2, 0]) else {
                return 0u8;
            };
            sc.barrier().await.unwrap();
            if sc.rank() == 0 {
                sc.send(&[77], 2, Tag(1)).await.unwrap();
                0
            } else if sc.rank() == 2 {
                let mut b = [0u8; 1];
                sc.recv(&mut b, 0, Tag(1)).await.unwrap();
                b[0]
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 77);
    }

    #[test]
    fn epoch_comm_shifts_tags() {
        let out = ThreadWorld::run(2, |comm| {
            let sync = SyncComm::new(comm);
            let e0 = EpochComm::new(&sync, 0);
            let e1 = EpochComm::new(&sync, 1);
            if comm.rank() == 0 {
                complete_now(e1.send(&[1], 1, Tag(5))).unwrap();
                complete_now(e0.send(&[0], 1, Tag(5))).unwrap();
                0
            } else {
                let mut buf = [0u8; 1];
                // epoch-0 recv must match the epoch-0 send, not the earlier
                // epoch-1 message on the same user tag
                complete_now(e0.recv(&mut buf, 0, Tag(5))).unwrap();
                buf[0]
            }
        });
        assert_eq!(out.results[1], 0);
    }

    #[test]
    fn guarded_comm_times_out_on_silence() {
        let out = ThreadWorld::run(2, |comm| {
            let sync = SyncComm::new(comm);
            let g = GuardedComm::new(&sync, Duration::from_millis(30));
            if comm.rank() == 0 {
                let mut buf = [0u8; 1];
                let err = complete_now(g.recv(&mut buf, 1, Tag(0))).unwrap_err();
                comm.send(&[0], 1, Tag(9)).unwrap();
                Some(err)
            } else {
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 0, Tag(9)).unwrap();
                None
            }
        });
        assert_eq!(out.results[0], Some(CommError::Timeout { peer: 1 }));
    }

    #[test]
    fn degraded_schedule_covers_survivors_only() {
        let members = [0usize, 1, 3, 4, 5, 6, 7]; // rank 2 died
        let s = degraded_bcast_schedule(Algorithm::ScatterRingTuned, 8, 800, &members, 0);
        assert_eq!(s.p, 8);
        assert!(s.ranks[2].ops.is_empty(), "dead rank must have no ops");
        assert!(s.ranks[2].required.is_empty(), "dead rank owes nothing");
        for &m in &members {
            assert_eq!(s.ranks[m].required, vec![0..800]);
            assert!(!s.ranks[m].ops.is_empty());
        }
        // all peers referenced must be survivors
        for rs in &s.ranks {
            for op in &rs.ops {
                if let Some(send) = &op.send {
                    assert!(members.contains(&send.peer));
                }
                if let Some(recv) = &op.recv {
                    assert!(members.contains(&recv.peer));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not among the survivors")]
    fn degraded_schedule_rejects_dead_root() {
        let _ = degraded_bcast_schedule(Algorithm::ScatterRingTuned, 8, 64, &[0, 1, 3], 2);
    }
}
