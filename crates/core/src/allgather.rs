//! Standalone `MPI_Allgather` — the collective whose *ring* variant MPICH
//! reuses inside the broadcast studied by the paper.
//!
//! In a true allgather every rank starts with exactly one block, so the
//! enclosed ring is *not* wasteful here — the redundancy the paper removes
//! only exists in the broadcast context, where the preceding binomial
//! scatter leaves subtree roots holding more than their own block. Having
//! the real collective alongside the broadcast-internal phase makes that
//! distinction concrete (and testable).
//!
//! Implemented variants mirror MPICH's repertoire:
//!
//! * [`allgather_ring`] — `P − 1` steps of neighbour exchange; bandwidth
//!   optimal (`(P−1)/P · n` bytes per rank), latency `O(P)`. MPICH's choice
//!   for long messages and medium/non-power-of-two.
//! * [`allgather_rd`] — recursive doubling, `log2 P` steps; power-of-two
//!   worlds only. MPICH's choice for short/medium power-of-two.
//! * [`allgather_bruck`] — Bruck's algorithm, `ceil(log2 P)` steps for *any*
//!   `P`, at the cost of a local re-rotation. MPICH's choice for short
//!   non-power-of-two.
//! * [`allgather_auto`] — MPICH's dispatcher over the above.

use mpsim::{
    ceil_log2, complete_now, is_pof2, AsyncCommunicator, Communicator, Result, SyncComm, Tag,
};

use crate::chunks::ChunkLayout;
use crate::rd_allgather::{append_rd_ops, rd_allgather_async};
use crate::ring::{append_native_ring_ops, ring_allgather_native_async};
use crate::schedule::{Loc, Schedule, ScheduleSource};

/// MPICH's allgather switching thresholds, in *total* gathered bytes
/// (`MPIR_CVAR_ALLGATHER_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllgatherThresholds {
    /// Below this total size, non-power-of-two worlds use Bruck
    /// (`ALLGATHER_SHORT_MSG_SIZE`, default 81920).
    pub short_msg: usize,
    /// Below this total size, power-of-two worlds use recursive doubling
    /// (`ALLGATHER_LONG_MSG_SIZE`, default 524288); at or above, everyone
    /// uses the ring.
    pub long_msg: usize,
}

impl Default for AllgatherThresholds {
    fn default() -> Self {
        Self { short_msg: 81920, long_msg: 524288 }
    }
}

/// Which allgather algorithm the dispatcher picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgorithm {
    /// Neighbour-exchange ring.
    Ring,
    /// Recursive doubling (power-of-two worlds).
    RecursiveDoubling,
    /// Bruck's dissemination algorithm.
    Bruck,
}

/// MPICH's selection: recursive doubling for power-of-two worlds below the
/// long threshold, Bruck for short non-power-of-two, ring otherwise.
pub fn select_allgather(
    total_bytes: usize,
    size: usize,
    th: &AllgatherThresholds,
) -> AllgatherAlgorithm {
    if total_bytes < th.long_msg && is_pof2(size) {
        AllgatherAlgorithm::RecursiveDoubling
    } else if total_bytes < th.short_msg {
        AllgatherAlgorithm::Bruck
    } else {
        AllgatherAlgorithm::Ring
    }
}

fn check_args(size: usize, sendbuf: &[u8], recvbuf: &[u8]) {
    assert_eq!(
        recvbuf.len(),
        sendbuf.len() * size,
        "allgather receive buffer must hold size × block bytes"
    );
}

/// Copy this rank's block into its slot of `recvbuf` — the initial state of
/// an allgather, where rank `r` holds block `r` and nothing else.
fn place_own_block(rank: usize, size: usize, sendbuf: &[u8], recvbuf: &mut [u8]) {
    check_args(size, sendbuf, recvbuf);
    let block = sendbuf.len();
    recvbuf[rank * block..(rank + 1) * block].copy_from_slice(sendbuf);
}

/// Ring allgather: at step `i`, forward the block received at step `i−1`
/// to the right neighbour while receiving a new one from the left.
pub fn allgather_ring(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(allgather_ring_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`allgather_ring`]: the broadcast's enclosed ring
/// ([`ring_allgather_native_async`]) rooted at rank 0, whose walk starts
/// from exactly one block per rank — the allgather's initial state.
pub async fn allgather_ring_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    place_own_block(comm.rank(), comm.size(), sendbuf, recvbuf);
    ring_allgather_native_async(comm, recvbuf, 0).await
}

/// Recursive-doubling allgather: `log2 P` pairwise block-interval exchanges.
///
/// # Panics
///
/// Panics on non-power-of-two worlds, mirroring MPICH's dispatch contract.
pub fn allgather_rd(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(allgather_rd_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`allgather_rd`]: the broadcast's recursive-doubling walk
/// ([`rd_allgather_async`]) rooted at rank 0.
///
/// # Panics
///
/// Panics on non-power-of-two worlds, like the sync wrapper.
pub async fn allgather_rd_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    place_own_block(comm.rank(), comm.size(), sendbuf, recvbuf);
    rd_allgather_async(comm, recvbuf, 0).await
}

/// Bruck allgather: `ceil(log2 P)` doubling steps on a rank-rotated layout,
/// then a local rotation back into rank order. Works for any `P`.
pub fn allgather_bruck(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(allgather_bruck_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`allgather_bruck`].
pub async fn allgather_bruck_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    let size = comm.size();
    check_args(size, sendbuf, recvbuf);
    let rank = comm.rank();
    let block = sendbuf.len();

    // Work in a rotated space: slot k holds the block of rank (rank + k) % P.
    let mut tmp = vec![0u8; block * size];
    tmp[..block].copy_from_slice(sendbuf);

    let mut have = 1usize; // contiguous blocks held (rotated order)
    let rounds = if size > 1 { ceil_log2(size) } else { 0 };
    for k in 0..rounds {
        let dist = 1usize << k;
        let send_to = (rank + size - dist) % size;
        let recv_from = (rank + dist) % size;
        let count = have.min(size - have);
        let tag = Tag(Tag::ALLGATHER.0 + 1 + k);
        let (lo, hi) = tmp.split_at_mut(have * block);
        // Send my first `count` blocks; receive the next `count` blocks.
        comm.sendrecv(&lo[..count * block], send_to, tag, &mut hi[..count * block], recv_from, tag)
            .await?;
        have += count;
        if have == size {
            break;
        }
    }
    debug_assert_eq!(have, size);

    // Rotate back: rotated slot k is the block of rank (rank + k) % P.
    for k in 0..size {
        let owner = (rank + k) % size;
        recvbuf[owner * block..(owner + 1) * block]
            .copy_from_slice(&tmp[k * block..(k + 1) * block]);
    }
    Ok(())
}

/// MPICH-style dispatcher over the three variants.
pub fn allgather_auto(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    th: &AllgatherThresholds,
) -> Result<()> {
    complete_now(allgather_auto_async(&SyncComm::new(comm), sendbuf, recvbuf, th))
}

/// Async core of [`allgather_auto`].
pub async fn allgather_auto_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    th: &AllgatherThresholds,
) -> Result<()> {
    match select_allgather(sendbuf.len() * comm.size(), comm.size(), th) {
        AllgatherAlgorithm::RecursiveDoubling => allgather_rd_async(comm, sendbuf, recvbuf).await,
        AllgatherAlgorithm::Bruck => allgather_bruck_async(comm, sendbuf, recvbuf).await,
        AllgatherAlgorithm::Ring => allgather_ring_async(comm, sendbuf, recvbuf).await,
    }
}

/// Emit the symbolic schedule of [`allgather_ring`] for `block` bytes per
/// rank: the own-block copy becomes initial validity, then the broadcast's
/// enclosed-ring ops at root 0.
pub fn allgather_ring_schedule(p: usize, block: usize) -> Schedule {
    let mut s = own_block_schedule("allgather/ring", p, block);
    append_native_ring_ops(&mut s, 0);
    s
}

/// Emit the symbolic schedule of [`allgather_rd`] (power-of-two worlds): the
/// broadcast's recursive-doubling ops at root 0.
pub fn allgather_rd_schedule(p: usize, block: usize) -> Schedule {
    let mut s = own_block_schedule("allgather/rd", p, block);
    append_rd_ops(&mut s, 0);
    s
}

/// An allgather schedule with no ops yet: every rank holds its own block
/// and must end holding all `P`.
fn own_block_schedule(name: &'static str, p: usize, block: usize) -> Schedule {
    let layout = ChunkLayout::new(block * p, p);
    let mut s = Schedule::new(name, p, block * p);
    for rank in 0..p {
        s.ranks[rank].mark_valid(layout.range(rank));
        s.ranks[rank].require(0..block * p);
    }
    s
}

/// Emit the symbolic schedule of [`allgather_bruck`], tracked in the
/// *rotated* staging space (slot `k` = block of rank `(rank + k) % P`): the
/// staging buffer is written once per slot, so coverage analysis applies;
/// the final local rotation back into rank order moves no messages.
pub fn allgather_bruck_schedule(p: usize, block: usize) -> Schedule {
    let mut s = Schedule::new("allgather/bruck", p, block * p);
    for rank in 0..p {
        s.ranks[rank].mark_valid(0..block);
        s.ranks[rank].require(0..block * p);
    }
    let rounds = if p > 1 { ceil_log2(p) } else { 0 };
    for rank in 0..p {
        let mut have = 1usize;
        for k in 0..rounds {
            let dist = 1usize << k;
            let send_to = (rank + p - dist) % p;
            let recv_from = (rank + dist) % p;
            let count = have.min(p - have);
            let tag = Tag(Tag::ALLGATHER.0 + 1 + k);
            s.ranks[rank].sendrecv(
                "bruck",
                send_to,
                tag,
                Loc::Buf(0..count * block),
                recv_from,
                tag,
                Loc::Buf(have * block..(have + count) * block),
            );
            have += count;
            if have == p {
                break;
            }
        }
    }
    s
}

struct AllgatherSource(AllgatherAlgorithm);

impl ScheduleSource for AllgatherSource {
    fn name(&self) -> &'static str {
        match self.0 {
            AllgatherAlgorithm::Ring => "allgather/ring",
            AllgatherAlgorithm::RecursiveDoubling => "allgather/rd",
            AllgatherAlgorithm::Bruck => "allgather/bruck",
        }
    }

    fn supports(&self, p: usize) -> bool {
        self.0 != AllgatherAlgorithm::RecursiveDoubling || is_pof2(p)
    }

    fn schedule(&self, p: usize, nbytes: usize, _root: usize) -> Schedule {
        match self.0 {
            AllgatherAlgorithm::Ring => allgather_ring_schedule(p, nbytes),
            AllgatherAlgorithm::RecursiveDoubling => allgather_rd_schedule(p, nbytes),
            AllgatherAlgorithm::Bruck => allgather_bruck_schedule(p, nbytes),
        }
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![
        Box::new(AllgatherSource(AllgatherAlgorithm::Ring)),
        Box::new(AllgatherSource(AllgatherAlgorithm::RecursiveDoubling)),
        Box::new(AllgatherSource(AllgatherAlgorithm::Bruck)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    /// Run one variant and return every rank's gathered buffer + traffic.
    fn run(
        algo: AllgatherAlgorithm,
        size: usize,
        block: usize,
    ) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
        let out = ThreadWorld::run(size, |comm| {
            let me = comm.rank() as u8;
            let sendbuf: Vec<u8> = (0..block).map(|i| me ^ (i as u8)).collect();
            let mut recvbuf = vec![0u8; block * comm.size()];
            match algo {
                AllgatherAlgorithm::Ring => allgather_ring(comm, &sendbuf, &mut recvbuf),
                AllgatherAlgorithm::RecursiveDoubling => allgather_rd(comm, &sendbuf, &mut recvbuf),
                AllgatherAlgorithm::Bruck => allgather_bruck(comm, &sendbuf, &mut recvbuf),
            }
            .unwrap();
            recvbuf
        });
        (out.results, out.traffic)
    }

    fn expected(size: usize, block: usize) -> Vec<u8> {
        (0..size).flat_map(|r| (0..block).map(move |i| (r as u8) ^ (i as u8))).collect()
    }

    #[test]
    fn ring_gathers_everything() {
        for &(size, block) in &[(1usize, 4usize), (2, 8), (8, 16), (10, 3), (13, 1), (7, 0)] {
            let (bufs, traffic) = run(AllgatherAlgorithm::Ring, size, block);
            let want = expected(size, block);
            for (rank, buf) in bufs.iter().enumerate() {
                assert_eq!(buf, &want, "ring size={size} block={block} rank={rank}");
            }
            assert!(traffic.is_balanced());
            // true allgather ring: exactly P(P−1) messages — here that IS optimal
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size * (size - 1)) as u64);
            }
        }
    }

    #[test]
    fn rd_gathers_everything_pof2() {
        for &(size, block) in &[(1usize, 5usize), (2, 7), (4, 4), (8, 9), (16, 2)] {
            let (bufs, traffic) = run(AllgatherAlgorithm::RecursiveDoubling, size, block);
            let want = expected(size, block);
            for buf in &bufs {
                assert_eq!(buf, &want, "rd size={size} block={block}");
            }
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size as u64) * u64::from(size.trailing_zeros()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rd_rejects_npof2() {
        run(AllgatherAlgorithm::RecursiveDoubling, 6, 4);
    }

    #[test]
    fn bruck_gathers_everything_any_p() {
        for &(size, block) in
            &[(1usize, 4usize), (2, 3), (3, 5), (5, 8), (8, 2), (10, 7), (13, 1), (9, 0)]
        {
            let (bufs, traffic) = run(AllgatherAlgorithm::Bruck, size, block);
            let want = expected(size, block);
            for (rank, buf) in bufs.iter().enumerate() {
                assert_eq!(buf, &want, "bruck size={size} block={block} rank={rank}");
            }
            // ceil(log2 P) steps, one message per rank per step
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size as u64) * u64::from(mpsim::ceil_log2(size)));
            }
        }
    }

    #[test]
    fn bruck_uses_fewer_messages_than_ring_for_npof2() {
        let (_, ring) = run(AllgatherAlgorithm::Ring, 10, 4);
        let (_, bruck) = run(AllgatherAlgorithm::Bruck, 10, 4);
        assert!(bruck.total_msgs() < ring.total_msgs());
    }

    #[test]
    fn selection_matches_mpich() {
        let th = AllgatherThresholds::default();
        assert_eq!(select_allgather(1024, 16, &th), AllgatherAlgorithm::RecursiveDoubling);
        assert_eq!(select_allgather(1024, 10, &th), AllgatherAlgorithm::Bruck);
        assert_eq!(select_allgather(100_000, 10, &th), AllgatherAlgorithm::Ring);
        assert_eq!(select_allgather(100_000, 16, &th), AllgatherAlgorithm::RecursiveDoubling);
        assert_eq!(select_allgather(1 << 20, 16, &th), AllgatherAlgorithm::Ring);
        assert_eq!(select_allgather(1 << 20, 10, &th), AllgatherAlgorithm::Ring);
    }

    #[test]
    fn auto_dispatch_correct_for_every_branch() {
        let th = AllgatherThresholds { short_msg: 64, long_msg: 256 };
        for &(size, block) in &[(8usize, 4usize), (10, 4), (8, 64), (10, 64), (10, 2)] {
            let out = ThreadWorld::run(size, |comm| {
                let me = comm.rank() as u8;
                let sendbuf: Vec<u8> = (0..block).map(|i| me ^ (i as u8)).collect();
                let mut recvbuf = vec![0u8; block * comm.size()];
                allgather_auto(comm, &sendbuf, &mut recvbuf, &th).unwrap();
                recvbuf
            });
            let want = expected(size, block);
            for buf in &out.results {
                assert_eq!(buf, &want, "auto size={size} block={block}");
            }
        }
    }
}
