//! `MPI_Alltoall` — personalized all-to-all exchange, MPICH repertoire:
//!
//! * [`alltoall_pairwise`] — `P − 1` steps; at step `i` rank `r` exchanges
//!   directly with `r ^ i` (power-of-two worlds) or with `(r ± i) mod P`
//!   (general case). Bandwidth-optimal; MPICH's long-message choice.
//! * [`alltoall_bruck`] — `ceil(log2 P)` steps moving packed block groups;
//!   latency-optimal for short messages at the cost of `log P / 2` extra
//!   data volume. MPICH's short-message choice.
//! * [`alltoall_auto`] — dispatch on total payload (MPICH switches around
//!   256 bytes per block for Bruck, pairwise beyond).
//!
//! Semantics: `sendbuf` holds `P` blocks of `block` bytes in destination
//! order; after the call `recvbuf[j]`-th block is the block rank `j`
//! addressed to us.

use mpsim::{complete_now, is_pof2, AsyncCommunicator, Communicator, Result, SyncComm, Tag};

use crate::schedule::{Loc, Schedule, ScheduleSource};

/// MPICH's alltoall threshold: below this many bytes *per block*, use Bruck.
pub const ALLTOALL_SHORT_BLOCK: usize = 256;

const A2A: Tag = Tag(0xF0);

fn check(size: usize, sendbuf: &[u8], recvbuf: &[u8]) -> usize {
    assert_eq!(sendbuf.len(), recvbuf.len(), "alltoall buffers must match");
    assert_eq!(sendbuf.len() % size, 0, "alltoall buffers must hold P equal blocks");
    sendbuf.len() / size
}

/// Pairwise-exchange alltoall: direct exchanges, `P − 1` steps.
pub fn alltoall_pairwise(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(alltoall_pairwise_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`alltoall_pairwise`].
pub async fn alltoall_pairwise_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    let size = comm.size();
    let block = check(size, sendbuf, recvbuf);
    let rank = comm.rank();

    // own block copies locally
    recvbuf[rank * block..(rank + 1) * block]
        .copy_from_slice(&sendbuf[rank * block..(rank + 1) * block]);

    for i in 1..size {
        // power-of-two worlds pair up by XOR (perfect matching per step);
        // otherwise use the shifted ring pairing send→(r+i), recv←(r−i).
        let (send_to, recv_from) = if is_pof2(size) {
            (rank ^ i, rank ^ i)
        } else {
            ((rank + i) % size, (rank + size - i) % size)
        };
        comm.sendrecv(
            &sendbuf[send_to * block..(send_to + 1) * block],
            send_to,
            A2A,
            &mut recvbuf[recv_from * block..(recv_from + 1) * block],
            recv_from,
            A2A,
        )
        .await?;
    }
    Ok(())
}

/// Bruck alltoall: pack-and-forward in `ceil(log2 P)` rounds.
pub fn alltoall_bruck(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(alltoall_bruck_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`alltoall_bruck`].
pub async fn alltoall_bruck_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    let size = comm.size();
    let block = check(size, sendbuf, recvbuf);
    let rank = comm.rank();
    if size == 1 {
        recvbuf.copy_from_slice(sendbuf);
        return Ok(());
    }

    // Phase 1: local rotation — slot k holds the block destined to
    // (rank + k) % P.
    let mut work = vec![0u8; size * block];
    for k in 0..size {
        let dest = (rank + k) % size;
        work[k * block..(k + 1) * block]
            .copy_from_slice(&sendbuf[dest * block..(dest + 1) * block]);
    }

    // Phase 2: for each bit, ship all slots with that bit set to
    // (rank + 2^bit), receiving the analogous slots from (rank − 2^bit).
    let mut gather = Vec::with_capacity(size / 2 * block);
    let mut incoming = vec![0u8; size.div_ceil(2) * block];
    let mut bit = 1usize;
    let mut round = 0u32;
    while bit < size {
        gather.clear();
        let slots: Vec<usize> = (0..size).filter(|k| k & bit != 0).collect();
        for &k in &slots {
            gather.extend_from_slice(&work[k * block..(k + 1) * block]);
        }
        let to = (rank + bit) % size;
        let from = (rank + size - bit) % size;
        let tag = Tag(A2A.0 + 1 + round);
        let n = comm.sendrecv(&gather, to, tag, &mut incoming, from, tag).await?;
        debug_assert_eq!(n, slots.len() * block);
        for (idx, &k) in slots.iter().enumerate() {
            work[k * block..(k + 1) * block]
                .copy_from_slice(&incoming[idx * block..(idx + 1) * block]);
        }
        bit <<= 1;
        round += 1;
    }

    // Phase 3: inverse rotation — slot k now holds the block *from* rank
    // (rank − k) % P.
    for k in 0..size {
        let src = (rank + size - k) % size;
        recvbuf[src * block..(src + 1) * block].copy_from_slice(&work[k * block..(k + 1) * block]);
    }
    Ok(())
}

/// MPICH-style dispatch: Bruck for short blocks, pairwise otherwise.
pub fn alltoall_auto(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    complete_now(alltoall_auto_async(&SyncComm::new(comm), sendbuf, recvbuf))
}

/// Async core of [`alltoall_auto`].
pub async fn alltoall_auto_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
) -> Result<()> {
    let size = comm.size().max(1);
    if sendbuf.len() / size < ALLTOALL_SHORT_BLOCK {
        alltoall_bruck_async(comm, sendbuf, recvbuf).await
    } else {
        alltoall_pairwise_async(comm, sendbuf, recvbuf).await
    }
}

/// Emit the symbolic schedule of [`alltoall_pairwise`] for `block` bytes per
/// destination. The tracked buffer is `recvbuf`; sends come out of the
/// caller's `sendbuf` and are modeled as [`Loc::Private`].
pub fn alltoall_pairwise_schedule(p: usize, block: usize) -> Schedule {
    let mut s = Schedule::new("alltoall/pairwise", p, block * p);
    for rank in 0..p {
        s.ranks[rank].mark_valid(rank * block..(rank + 1) * block);
        s.ranks[rank].require(0..block * p);
    }
    for rank in 0..p {
        for i in 1..p {
            let (send_to, recv_from) = if is_pof2(p) {
                (rank ^ i, rank ^ i)
            } else {
                ((rank + i) % p, (rank + p - i) % p)
            };
            s.ranks[rank].sendrecv(
                "pairwise",
                send_to,
                A2A,
                Loc::Private(block),
                recv_from,
                A2A,
                Loc::Buf(recv_from * block..(recv_from + 1) * block),
            );
        }
    }
    s
}

/// Emit the symbolic schedule of [`alltoall_bruck`].
///
/// The Bruck staging buffer is overwritten in place each round, so its bytes
/// are not write-once trackable; both halves of every exchange are modeled as
/// [`Loc::Private`] (send length, receive capacity) — the matching, deadlock
/// and traffic analyses still apply in full.
pub fn alltoall_bruck_schedule(p: usize, block: usize) -> Schedule {
    let mut s = Schedule::new("alltoall/bruck", p, 0);
    if p == 1 {
        return s;
    }
    let recv_capacity = p.div_ceil(2) * block;
    for rank in 0..p {
        let mut bit = 1usize;
        let mut round = 0u32;
        while bit < p {
            let slots = (0..p).filter(|k| k & bit != 0).count();
            let to = (rank + bit) % p;
            let from = (rank + p - bit) % p;
            let tag = Tag(A2A.0 + 1 + round);
            s.ranks[rank].sendrecv(
                "bruck",
                to,
                tag,
                Loc::Private(slots * block),
                from,
                tag,
                Loc::Private(recv_capacity),
            );
            bit <<= 1;
            round += 1;
        }
    }
    s
}

struct AlltoallSource {
    bruck: bool,
}

impl ScheduleSource for AlltoallSource {
    fn name(&self) -> &'static str {
        if self.bruck {
            "alltoall/bruck"
        } else {
            "alltoall/pairwise"
        }
    }

    fn supports(&self, _p: usize) -> bool {
        true
    }

    fn schedule(&self, p: usize, nbytes: usize, _root: usize) -> Schedule {
        if self.bruck {
            alltoall_bruck_schedule(p, nbytes)
        } else {
            alltoall_pairwise_schedule(p, nbytes)
        }
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![Box::new(AlltoallSource { bruck: false }), Box::new(AlltoallSource { bruck: true })]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    /// Block rank `s` sends to rank `d`: a recognizable function of both.
    fn block_for(s: usize, d: usize, block: usize) -> Vec<u8> {
        (0..block).map(|i| ((s * 13 + d * 7 + i) % 251) as u8).collect()
    }

    fn run(which: u8, size: usize, block: usize) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
        let out = ThreadWorld::run(size, |comm| {
            let me = comm.rank();
            let sendbuf: Vec<u8> = (0..size).flat_map(|d| block_for(me, d, block)).collect();
            let mut recvbuf = vec![0u8; size * block];
            match which {
                0 => alltoall_pairwise(comm, &sendbuf, &mut recvbuf).unwrap(),
                1 => alltoall_bruck(comm, &sendbuf, &mut recvbuf).unwrap(),
                _ => alltoall_auto(comm, &sendbuf, &mut recvbuf).unwrap(),
            }
            recvbuf
        });
        (out.results, out.traffic)
    }

    fn check_result(bufs: &[Vec<u8>], size: usize, block: usize, label: &str) {
        for (d, buf) in bufs.iter().enumerate() {
            for s in 0..size {
                assert_eq!(
                    &buf[s * block..(s + 1) * block],
                    &block_for(s, d, block),
                    "{label}: block {s}->{d} wrong (size={size} block={block})"
                );
            }
        }
    }

    #[test]
    fn pairwise_exchanges_everything() {
        for &(size, block) in
            &[(1usize, 4usize), (2, 8), (4, 16), (8, 3), (5, 9), (10, 2), (13, 1), (6, 0)]
        {
            let (bufs, traffic) = run(0, size, block);
            check_result(&bufs, size, block, "pairwise");
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size * (size - 1)) as u64);
            }
        }
    }

    #[test]
    fn bruck_exchanges_everything() {
        for &(size, block) in
            &[(1usize, 4usize), (2, 8), (3, 5), (4, 16), (8, 3), (5, 9), (10, 2), (13, 1)]
        {
            let (bufs, traffic) = run(1, size, block);
            check_result(&bufs, size, block, "bruck");
            if size > 1 {
                assert_eq!(
                    traffic.total_msgs(),
                    (size as u64) * u64::from(mpsim::ceil_log2(size)),
                    "size={size}"
                );
            }
        }
    }

    #[test]
    fn bruck_fewer_messages_pairwise_fewer_bytes() {
        let (_, pw) = run(0, 10, 64);
        let (_, br) = run(1, 10, 64);
        assert!(br.total_msgs() < pw.total_msgs());
        assert!(br.total_bytes() > pw.total_bytes(), "Bruck pays volume for latency");
    }

    #[test]
    fn auto_picks_correctly_and_works() {
        let (bufs, _) = run(2, 9, 16); // short → Bruck
        check_result(&bufs, 9, 16, "auto-short");
        let (bufs, _) = run(2, 9, 1024); // long → pairwise
        check_result(&bufs, 9, 1024, "auto-long");
    }
}
