//! Standalone `MPI_Scatter` and `MPI_Gather` over binomial trees — the
//! dissemination/collection primitives MPICH builds its broadcast scatter
//! phase from, provided here as proper collectives with MPI semantics
//! (uniform block per rank, root holds the full buffer).

use mpsim::{
    absolute_rank, complete_now, relative_rank, AsyncCommunicator, Communicator, Rank, Result,
    SyncComm, Tag,
};

use crate::scatter::{append_scatter_ops, binomial_scatter_async};
use crate::schedule::{Loc, Schedule, ScheduleSource};

/// `MPI_Scatter`: the root's `sendbuf` (length `block × P`, rank order) is
/// split into `P` blocks; rank `r` receives block `r` into `recvbuf`.
///
/// Runs down a binomial tree in root-relative rank space: each internal node
/// receives its whole subtree's blocks and forwards halves, `ceil(log2 P)`
/// latency steps total. Non-root ranks pass an empty `sendbuf`.
pub fn scatter_binomial(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    root: Rank,
) -> Result<()> {
    complete_now(scatter_binomial_async(&SyncComm::new(comm), sendbuf, recvbuf, root))
}

/// Async core of [`scatter_binomial`]: the broadcast's binomial scatter
/// ([`binomial_scatter_async`]) over a staging buffer in *relative* rank
/// order, where each subtree's blocks are contiguous and block `rel` is
/// chunk `rel` of the scatter.
pub async fn scatter_binomial_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    let rank = comm.rank();
    let block = recvbuf.len();
    let relative = relative_rank(rank, root, size);

    let mut stage = vec![0u8; block * size];
    if rank == root {
        assert_eq!(sendbuf.len(), block * size, "root scatter buffer must be block × P");
        for rel in 0..size {
            let abs = absolute_rank(rel, root, size);
            stage[rel * block..(rel + 1) * block]
                .copy_from_slice(&sendbuf[abs * block..(abs + 1) * block]);
        }
    }
    binomial_scatter_async(comm, &mut stage, root).await?;
    recvbuf.copy_from_slice(&stage[relative * block..(relative + 1) * block]);
    Ok(())
}

/// `MPI_Gather`: rank `r`'s `sendbuf` (one block) ends up at block `r` of the
/// root's `recvbuf` — the binomial mirror image of [`scatter_binomial`]:
/// leaves send first, internal nodes accumulate their subtree before
/// forwarding to their parent.
pub fn gather_binomial(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    root: Rank,
) -> Result<()> {
    complete_now(gather_binomial_async(&SyncComm::new(comm), sendbuf, recvbuf, root))
}

/// Async core of [`gather_binomial`].
pub async fn gather_binomial_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    let rank = comm.rank();
    let block = sendbuf.len();
    if rank == root {
        assert_eq!(recvbuf.len(), block * size, "root gather buffer must be block × P");
    }

    let relative = relative_rank(rank, root, size);
    let mut stage = vec![0u8; block * size];
    stage[relative * block..(relative + 1) * block].copy_from_slice(sendbuf);
    let mut have = 1usize; // contiguous blocks held from our relative slot

    // Collect from children (nearest first — the reverse of scatter's order).
    let mut mask = 1usize;
    while mask < size {
        if relative & mask != 0 {
            // We have collected our whole subtree: ship it to the parent.
            let dst = absolute_rank(relative - mask, root, size);
            comm.send(&stage[relative * block..(relative + have) * block], dst, Tag::GATHER)
                .await?;
            break;
        }
        let child_rel = relative + mask;
        if child_rel < size {
            let child_blocks = mask.min(size - child_rel);
            let got = comm
                .recv(
                    &mut stage[child_rel * block..(child_rel + child_blocks) * block],
                    absolute_rank(child_rel, root, size),
                    Tag::GATHER,
                )
                .await?;
            debug_assert_eq!(got, child_blocks * block);
            have += child_blocks;
        }
        mask <<= 1;
    }

    if rank == root {
        debug_assert_eq!(have, size);
        for rel in 0..size {
            let abs = absolute_rank(rel, root, size);
            recvbuf[abs * block..(abs + 1) * block]
                .copy_from_slice(&stage[rel * block..(rel + 1) * block]);
        }
    }
    Ok(())
}

/// Emit the symbolic schedule of [`scatter_binomial`] in the *relative-order
/// staging* coordinates the executed code uses (slot `rel` = block of the
/// rank at relative position `rel`): the root holds all `P` slots initially,
/// every rank requires exactly its own slot at the end, and the ops are the
/// broadcast scatter's.
pub fn scatter_binomial_schedule(p: usize, block: usize, root: Rank) -> Schedule {
    let mut s = Schedule::new("scatter/binomial", p, block * p);
    s.ranks[root].mark_valid(0..block * p);
    for rank in 0..p {
        let relative = relative_rank(rank, root, p);
        s.ranks[rank].require(relative * block..(relative + 1) * block);
    }
    append_scatter_ops(&mut s, root);
    s
}

/// Emit the symbolic schedule of [`gather_binomial`] in the same relative
/// staging coordinates: every rank's own slot starts valid and only the root
/// requires the full staging buffer at the end.
pub fn gather_binomial_schedule(p: usize, block: usize, root: Rank) -> Schedule {
    let mut s = Schedule::new("gather/binomial", p, block * p);
    for rank in 0..p {
        let relative = relative_rank(rank, root, p);
        s.ranks[rank].mark_valid(relative * block..(relative + 1) * block);
    }
    s.ranks[root].require(0..block * p);
    for rank in 0..p {
        let relative = relative_rank(rank, root, p);
        let mut have = 1usize;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let dst = absolute_rank(relative - mask, root, p);
                s.ranks[rank].send(
                    "gather",
                    dst,
                    Tag::GATHER,
                    Loc::Buf(relative * block..(relative + have) * block),
                );
                break;
            }
            let child_rel = relative + mask;
            if child_rel < p {
                let child_blocks = mask.min(p - child_rel);
                s.ranks[rank].recv(
                    "gather",
                    absolute_rank(child_rel, root, p),
                    Tag::GATHER,
                    Loc::Buf(child_rel * block..(child_rel + child_blocks) * block),
                );
                have += child_blocks;
            }
            mask <<= 1;
        }
    }
    s
}

struct ScatterSource;
struct GatherSource;

impl ScheduleSource for ScatterSource {
    fn name(&self) -> &'static str {
        "scatter/binomial"
    }

    fn supports(&self, _p: usize) -> bool {
        true
    }

    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        scatter_binomial_schedule(p, nbytes, root)
    }
}

impl ScheduleSource for GatherSource {
    fn name(&self) -> &'static str {
        "gather/binomial"
    }

    fn supports(&self, _p: usize) -> bool {
        true
    }

    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        gather_binomial_schedule(p, nbytes, root)
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![Box::new(ScatterSource), Box::new(GatherSource)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    fn root_payload(size: usize, block: usize) -> Vec<u8> {
        (0..size).flat_map(|r| (0..block).map(move |i| ((r * 37 + i * 11) % 251) as u8)).collect()
    }

    #[test]
    fn scatter_delivers_each_block() {
        for &(size, block, root) in &[
            (1usize, 4usize, 0usize),
            (2, 3, 1),
            (8, 16, 0),
            (8, 16, 5),
            (10, 7, 9),
            (13, 1, 6),
            (5, 0, 2),
        ] {
            let payload = root_payload(size, block);
            let out = ThreadWorld::run(size, |comm| {
                let sendbuf = if comm.rank() == root { payload.clone() } else { Vec::new() };
                let mut recvbuf = vec![0u8; block];
                scatter_binomial(comm, &sendbuf, &mut recvbuf, root).unwrap();
                recvbuf
            });
            for (rank, buf) in out.results.iter().enumerate() {
                assert_eq!(
                    buf,
                    &payload[rank * block..(rank + 1) * block],
                    "size={size} block={block} root={root} rank={rank}"
                );
            }
            // binomial scatter: exactly one message per non-root rank, and
            // none at all when there are no bytes to scatter
            let want = if block > 0 { size - 1 } else { 0 };
            assert_eq!(out.traffic.total_msgs(), want as u64);
        }
    }

    #[test]
    fn gather_collects_each_block() {
        for &(size, block, root) in &[
            (1usize, 4usize, 0usize),
            (2, 3, 0),
            (8, 16, 0),
            (8, 16, 3),
            (10, 7, 9),
            (13, 2, 12),
            (6, 0, 1),
        ] {
            let out = ThreadWorld::run(size, |comm| {
                let sendbuf: Vec<u8> =
                    (0..block).map(|i| ((comm.rank() * 37 + i * 11) % 251) as u8).collect();
                let mut recvbuf =
                    if comm.rank() == root { vec![0u8; block * size] } else { Vec::new() };
                gather_binomial(comm, &sendbuf, &mut recvbuf, root).unwrap();
                recvbuf
            });
            assert_eq!(
                out.results[root],
                root_payload(size, block),
                "size={size} block={block} root={root}"
            );
            assert_eq!(out.traffic.total_msgs(), (size - 1) as u64);
        }
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let (size, block, root) = (11usize, 9usize, 4usize);
        let payload = root_payload(size, block);
        let out = ThreadWorld::run(size, |comm| {
            let sendbuf = if comm.rank() == root { payload.clone() } else { Vec::new() };
            let mut mine = vec![0u8; block];
            scatter_binomial(comm, &sendbuf, &mut mine, root).unwrap();
            let mut gathered =
                if comm.rank() == root { vec![0u8; block * size] } else { Vec::new() };
            gather_binomial(comm, &mine, &mut gathered, root).unwrap();
            gathered
        });
        assert_eq!(out.results[root], payload);
    }

    #[test]
    fn scatter_gather_message_sizes_follow_subtrees() {
        // Internal tree nodes carry whole subtrees: total wire bytes equal
        // sum over non-root ranks of subtree_blocks × block.
        let (size, block) = (10usize, 8usize);
        let payload = root_payload(size, block);
        let out = ThreadWorld::run(size, |comm| {
            let sendbuf = if comm.rank() == 0 { payload.clone() } else { Vec::new() };
            let mut recvbuf = vec![0u8; block];
            scatter_binomial(comm, &sendbuf, &mut recvbuf, 0).unwrap();
        });
        let expected: usize =
            (1..size).map(|rel| crate::scatter::owned_chunks(rel, size) * block).sum();
        assert_eq!(out.traffic.total_bytes(), expected as u64);
    }
}
