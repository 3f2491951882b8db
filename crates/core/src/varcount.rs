//! Variable-count collectives — `MPI_Allgatherv`, `MPI_Scatterv`,
//! `MPI_Gatherv` — the irregular-block versions real applications use when
//! their domain decomposition doesn't divide evenly (the paper's Section I
//! notes non-power-of-two worlds often arise exactly this way, from
//! "splitting on the communicator in the applications").
//!
//! Counts/displacements follow MPI semantics: `counts[r]` bytes from rank
//! `r`, placed at `displs[r]` of the assembled buffer. Every rank must pass
//! identical `counts`/`displs` (collective arguments).

use mpsim::{
    absolute_rank, complete_now, relative_rank, ring_left, ring_right, split_send_recv,
    AsyncCommunicator, Communicator, Rank, Result, SyncComm, Tag,
};

const AGV: Tag = Tag(0xF8);
const SCV: Tag = Tag(0xF9);
const GAV: Tag = Tag(0xFA);

/// Contiguous displacements for `counts` (the common packed layout).
pub fn packed_displs(counts: &[usize]) -> Vec<usize> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        displs.push(acc);
        acc += c;
    }
    displs
}

/// Total bytes covered by `counts`.
pub fn total(counts: &[usize]) -> usize {
    counts.iter().sum()
}

fn check_layout(counts: &[usize], displs: &[usize], len: usize) {
    assert_eq!(counts.len(), displs.len());
    for (&c, &d) in counts.iter().zip(displs) {
        assert!(d + c <= len, "count/displacement escapes the buffer");
    }
}

/// Ring allgatherv: rank `r` contributes `sendbuf` (`counts[r]` bytes);
/// every rank assembles all contributions into `recvbuf` at `displs`.
///
/// The ring forwards whichever block arrived last, so step `i` moves block
/// `(rank − i) mod P` — identical structure to the uniform ring, with
/// per-block sizes taken from `counts`.
pub fn allgatherv_ring(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> Result<()> {
    complete_now(allgatherv_ring_async(&SyncComm::new(comm), sendbuf, recvbuf, counts, displs))
}

/// Async core of [`allgatherv_ring`].
pub async fn allgatherv_ring_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> Result<()> {
    let size = comm.size();
    let rank = comm.rank();
    assert_eq!(counts.len(), size, "one count per rank");
    check_layout(counts, displs, recvbuf.len());
    assert_eq!(sendbuf.len(), counts[rank], "sendbuf must match counts[rank]");

    recvbuf[displs[rank]..displs[rank] + counts[rank]].copy_from_slice(sendbuf);
    if size == 1 {
        return Ok(());
    }
    let left = ring_left(rank, size);
    let right = ring_right(rank, size);
    let mut j = rank;
    let mut jnext = left;
    for _ in 1..size {
        let (sb, rb) =
            split_send_recv(recvbuf, displs[j], counts[j], displs[jnext], counts[jnext])?;
        comm.sendrecv(sb, right, AGV, rb, left, AGV).await?;
        j = jnext;
        jnext = ring_left(jnext, size);
    }
    Ok(())
}

/// Scatterv over a flat star from the root (MPICH's default for irregular
/// scatters: tree distribution needs uniform subtree sizes to pay off).
/// Rank `r` receives `counts[r]` bytes into `recvbuf` from the root's
/// `sendbuf[displs[r]..]`.
pub fn scatterv_linear(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
    root: Rank,
) -> Result<()> {
    let comm = SyncComm::new(comm);
    complete_now(scatterv_linear_async(&comm, sendbuf, recvbuf, counts, displs, root))
}

/// Async core of [`scatterv_linear`].
pub async fn scatterv_linear_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    let rank = comm.rank();
    assert_eq!(counts.len(), size);
    assert_eq!(recvbuf.len(), counts[rank]);
    if rank == root {
        check_layout(counts, displs, sendbuf.len());
        for rel in 1..size {
            let peer = absolute_rank(rel, root, size);
            comm.send(&sendbuf[displs[peer]..displs[peer] + counts[peer]], peer, SCV).await?;
        }
        recvbuf.copy_from_slice(&sendbuf[displs[rank]..displs[rank] + counts[rank]]);
    } else {
        let n = comm.recv(recvbuf, root, SCV).await?;
        debug_assert_eq!(n, counts[rank]);
    }
    Ok(())
}

/// Gatherv to the root over a binomial tree: rank `r` contributes
/// `counts[r]` bytes which land at `displs[r]` of the root's `recvbuf`.
///
/// Internal tree nodes forward their subtree's blocks *packed in relative
/// rank order* so each hop is one message, then the root scatters the packed
/// image into the user's (possibly non-contiguous) displacements.
pub fn gatherv_binomial(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
    root: Rank,
) -> Result<()> {
    let comm = SyncComm::new(comm);
    complete_now(gatherv_binomial_async(&comm, sendbuf, recvbuf, counts, displs, root))
}

/// Async core of [`gatherv_binomial`].
pub async fn gatherv_binomial_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    let rank = comm.rank();
    assert_eq!(counts.len(), size);
    assert_eq!(sendbuf.len(), counts[rank]);
    if rank == root {
        check_layout(counts, displs, recvbuf.len());
    }

    let relative = relative_rank(rank, root, size);
    // Packed staging in relative-rank order.
    let rel_counts: Vec<usize> =
        (0..size).map(|rel| counts[absolute_rank(rel, root, size)]).collect();
    let rel_displs = packed_displs(&rel_counts);
    let mut stage = vec![0u8; total(&rel_counts)];
    stage[rel_displs[relative]..rel_displs[relative] + rel_counts[relative]]
        .copy_from_slice(sendbuf);

    let mut mask = 1usize;
    while mask < size {
        if relative & mask != 0 {
            // ship our packed subtree [relative, relative+span) to the parent
            let span_end = (relative + mask).min(size);
            let lo = rel_displs[relative];
            let hi = if span_end == size { stage.len() } else { rel_displs[span_end] };
            let parent = absolute_rank(relative - mask, root, size);
            comm.send(&stage[lo..hi], parent, GAV).await?;
            break;
        }
        let child_rel = relative + mask;
        if child_rel < size {
            let span_end = (child_rel + mask).min(size);
            let lo = rel_displs[child_rel];
            let hi = if span_end == size { stage.len() } else { rel_displs[span_end] };
            let child = absolute_rank(child_rel, root, size);
            let got = comm.recv(&mut stage[lo..hi], child, GAV).await?;
            debug_assert_eq!(got, hi - lo);
        }
        mask <<= 1;
    }

    if rank == root {
        for rel in 0..size {
            let abs = absolute_rank(rel, root, size);
            recvbuf[displs[abs]..displs[abs] + counts[abs]]
                .copy_from_slice(&stage[rel_displs[rel]..rel_displs[rel] + rel_counts[rel]]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    fn counts_for(size: usize) -> Vec<usize> {
        (0..size).map(|r| (r * 3 + 1) % 17).collect() // irregular, includes 1s
    }

    fn contribution(rank: usize, count: usize) -> Vec<u8> {
        (0..count).map(|i| ((rank * 41 + i) % 251) as u8).collect()
    }

    #[test]
    fn packed_displs_accumulate() {
        assert_eq!(packed_displs(&[3, 0, 5]), vec![0, 3, 3]);
        assert_eq!(total(&[3, 0, 5]), 8);
        assert!(packed_displs(&[]).is_empty());
    }

    #[test]
    fn allgatherv_assembles_irregular_blocks() {
        for size in [1usize, 2, 5, 8, 10, 13] {
            let counts = counts_for(size);
            let displs = packed_displs(&counts);
            let n = total(&counts);
            let out = ThreadWorld::run(size, |comm| {
                let mine = contribution(comm.rank(), counts[comm.rank()]);
                let mut all = vec![0u8; n];
                allgatherv_ring(comm, &mine, &mut all, &counts, &displs).unwrap();
                all
            });
            let want: Vec<u8> = (0..size).flat_map(|r| contribution(r, counts[r])).collect();
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(got, &want, "size={size} rank={rank}");
            }
        }
    }

    #[test]
    fn allgatherv_with_gaps_in_displacements() {
        let size = 4;
        let counts = vec![2usize, 3, 1, 2];
        let displs = vec![0usize, 4, 9, 12]; // gaps at 2..4, 7..9, 10..12
        let out = ThreadWorld::run(size, |comm| {
            let mine = contribution(comm.rank(), counts[comm.rank()]);
            let mut all = vec![0xEEu8; 14];
            allgatherv_ring(comm, &mine, &mut all, &counts, &displs).unwrap();
            all
        });
        for got in &out.results {
            assert_eq!(&got[0..2], &contribution(0, 2)[..]);
            assert_eq!(got[2], 0xEE); // gap untouched
            assert_eq!(&got[4..7], &contribution(1, 3)[..]);
            assert_eq!(&got[9..10], &contribution(2, 1)[..]);
            assert_eq!(&got[12..14], &contribution(3, 2)[..]);
        }
    }

    #[test]
    fn scatterv_delivers_irregular_blocks() {
        for &(size, root) in &[(1usize, 0usize), (5, 2), (10, 9), (8, 0)] {
            let counts = counts_for(size);
            let displs = packed_displs(&counts);
            let payload: Vec<u8> = (0..size).flat_map(|r| contribution(r, counts[r])).collect();
            let out = ThreadWorld::run(size, |comm| {
                let sendbuf = if comm.rank() == root { payload.clone() } else { vec![] };
                let mut mine = vec![0u8; counts[comm.rank()]];
                scatterv_linear(comm, &sendbuf, &mut mine, &counts, &displs, root).unwrap();
                mine
            });
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(got, &contribution(rank, counts[rank]), "size={size} rank={rank}");
            }
        }
    }

    #[test]
    fn gatherv_collects_irregular_blocks() {
        for &(size, root) in &[(1usize, 0usize), (2, 1), (5, 2), (10, 9), (13, 0)] {
            let counts = counts_for(size);
            let displs = packed_displs(&counts);
            let n = total(&counts);
            let out = ThreadWorld::run(size, |comm| {
                let mine = contribution(comm.rank(), counts[comm.rank()]);
                let mut all = if comm.rank() == root { vec![0u8; n] } else { vec![] };
                gatherv_binomial(comm, &mine, &mut all, &counts, &displs, root).unwrap();
                all
            });
            let want: Vec<u8> = (0..size).flat_map(|r| contribution(r, counts[r])).collect();
            assert_eq!(out.results[root], want, "size={size} root={root}");
            // binomial: one message per non-root rank
            assert_eq!(out.traffic.total_msgs(), (size - 1) as u64);
        }
    }

    #[test]
    fn gatherv_handles_zero_counts() {
        let size = 6;
        let counts = vec![0usize, 3, 0, 2, 0, 1];
        let displs = packed_displs(&counts);
        let out = ThreadWorld::run(size, |comm| {
            let mine = contribution(comm.rank(), counts[comm.rank()]);
            let mut all = if comm.rank() == 0 { vec![0u8; total(&counts)] } else { vec![] };
            gatherv_binomial(comm, &mine, &mut all, &counts, &displs, 0).unwrap();
            all
        });
        let want: Vec<u8> = (0..size).flat_map(|r| contribution(r, counts[r])).collect();
        assert_eq!(out.results[0], want);
    }

    #[test]
    fn scatterv_then_gatherv_round_trips() {
        let (size, root) = (9usize, 4usize);
        let counts = counts_for(size);
        let displs = packed_displs(&counts);
        let payload: Vec<u8> = (0..size).flat_map(|r| contribution(r, counts[r])).collect();
        let out = ThreadWorld::run(size, |comm| {
            let sendbuf = if comm.rank() == root { payload.clone() } else { vec![] };
            let mut mine = vec![0u8; counts[comm.rank()]];
            scatterv_linear(comm, &sendbuf, &mut mine, &counts, &displs, root).unwrap();
            let mut back = if comm.rank() == root { vec![0u8; total(&counts)] } else { vec![] };
            gatherv_binomial(comm, &mine, &mut back, &counts, &displs, root).unwrap();
            back
        });
        assert_eq!(out.results[root], payload);
    }
}
