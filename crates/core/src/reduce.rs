//! Reduction collectives — `MPI_Reduce`, `MPI_Allreduce`,
//! `MPI_Reduce_scatter_block` — from the MPICH optimization repertoire the
//! paper's broadcast work sits inside (its reference 9 — Thakur,
//! Rabenseifner & Gropp, *Optimization of Collective Communication
//! Operations in MPICH*).
//!
//! All algorithms assume a **commutative and associative** operator (MPI's
//! built-in ops): combination order follows tree/exchange structure, not
//! rank order. Elements are (de)serialized via [`crate::dtype::Dtype`]; the
//! wire stays plain bytes.
//!
//! * [`reduce_binomial`] — binomial-tree reduce to a root (MPICH's
//!   short-message reduce).
//! * [`allreduce_rd`] — recursive-doubling allreduce with MPICH's
//!   non-power-of-two fold-in/fold-out pre- and post-steps.
//! * [`reduce_scatter_block_rh`] — recursive-halving reduce-scatter
//!   (power-of-two worlds, uniform blocks).
//! * [`allreduce_rabenseifner`] — reduce-scatter + recursive-doubling
//!   allgather: the long-message allreduce (falls back to [`allreduce_rd`]
//!   when blocks don't divide evenly or the world is not a power of two).

use mpsim::{
    absolute_rank, complete_now, is_pof2, relative_rank, AsyncCommunicator, Communicator, Rank,
    Result, SyncComm, Tag,
};

use crate::dtype::{combine_into, decode, encode, Dtype};
use crate::rd_allgather::rd_allgather_async;
use crate::schedule::{Loc, Schedule, ScheduleSource};

/// Tag block reserved for reductions.
const REDUCE: Tag = Tag(0xE0);
const ALLREDUCE: Tag = Tag(0xE1);
const RS: Tag = Tag(0xE2);

/// Binomial-tree reduce: after the call, `recvbuf` on `root` holds the
/// element-wise reduction of every rank's `sendbuf` under `op`; other ranks'
/// `recvbuf` contents are unspecified (pass an empty slice there).
pub fn reduce_binomial<T: Dtype>(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[T],
    recvbuf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
    root: Rank,
) -> Result<()> {
    complete_now(reduce_binomial_async(&SyncComm::new(comm), sendbuf, recvbuf, op, root))
}

/// Async core of [`reduce_binomial`].
pub async fn reduce_binomial_async<T: Dtype, C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[T],
    recvbuf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    let rank = comm.rank();
    if rank == root {
        assert_eq!(recvbuf.len(), sendbuf.len(), "root receive buffer length mismatch");
    }

    let relative = relative_rank(rank, root, size);
    let mut acc = encode(sendbuf);
    let mut incoming = vec![0u8; acc.len()];

    // Collect children (nearest first), then forward to the parent.
    let mut mask = 1usize;
    while mask < size {
        if relative & mask != 0 {
            let parent = absolute_rank(relative - mask, root, size);
            comm.send(&acc, parent, REDUCE).await?;
            break;
        }
        let child_rel = relative + mask;
        if child_rel < size {
            let child = absolute_rank(child_rel, root, size);
            let got = comm.recv(&mut incoming, child, REDUCE).await?;
            debug_assert_eq!(got, acc.len());
            combine_into::<T>(&mut acc, &incoming, op);
        }
        mask <<= 1;
    }

    if rank == root {
        recvbuf.copy_from_slice(&decode::<T>(&acc));
    }
    Ok(())
}

/// Map a power-of-two-group rank back to a real rank under MPICH's fold-in
/// scheme (`rem` = ranks folded away).
#[inline]
fn unfold(newrank: usize, rem: usize) -> usize {
    if newrank < rem {
        newrank * 2 + 1
    } else {
        newrank + rem
    }
}

/// Recursive-doubling allreduce: `buf` on every rank ends as the reduction
/// of all ranks' inputs.
///
/// Non-power-of-two worlds use MPICH's fold: the first `2·rem` ranks pair
/// up (`rem = P − 2^⌊log2 P⌋`), evens fold their contribution into odds and
/// sit out the exchange, then receive the final result back.
pub fn allreduce_rd<T: Dtype>(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    complete_now(allreduce_rd_async(&SyncComm::new(comm), buf, op))
}

/// Async core of [`allreduce_rd`].
pub async fn allreduce_rd_async<T: Dtype, C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    let rank = comm.rank();
    let pof2 = 1usize << (usize::BITS - 1 - size.leading_zeros());
    let rem = size - pof2;

    let mut acc = encode(buf);
    let mut incoming = vec![0u8; acc.len()];

    // Fold-in: evens among the first 2·rem ranks donate to their odd
    // neighbour and drop out of the exchange.
    let newrank = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.send(&acc, rank + 1, ALLREDUCE).await?;
            None
        } else {
            comm.recv(&mut incoming, rank - 1, ALLREDUCE).await?;
            combine_into::<T>(&mut acc, &incoming, op);
            Some(rank / 2)
        }
    } else {
        Some(rank - rem)
    };

    // Recursive doubling within the power-of-two group.
    if let Some(nr) = newrank {
        let mut mask = 1usize;
        while mask < pof2 {
            let partner = unfold(nr ^ mask, rem);
            comm.sendrecv(&acc, partner, ALLREDUCE, &mut incoming, partner, ALLREDUCE).await?;
            combine_into::<T>(&mut acc, &incoming, op);
            mask <<= 1;
        }
    }

    // Fold-out: odds hand the finished result back to their even neighbour.
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.recv(&mut acc, rank + 1, ALLREDUCE).await?;
        } else {
            comm.send(&acc, rank - 1, ALLREDUCE).await?;
        }
    }

    buf.copy_from_slice(&decode::<T>(&acc));
    Ok(())
}

/// Recursive-halving reduce-scatter with uniform blocks
/// (`MPI_Reduce_scatter_block`): every rank contributes `B × P` elements and
/// receives block `rank` (length `B`) of the element-wise reduction.
///
/// # Panics
///
/// Panics unless the world size is a power of two and
/// `sendbuf.len() == recvbuf.len() × P` — the regime MPICH uses it in.
pub fn reduce_scatter_block_rh<T: Dtype>(
    comm: &(impl Communicator + ?Sized),
    sendbuf: &[T],
    recvbuf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    complete_now(reduce_scatter_block_rh_async(&SyncComm::new(comm), sendbuf, recvbuf, op))
}

/// Async core of [`reduce_scatter_block_rh`].
///
/// # Panics
///
/// Panics under the same conditions as the sync wrapper.
pub async fn reduce_scatter_block_rh_async<T: Dtype, C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[T],
    recvbuf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    let size = comm.size();
    assert!(is_pof2(size), "recursive halving requires a power-of-two world");
    let block = recvbuf.len();
    assert_eq!(sendbuf.len(), block * size, "sendbuf must be recvbuf.len() × P");
    let rank = comm.rank();

    let mut acc = encode(sendbuf);
    let elem = T::SIZE;
    // Active block window [lo, hi) in block indices; halves every step.
    let mut lo = 0usize;
    let mut hi = size;
    let mut mask = size >> 1;
    let mut incoming = vec![0u8; (size / 2) * block * elem];
    while mask >= 1 {
        let partner = rank ^ mask;
        let mid = lo + (hi - lo) / 2;
        // The half containing our final block stays; the other half goes to
        // the partner (who is responsible for it).
        let (keep, give) =
            if rank & mask == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
        let give_bytes = (give.1 - give.0) * block * elem;
        let keep_bytes = (keep.1 - keep.0) * block * elem;
        let (gs, ge) = (give.0 * block * elem, give.1 * block * elem);
        comm.sendrecv(&acc[gs..ge], partner, RS, &mut incoming[..keep_bytes], partner, RS).await?;
        debug_assert_eq!(give_bytes + keep_bytes, (hi - lo) * block * elem);
        let (ks, ke) = (keep.0 * block * elem, keep.1 * block * elem);
        let mut kept = acc[ks..ke].to_vec();
        combine_into::<T>(&mut kept, &incoming[..keep_bytes], op);
        acc[ks..ke].copy_from_slice(&kept);
        lo = keep.0;
        hi = keep.1;
        mask >>= 1;
    }
    debug_assert_eq!((lo, hi), (rank, rank + 1));
    recvbuf.copy_from_slice(&decode::<T>(&acc[rank * block * elem..(rank + 1) * block * elem]));
    Ok(())
}

/// Rabenseifner's long-message allreduce: recursive-halving reduce-scatter
/// followed by a recursive-doubling allgather of the reduced blocks.
/// Falls back to [`allreduce_rd`] when the world is not a power of two or
/// the element count does not divide evenly.
pub fn allreduce_rabenseifner<T: Dtype>(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    complete_now(allreduce_rabenseifner_async(&SyncComm::new(comm), buf, op))
}

/// Async core of [`allreduce_rabenseifner`]: the allgather phase is the
/// broadcast's recursive-doubling walk ([`rd_allgather_async`]) at root 0
/// over the encoded blocks.
pub async fn allreduce_rabenseifner_async<T: Dtype, C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [T],
    op: impl Fn(T, T) -> T + Copy,
) -> Result<()> {
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    if !is_pof2(size) || !buf.len().is_multiple_of(size) {
        return allreduce_rd_async(comm, buf, op).await;
    }
    let block = buf.len() / size;
    if block == 0 {
        return Ok(()); // nothing to reduce
    }
    let mut mine = vec![buf[0]; block];
    reduce_scatter_block_rh_async(comm, buf, &mut mine, op).await?;

    let mut bytes = vec![0u8; buf.len() * T::SIZE];
    let (rank, block_bytes) = (comm.rank(), block * T::SIZE);
    bytes[rank * block_bytes..(rank + 1) * block_bytes].copy_from_slice(&encode(&mine));
    rd_allgather_async(comm, &mut bytes, 0).await?;
    buf.copy_from_slice(&decode::<T>(&bytes));
    Ok(())
}

/// Emit the symbolic schedule of [`reduce_binomial`] for an encoded payload
/// of `nbytes` bytes per rank.
///
/// Reductions accumulate in place (every message is combined into a private
/// accumulator, not stored at a buffer offset), so the whole family is
/// modeled with [`Loc::Private`]: matching, deadlock and traffic analyses
/// apply in full; byte-coverage tracking does not.
pub fn reduce_binomial_schedule(p: usize, nbytes: usize, root: Rank) -> Schedule {
    let mut s = Schedule::new("reduce/binomial", p, 0);
    for rank in 0..p {
        let relative = relative_rank(rank, root, p);
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let parent = absolute_rank(relative - mask, root, p);
                s.ranks[rank].send("reduce", parent, REDUCE, Loc::Private(nbytes));
                break;
            }
            let child_rel = relative + mask;
            if child_rel < p {
                let child = absolute_rank(child_rel, root, p);
                s.ranks[rank].recv("reduce", child, REDUCE, Loc::Private(nbytes));
            }
            mask <<= 1;
        }
    }
    s
}

/// Append the per-rank ops of [`allreduce_rd`] (fold-in, recursive doubling,
/// fold-out) for an encoded payload of `nbytes` bytes.
fn append_allreduce_rd_ops(s: &mut Schedule, nbytes: usize) {
    let p = s.p;
    if p == 1 {
        return;
    }
    let pof2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - pof2;
    for rank in 0..p {
        let newrank = if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                s.ranks[rank].send("fold_in", rank + 1, ALLREDUCE, Loc::Private(nbytes));
                None
            } else {
                s.ranks[rank].recv("fold_in", rank - 1, ALLREDUCE, Loc::Private(nbytes));
                Some(rank / 2)
            }
        } else {
            Some(rank - rem)
        };
        if let Some(nr) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner = unfold(nr ^ mask, rem);
                s.ranks[rank].sendrecv(
                    "rd",
                    partner,
                    ALLREDUCE,
                    Loc::Private(nbytes),
                    partner,
                    ALLREDUCE,
                    Loc::Private(nbytes),
                );
                mask <<= 1;
            }
        }
        if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                s.ranks[rank].recv("fold_out", rank + 1, ALLREDUCE, Loc::Private(nbytes));
            } else {
                s.ranks[rank].send("fold_out", rank - 1, ALLREDUCE, Loc::Private(nbytes));
            }
        }
    }
}

/// Emit the symbolic schedule of [`allreduce_rd`] for `nbytes` encoded bytes.
pub fn allreduce_rd_schedule(p: usize, nbytes: usize) -> Schedule {
    let mut s = Schedule::new("reduce/allreduce_rd", p, 0);
    append_allreduce_rd_ops(&mut s, nbytes);
    s
}

/// Append the per-rank ops of [`reduce_scatter_block_rh`] for `block_bytes`
/// encoded bytes per block (`P` blocks total).
fn append_reduce_scatter_rh_ops(s: &mut Schedule, block_bytes: usize) {
    let p = s.p;
    assert!(is_pof2(p), "recursive halving requires a power-of-two world");
    for rank in 0..p {
        let mut lo = 0usize;
        let mut hi = p;
        let mut mask = p >> 1;
        while mask >= 1 {
            let partner = rank ^ mask;
            let mid = lo + (hi - lo) / 2;
            let (keep, give) =
                if rank & mask == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
            let give_bytes = (give.1 - give.0) * block_bytes;
            let keep_bytes = (keep.1 - keep.0) * block_bytes;
            s.ranks[rank].sendrecv(
                "rs",
                partner,
                RS,
                Loc::Private(give_bytes),
                partner,
                RS,
                Loc::Private(keep_bytes),
            );
            lo = keep.0;
            hi = keep.1;
            mask >>= 1;
        }
    }
}

/// Emit the symbolic schedule of [`reduce_scatter_block_rh`] for
/// `block_bytes` encoded bytes per block (power-of-two worlds only).
pub fn reduce_scatter_rh_schedule(p: usize, block_bytes: usize) -> Schedule {
    let mut s = Schedule::new("reduce/reduce_scatter_rh", p, 0);
    if p > 1 {
        append_reduce_scatter_rh_ops(&mut s, block_bytes);
    }
    s
}

/// Emit the symbolic schedule of [`allreduce_rabenseifner`] for `nbytes`
/// encoded bytes, including its fallbacks: non-power-of-two worlds or uneven
/// splits emit the [`allreduce_rd`] ops, a zero-length block emits nothing.
pub fn allreduce_rabenseifner_schedule(p: usize, nbytes: usize) -> Schedule {
    let mut s = Schedule::new("reduce/allreduce_rabenseifner", p, 0);
    if p == 1 {
        return s;
    }
    if !is_pof2(p) || !nbytes.is_multiple_of(p) {
        append_allreduce_rd_ops(&mut s, nbytes);
        return s;
    }
    let block = nbytes / p;
    if block == 0 {
        return s;
    }
    append_reduce_scatter_rh_ops(&mut s, block);
    // The `rd_allgather` walk at root 0 over the reduced blocks (bytes).
    for rank in 0..p {
        let mut mask = 1usize;
        while mask < p {
            let partner = rank ^ mask;
            // Each side ships its aligned group of `mask` reduced blocks.
            s.ranks[rank].sendrecv(
                "ag",
                partner,
                Tag::ALLGATHER,
                Loc::Private(mask * block),
                partner,
                Tag::ALLGATHER,
                Loc::Private(mask * block),
            );
            mask <<= 1;
        }
    }
    s
}

/// Which reduction algorithm a [`ReduceSource`] emits.
#[derive(Clone, Copy)]
enum ReduceKind {
    Binomial,
    AllreduceRd,
    ReduceScatterRh,
    Rabenseifner,
}

struct ReduceSource(ReduceKind);

impl ScheduleSource for ReduceSource {
    fn name(&self) -> &'static str {
        match self.0 {
            ReduceKind::Binomial => "reduce/binomial",
            ReduceKind::AllreduceRd => "reduce/allreduce_rd",
            ReduceKind::ReduceScatterRh => "reduce/reduce_scatter_rh",
            ReduceKind::Rabenseifner => "reduce/allreduce_rabenseifner",
        }
    }

    fn supports(&self, p: usize) -> bool {
        match self.0 {
            ReduceKind::ReduceScatterRh => is_pof2(p),
            _ => true,
        }
    }

    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        match self.0 {
            ReduceKind::Binomial => reduce_binomial_schedule(p, nbytes, root),
            ReduceKind::AllreduceRd => allreduce_rd_schedule(p, nbytes),
            ReduceKind::ReduceScatterRh => reduce_scatter_rh_schedule(p, nbytes),
            ReduceKind::Rabenseifner => allreduce_rabenseifner_schedule(p, nbytes),
        }
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![
        Box::new(ReduceSource(ReduceKind::Binomial)),
        Box::new(ReduceSource(ReduceKind::AllreduceRd)),
        Box::new(ReduceSource(ReduceKind::ReduceScatterRh)),
        Box::new(ReduceSource(ReduceKind::Rabenseifner)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    fn contribution(rank: usize, len: usize) -> Vec<u64> {
        (0..len).map(|i| ((rank + 1) * (i + 3)) as u64).collect()
    }

    fn expected_sum(size: usize, len: usize) -> Vec<u64> {
        (0..len).map(|i| (0..size).map(|r| ((r + 1) * (i + 3)) as u64).sum()).collect()
    }

    #[test]
    fn reduce_binomial_sums_to_root() {
        for &(size, len, root) in &[
            (1usize, 5usize, 0usize),
            (2, 4, 1),
            (8, 16, 0),
            (8, 16, 5),
            (10, 7, 9),
            (13, 1, 6),
            (6, 0, 2),
        ] {
            let out = ThreadWorld::run(size, |comm| {
                let mine = contribution(comm.rank(), len);
                let mut result = if comm.rank() == root { vec![0u64; len] } else { vec![] };
                reduce_binomial(comm, &mine, &mut result, |a, b| a + b, root).unwrap();
                result
            });
            assert_eq!(out.results[root], expected_sum(size, len), "size={size} root={root}");
            // binomial: one message per non-root rank
            assert_eq!(out.traffic.total_msgs(), (size - 1) as u64);
        }
    }

    #[test]
    fn reduce_binomial_max() {
        let (size, len) = (9usize, 6usize);
        let out = ThreadWorld::run(size, |comm| {
            let mine = contribution(comm.rank(), len);
            let mut result = if comm.rank() == 0 { vec![0u64; len] } else { vec![] };
            reduce_binomial(comm, &mine, &mut result, u64::max, 0).unwrap();
            result
        });
        assert_eq!(out.results[0], contribution(size - 1, len));
    }

    #[test]
    fn allreduce_rd_pof2_and_npof2() {
        for &(size, len) in &[
            (1usize, 4usize),
            (2, 8),
            (4, 5),
            (8, 16),
            (3, 4), // rem = 1
            (5, 9), // rem = 1
            (6, 2), // rem = 2
            (10, 12),
            (13, 3),
        ] {
            let out = ThreadWorld::run(size, |comm| {
                let mut buf = contribution(comm.rank(), len);
                allreduce_rd(comm, &mut buf, |a, b| a + b).unwrap();
                buf
            });
            let want = expected_sum(size, len);
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(got, &want, "size={size} len={len} rank={rank}");
            }
        }
    }

    #[test]
    fn allreduce_rd_floats() {
        let (size, len) = (6usize, 5usize);
        let out = ThreadWorld::run(size, |comm| {
            // powers of two are exactly summable in f64 in any order
            let mut buf: Vec<f64> = (0..len).map(|i| (1u64 << (comm.rank() + i)) as f64).collect();
            allreduce_rd(comm, &mut buf, |a, b| a + b).unwrap();
            buf
        });
        let want: Vec<f64> =
            (0..len).map(|i| (0..size).map(|r| (1u64 << (r + i)) as f64).sum()).collect();
        for got in &out.results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn reduce_scatter_block_delivers_reduced_blocks() {
        for &(size, block) in &[(2usize, 3usize), (4, 2), (8, 5), (16, 1)] {
            let out = ThreadWorld::run(size, |comm| {
                let mine = contribution(comm.rank(), block * size);
                let mut result = vec![0u64; block];
                reduce_scatter_block_rh(comm, &mine, &mut result, |a, b| a + b).unwrap();
                result
            });
            let want = expected_sum(size, block * size);
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(
                    got,
                    &want[rank * block..(rank + 1) * block],
                    "size={size} block={block} rank={rank}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn reduce_scatter_rejects_npof2() {
        ThreadWorld::run(6, |comm| {
            let mine = vec![0u64; 12];
            let mut r = vec![0u64; 2];
            let _ = reduce_scatter_block_rh(comm, &mine, &mut r, |a, b| a + b);
        });
    }

    #[test]
    fn rabenseifner_matches_rd() {
        for &(size, len) in
            &[(4usize, 8usize), (8, 24), (8, 7 /* fallback */), (6, 12 /* fallback */)]
        {
            let out = ThreadWorld::run(size, |comm| {
                let mut buf = contribution(comm.rank(), len);
                allreduce_rabenseifner(comm, &mut buf, |a, b| a + b).unwrap();
                buf
            });
            let want = expected_sum(size, len);
            for got in &out.results {
                assert_eq!(got, &want, "size={size} len={len}");
            }
        }
    }

    #[test]
    fn rabenseifner_moves_fewer_bytes_than_rd_for_large_vectors() {
        // The point of the reduce-scatter formulation: 2·n·(P−1)/P bytes per
        // rank instead of n·log2(P).
        let (size, len) = (8usize, 4096usize);
        let run = |raben: bool| {
            ThreadWorld::run(size, |comm| {
                let mut buf = contribution(comm.rank(), len);
                if raben {
                    allreduce_rabenseifner(comm, &mut buf, |a, b| a + b).unwrap();
                } else {
                    allreduce_rd(comm, &mut buf, |a, b| a + b).unwrap();
                }
            })
            .traffic
            .total_bytes()
        };
        let rd = run(false);
        let raben = run(true);
        assert!(raben < rd, "rabenseifner {raben} !< rd {rd}");
    }
}
