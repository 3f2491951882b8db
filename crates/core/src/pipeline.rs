//! Segmented pipeline (chain) broadcast — a classic long-message alternative
//! to scatter-ring-allgather (used by e.g. Open MPI's `chain`/`pipeline`
//! components) implemented as an *extension baseline* for the ablation
//! benches. Not part of the paper's MPICH3 dispatch, but the natural "what
//! else could you do for lmsg" comparison.
//!
//! The buffer is cut into segments of `segment` bytes; ranks form a chain in
//! root-relative order and each rank forwards segment `s` (nonblocking)
//! while receiving segment `s+1` — after the `P−1`-hop fill, every link of
//! the chain streams at full bandwidth.

use mpsim::{
    absolute_rank, complete_now, relative_rank, AsyncNonBlocking, NonBlocking, Rank, Result,
    SyncComm, Tag,
};

use crate::schedule::{Loc, Schedule, ScheduleSource};

/// Pipeline broadcast of `buf` from `root` with the given `segment` size.
///
/// `segment == 0` is treated as "one segment" (plain chain). Message count is
/// `(P−1) · ceil(n / segment)`; every byte crosses every link exactly once
/// (total `(P−1) · n` bytes, the same as binomial — the win is pipelining,
/// not volume).
pub fn bcast_pipeline<C: NonBlocking + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    segment: usize,
) -> Result<()> {
    complete_now(bcast_pipeline_async(&SyncComm::new(comm), buf, root, segment))
}

/// Async core of [`bcast_pipeline`] over any [`AsyncNonBlocking`]
/// communicator: the forward of segment `s` is posted with `isend` and only
/// waited on after segment `s+1` has been received.
pub async fn bcast_pipeline_async<C: AsyncNonBlocking + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    segment: usize,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    if size == 1 || buf.is_empty() {
        return Ok(());
    }
    let nbytes = buf.len();
    let segment = if segment == 0 { nbytes } else { segment };
    let relative = relative_rank(comm.rank(), root, size);
    let prev = (relative > 0).then(|| absolute_rank(relative - 1, root, size));
    let next = (relative + 1 < size).then(|| absolute_rank(relative + 1, root, size));

    let mut pending: Option<C::SendPending> = None;
    let mut offset = 0usize;
    while offset < nbytes {
        let end = (offset + segment).min(nbytes);
        if let Some(p) = prev {
            comm.recv(&mut buf[offset..end], p, Tag::BCAST).await?;
        }
        if let Some(n) = next {
            // Let the previous segment's forward drain before reusing the
            // handle; the transfer itself overlaps with our next receive.
            if let Some(sp) = pending.take() {
                comm.wait_send(sp).await?;
            }
            pending = Some(comm.isend(&buf[offset..end], n, Tag::BCAST)?);
        }
        offset = end;
    }
    if let Some(sp) = pending {
        comm.wait_send(sp).await?;
    }
    Ok(())
}

/// Analytic message count of the pipeline broadcast.
pub fn pipeline_msgs(nbytes: usize, segment: usize, p: usize) -> u64 {
    if p <= 1 || nbytes == 0 {
        return 0;
    }
    let segment = if segment == 0 { nbytes } else { segment };
    (p as u64 - 1) * (nbytes.div_ceil(segment) as u64)
}

/// Emit the symbolic schedule of [`bcast_pipeline`]. The forward of each
/// segment is a *nonblocking* send ([`Loc`] unchanged, `isend` op), mirroring
/// the executed overlap of forwarding segment `s` with receiving `s+1`.
pub fn pipeline_schedule(p: usize, nbytes: usize, root: Rank, segment: usize) -> Schedule {
    let mut s = Schedule::new("bcast/pipeline", p, nbytes);
    s.ranks[root].mark_valid(0..nbytes);
    for rank in 0..p {
        s.ranks[rank].require(0..nbytes);
    }
    if p == 1 || nbytes == 0 {
        return s;
    }
    let segment = if segment == 0 { nbytes } else { segment };
    for rank in 0..p {
        let relative = relative_rank(rank, root, p);
        let prev = (relative > 0).then(|| absolute_rank(relative - 1, root, p));
        let next = (relative + 1 < p).then(|| absolute_rank(relative + 1, root, p));
        let mut offset = 0usize;
        while offset < nbytes {
            let end = (offset + segment).min(nbytes);
            if let Some(pr) = prev {
                s.ranks[rank].recv("pipeline", pr, Tag::BCAST, Loc::Buf(offset..end));
            }
            if let Some(nx) = next {
                s.ranks[rank].isend("pipeline", nx, Tag::BCAST, Loc::Buf(offset..end));
            }
            offset = end;
        }
    }
    s
}

struct PipelineSource;

impl ScheduleSource for PipelineSource {
    fn name(&self) -> &'static str {
        "bcast/pipeline"
    }

    fn supports(&self, _p: usize) -> bool {
        true
    }

    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        // A ragged multi-segment cut so the sweep exercises the overlap path.
        pipeline_schedule(p, nbytes, root, nbytes.div_ceil(3).max(1))
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![Box::new(PipelineSource)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::pattern;
    use mpsim::{Communicator, ThreadWorld};

    fn run(size: usize, nbytes: usize, root: usize, segment: usize) -> mpsim::WorldTraffic {
        let src = pattern(nbytes, 77);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_pipeline(comm, &mut buf, root, segment).unwrap();
            assert_eq!(buf, src, "rank {}", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn completes_for_many_shapes() {
        for &(size, nbytes, root, segment) in &[
            (2usize, 64usize, 0usize, 16usize),
            (8, 100, 0, 7),   // ragged last segment
            (8, 100, 5, 100), // single segment
            (10, 1000, 9, 0), // segment=0 → whole buffer
            (5, 3, 2, 1),     // one byte per segment
            (7, 0, 3, 16),    // empty buffer
            (1, 64, 0, 8),    // single rank
        ] {
            run(size, nbytes, root, segment);
        }
    }

    #[test]
    fn message_count_matches_model() {
        for &(size, nbytes, segment) in
            &[(8usize, 100usize, 7usize), (4, 64, 16), (10, 1000, 128), (3, 50, 0)]
        {
            let traffic = run(size, nbytes, 0, segment);
            assert_eq!(
                traffic.total_msgs(),
                pipeline_msgs(nbytes, segment, size),
                "size={size} nbytes={nbytes} segment={segment}"
            );
            // every byte crosses every link once
            assert_eq!(traffic.total_bytes(), ((size - 1) * nbytes) as u64);
        }
    }

    #[test]
    fn pipelining_beats_whole_message_chain_on_the_simulator() {
        use netsim::{NetworkModel, Placement, SimWorld};
        let nbytes = 1 << 16;
        let time_with_segment = |segment: usize| {
            let mut model = NetworkModel::uniform(500.0, 1.0);
            model.eager_threshold = usize::MAX; // eager so forwards overlap
            let src = pattern(nbytes, 78);
            SimWorld::run(model, Placement::new(4), 8, move |comm| {
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                bcast_pipeline(comm, &mut buf, 0, segment).unwrap();
            })
            .makespan_ns
        };
        let chunked = time_with_segment(4096);
        let whole = time_with_segment(0);
        assert!(
            chunked < whole * 0.6,
            "pipelining should cut the chain time substantially: {chunked} vs {whole}"
        );
    }
}
