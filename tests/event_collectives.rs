//! The standalone collectives on the event executor: every one is an async
//! core, so `EventWorld` runs it natively and must deliver the same results
//! and the same per-rank messages, bytes and envelopes as the blocking
//! `ThreadWorld`, which reaches the same core through `SyncComm`.

use bcast_core::allgather::{
    allgather_auto, allgather_auto_async, allgather_bruck, allgather_bruck_async, allgather_rd,
    allgather_rd_async, allgather_ring, allgather_ring_async, AllgatherThresholds,
};
use bcast_core::alltoall::{
    alltoall_auto, alltoall_auto_async, alltoall_bruck, alltoall_bruck_async, alltoall_pairwise,
    alltoall_pairwise_async,
};
use bcast_core::pipeline::{bcast_pipeline, bcast_pipeline_async};
use bcast_core::reduce::{
    allreduce_rabenseifner, allreduce_rabenseifner_async, allreduce_rd, allreduce_rd_async,
    reduce_binomial, reduce_binomial_async, reduce_scatter_block_rh, reduce_scatter_block_rh_async,
};
use bcast_core::scatter_gather::{
    gather_binomial, gather_binomial_async, scatter_binomial, scatter_binomial_async,
};
use bcast_core::varcount::{
    allgatherv_ring, allgatherv_ring_async, gatherv_binomial, gatherv_binomial_async,
    packed_displs, scatterv_linear, scatterv_linear_async,
};
use mpsim::{
    AsyncCommunicator, Communicator, EventComm, EventWorld, Result, ThreadComm, ThreadWorld,
    WorldTraffic,
};

#[derive(Clone, Copy, Debug)]
enum Coll {
    AllgatherRing,
    AllgatherRd,
    AllgatherBruck,
    AllgatherAuto,
    AlltoallPairwise,
    AlltoallBruck,
    AlltoallAuto,
    Scatter,
    Gather,
    Reduce,
    AllreduceRd,
    ReduceScatterRh,
    Rabenseifner,
    Allgatherv,
    Scatterv,
    Gatherv,
    Pipeline,
}

const ALL: [Coll; 17] = [
    Coll::AllgatherRing,
    Coll::AllgatherRd,
    Coll::AllgatherBruck,
    Coll::AllgatherAuto,
    Coll::AlltoallPairwise,
    Coll::AlltoallBruck,
    Coll::AlltoallAuto,
    Coll::Scatter,
    Coll::Gather,
    Coll::Reduce,
    Coll::AllreduceRd,
    Coll::ReduceScatterRh,
    Coll::Rabenseifner,
    Coll::Allgatherv,
    Coll::Scatterv,
    Coll::Gatherv,
    Coll::Pipeline,
];

impl Coll {
    /// Recursive doubling and recursive halving need a power-of-two world.
    fn supports(self, p: usize) -> bool {
        !matches!(self, Coll::AllgatherRd | Coll::ReduceScatterRh) || p.is_power_of_two()
    }

    fn rooted(self) -> bool {
        matches!(
            self,
            Coll::Scatter
                | Coll::Gather
                | Coll::Reduce
                | Coll::Scatterv
                | Coll::Gatherv
                | Coll::Pipeline
        )
    }
}

fn bytes(rank: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (rank * 31 + i * 7 + 1) as u8).collect()
}

fn elems(rank: usize, n: usize) -> Vec<u64> {
    (0..n).map(|i| (rank * 1000 + i) as u64).collect()
}

/// One rank's arguments and result buffers for one collective call:
/// `block` is bytes per rank, elements per rank for the reductions, and
/// the count scale for the variable-count forms.
struct Args {
    send: Vec<u8>,
    recv: Vec<u8>,
    esend: Vec<u64>,
    erecv: Vec<u64>,
    counts: Vec<usize>,
    displs: Vec<usize>,
}

impl Args {
    fn new(coll: Coll, p: usize, rank: usize, block: usize, root: usize) -> Self {
        let at_root = |n: usize| if rank == root { vec![0u8; n] } else { Vec::new() };
        // Irregular counts, zeros included.
        let counts: Vec<usize> = (0..p).map(|r| (r * 3 + block) % (block + 2)).collect();
        let displs = packed_displs(&counts);
        let total: usize = counts.iter().sum();
        let (mut send, mut recv, mut esend, mut erecv) = (vec![], vec![], vec![], vec![]);
        match coll {
            Coll::AllgatherRing
            | Coll::AllgatherRd
            | Coll::AllgatherBruck
            | Coll::AllgatherAuto => {
                send = bytes(rank, block);
                recv = vec![0; block * p];
            }
            Coll::AlltoallPairwise | Coll::AlltoallBruck | Coll::AlltoallAuto => {
                send = bytes(rank, block * p);
                recv = vec![0; block * p];
            }
            Coll::Scatter => {
                send = if rank == root { bytes(p, block * p) } else { Vec::new() };
                recv = vec![0; block];
            }
            Coll::Gather => {
                send = bytes(rank, block);
                recv = at_root(block * p);
            }
            Coll::Reduce => {
                esend = elems(rank, block);
                erecv = if rank == root { vec![0; block] } else { Vec::new() };
            }
            Coll::AllreduceRd | Coll::Rabenseifner => erecv = elems(rank, block * p),
            Coll::ReduceScatterRh => {
                esend = elems(rank, block * p);
                erecv = vec![0; block];
            }
            Coll::Allgatherv => {
                send = bytes(rank, counts[rank]);
                recv = vec![0; total];
            }
            Coll::Scatterv => {
                send = if rank == root { bytes(p, total) } else { Vec::new() };
                recv = vec![0; counts[rank]];
            }
            Coll::Gatherv => {
                send = bytes(rank, counts[rank]);
                recv = at_root(total);
            }
            Coll::Pipeline => {
                recv = if rank == root { bytes(p, block * p) } else { vec![0; block * p] };
            }
        }
        Self { send, recv, esend, erecv, counts, displs }
    }
}

fn add(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// The sync entry point, as a blocking caller uses it.
fn run_sync(coll: Coll, comm: &ThreadComm, a: &mut Args, root: usize, block: usize) -> Result<()> {
    let th = AllgatherThresholds::default();
    match coll {
        Coll::AllgatherRing => allgather_ring(comm, &a.send, &mut a.recv),
        Coll::AllgatherRd => allgather_rd(comm, &a.send, &mut a.recv),
        Coll::AllgatherBruck => allgather_bruck(comm, &a.send, &mut a.recv),
        Coll::AllgatherAuto => allgather_auto(comm, &a.send, &mut a.recv, &th),
        Coll::AlltoallPairwise => alltoall_pairwise(comm, &a.send, &mut a.recv),
        Coll::AlltoallBruck => alltoall_bruck(comm, &a.send, &mut a.recv),
        Coll::AlltoallAuto => alltoall_auto(comm, &a.send, &mut a.recv),
        Coll::Scatter => scatter_binomial(comm, &a.send, &mut a.recv, root),
        Coll::Gather => gather_binomial(comm, &a.send, &mut a.recv, root),
        Coll::Reduce => reduce_binomial(comm, &a.esend, &mut a.erecv, add, root),
        Coll::AllreduceRd => allreduce_rd(comm, &mut a.erecv, add),
        Coll::ReduceScatterRh => reduce_scatter_block_rh(comm, &a.esend, &mut a.erecv, add),
        Coll::Rabenseifner => allreduce_rabenseifner(comm, &mut a.erecv, add),
        Coll::Allgatherv => allgatherv_ring(comm, &a.send, &mut a.recv, &a.counts, &a.displs),
        Coll::Scatterv => scatterv_linear(comm, &a.send, &mut a.recv, &a.counts, &a.displs, root),
        Coll::Gatherv => gatherv_binomial(comm, &a.send, &mut a.recv, &a.counts, &a.displs, root),
        Coll::Pipeline => bcast_pipeline(comm, &mut a.recv, root, block),
    }
}

/// The async core, polled natively by the event executor.
async fn run_async(
    coll: Coll,
    comm: &EventComm,
    a: &mut Args,
    root: usize,
    block: usize,
) -> Result<()> {
    let th = AllgatherThresholds::default();
    match coll {
        Coll::AllgatherRing => allgather_ring_async(comm, &a.send, &mut a.recv).await,
        Coll::AllgatherRd => allgather_rd_async(comm, &a.send, &mut a.recv).await,
        Coll::AllgatherBruck => allgather_bruck_async(comm, &a.send, &mut a.recv).await,
        Coll::AllgatherAuto => allgather_auto_async(comm, &a.send, &mut a.recv, &th).await,
        Coll::AlltoallPairwise => alltoall_pairwise_async(comm, &a.send, &mut a.recv).await,
        Coll::AlltoallBruck => alltoall_bruck_async(comm, &a.send, &mut a.recv).await,
        Coll::AlltoallAuto => alltoall_auto_async(comm, &a.send, &mut a.recv).await,
        Coll::Scatter => scatter_binomial_async(comm, &a.send, &mut a.recv, root).await,
        Coll::Gather => gather_binomial_async(comm, &a.send, &mut a.recv, root).await,
        Coll::Reduce => reduce_binomial_async(comm, &a.esend, &mut a.erecv, add, root).await,
        Coll::AllreduceRd => allreduce_rd_async(comm, &mut a.erecv, add).await,
        Coll::ReduceScatterRh => {
            reduce_scatter_block_rh_async(comm, &a.esend, &mut a.erecv, add).await
        }
        Coll::Rabenseifner => allreduce_rabenseifner_async(comm, &mut a.erecv, add).await,
        Coll::Allgatherv => {
            allgatherv_ring_async(comm, &a.send, &mut a.recv, &a.counts, &a.displs).await
        }
        Coll::Scatterv => {
            scatterv_linear_async(comm, &a.send, &mut a.recv, &a.counts, &a.displs, root).await
        }
        Coll::Gatherv => {
            gatherv_binomial_async(comm, &a.send, &mut a.recv, &a.counts, &a.displs, root).await
        }
        Coll::Pipeline => bcast_pipeline_async(comm, &mut a.recv, root, block).await,
    }
}

type Outcome = (Vec<(Vec<u8>, Vec<u64>)>, WorldTraffic);

fn thread_run(coll: Coll, p: usize, block: usize, root: usize) -> Outcome {
    let out = ThreadWorld::run(p, |comm| {
        let mut a = Args::new(coll, p, comm.rank(), block, root);
        run_sync(coll, comm, &mut a, root, block).unwrap();
        (a.recv, a.erecv)
    });
    (out.results, out.traffic)
}

fn event_run(coll: Coll, p: usize, block: usize, root: usize) -> Outcome {
    let out = EventWorld::run(p, |comm| async move {
        let mut a = Args::new(coll, p, AsyncCommunicator::rank(&comm), block, root);
        run_async(coll, &comm, &mut a, root, block).await.unwrap();
        (a.recv, a.erecv)
    });
    (out.results, out.traffic)
}

/// Per-rank (msgs, bytes, envelopes) in both directions.
fn wire(t: &WorldTraffic) -> Vec<[u64; 6]> {
    t.per_rank
        .iter()
        .map(|r| {
            [
                r.msgs_sent,
                r.bytes_sent,
                r.envelopes_sent,
                r.msgs_recvd,
                r.bytes_recvd,
                r.envelopes_recvd,
            ]
        })
        .collect()
}

#[test]
fn every_collective_matches_thread_world_on_the_event_executor() {
    for coll in ALL {
        for p in [1usize, 2, 5, 8, 11] {
            if !coll.supports(p) {
                continue;
            }
            let roots = if coll.rooted() { vec![0, p - 1] } else { vec![0] };
            for root in roots {
                for block in [0usize, 3, 64] {
                    let ctx = format!("{coll:?} p={p} root={root} block={block}");
                    let (tres, ttraffic) = thread_run(coll, p, block, root);
                    let (eres, etraffic) = event_run(coll, p, block, root);
                    assert_eq!(tres, eres, "results differ: {ctx}");
                    assert_eq!(wire(&ttraffic), wire(&etraffic), "traffic differs: {ctx}");
                }
            }
        }
    }
}

#[test]
fn scatter_sends_no_messages_at_block_zero() {
    // The broadcast scatter posts nothing for empty subtrees, so a
    // zero-byte MPI_Scatter moves no messages on either executor.
    for p in [1usize, 2, 5, 8, 11] {
        for root in [0, p - 1] {
            let (_, thread) = thread_run(Coll::Scatter, p, 0, root);
            let (_, event) = event_run(Coll::Scatter, p, 0, root);
            assert_eq!(thread.total_msgs(), 0, "ThreadWorld p={p} root={root}");
            assert_eq!(event.total_msgs(), 0, "EventWorld p={p} root={root}");
        }
    }
}
