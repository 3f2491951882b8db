//! Analytic traffic model — the paper's Section IV arithmetic in closed
//! form, plus byte-accurate replays of every algorithm's communication
//! schedule.
//!
//! The executed algorithms are instrumented (every backend counts messages
//! and bytes); this module predicts those counters *without running
//! anything*, so tests can require `measured == modelled` and the benchmark
//! harness can print the paper's transfer-count table for any `P`.

use mpsim::is_pof2;

use crate::bcast::Algorithm;
use crate::chunks::ChunkLayout;
use crate::ring::ring_step_chunks;
use crate::ring_tuned::{receives_at, sends_at, step_flag};
use crate::scatter::owned_chunks;

/// Message and byte totals of one collective invocation, summed over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Volume {
    /// Total messages (each counted once, at the sender).
    pub msgs: u64,
    /// Total payload bytes on the wire.
    pub bytes: u64,
}

impl Volume {
    /// Component-wise sum.
    pub fn plus(self, other: Volume) -> Volume {
        Volume { msgs: self.msgs + other.msgs, bytes: self.bytes + other.bytes }
    }
}

/// Transfers of the *native* enclosed ring allgather: `P·(P−1)`
/// (paper §III: "there are totally data transmissions of P×(P−1)").
pub fn native_ring_msgs(p: usize) -> u64 {
    (p as u64) * (p as u64 - 1)
}

/// Transfers of the *tuned* ring allgather:
/// `P² − Σ_rel own(rel)` where `own` is the binomial-scatter ownership
/// ([`owned_chunks`]). Equals 44 for `P = 8` and 75 for `P = 10`.
pub fn tuned_ring_msgs(p: usize) -> u64 {
    if p == 1 {
        return 0;
    }
    let owned: u64 = (0..p).map(|rel| owned_chunks(rel, p) as u64).sum();
    (p as u64) * (p as u64) - owned
}

/// Messages saved by the tuned ring over the native ring:
/// `Σ own(rel) − P` (12 for `P = 8`, 15 for `P = 10`; grows with `P`).
pub fn ring_saving_msgs(p: usize) -> u64 {
    native_ring_msgs(p) - tuned_ring_msgs(p)
}

/// Transfers of the binomial scatter: one message per non-root rank *whose
/// subtree span is non-empty*. For `nbytes ≥ P` this is the familiar `P − 1`;
/// for very small messages trailing subtrees receive nothing (MPICH skips
/// the send when `send_size <= 0`).
pub fn scatter_msgs(nbytes: usize, p: usize) -> u64 {
    let layout = ChunkLayout::new(nbytes, p);
    (1..p).filter(|&rel| layout.span_bytes(rel..rel + owned_chunks(rel, p)) > 0).count() as u64
}

/// Byte volume of the binomial scatter for an `nbytes` broadcast: every
/// non-root rank receives exactly its subtree's span once.
pub fn scatter_bytes(nbytes: usize, p: usize) -> u64 {
    let layout = ChunkLayout::new(nbytes, p);
    (1..p).map(|rel| layout.span_bytes(rel..rel + owned_chunks(rel, p)) as u64).sum()
}

/// Replay the native ring schedule and total its byte volume.
pub fn native_ring_bytes(nbytes: usize, p: usize) -> u64 {
    let layout = ChunkLayout::new(nbytes, p);
    let mut bytes = 0u64;
    for rel in 0..p {
        for i in 1..p {
            let (send_chunk, _) = ring_step_chunks(rel, p, i);
            bytes += layout.count(send_chunk) as u64;
        }
    }
    bytes
}

/// Replay the tuned ring schedule and total its byte volume.
pub fn tuned_ring_bytes(nbytes: usize, p: usize) -> u64 {
    if p == 1 {
        return 0;
    }
    let layout = ChunkLayout::new(nbytes, p);
    let mut bytes = 0u64;
    for rel in 0..p {
        let (step, flag) = step_flag(rel, p);
        for i in 1..p {
            if sends_at(step, flag, p, i) {
                let (send_chunk, _) = ring_step_chunks(rel, p, i);
                bytes += layout.count(send_chunk) as u64;
            }
        }
    }
    bytes
}

/// Per-rank message counts in the tuned ring: `(sends, receives)` for the
/// rank at root-relative position `rel`.
pub fn tuned_ring_rank_msgs(rel: usize, p: usize) -> (u64, u64) {
    if p == 1 {
        return (0, 0);
    }
    let (step, flag) = step_flag(rel, p);
    let mut sends = 0;
    let mut recvs = 0;
    for i in 1..p {
        sends += u64::from(sends_at(step, flag, p, i));
        recvs += u64::from(receives_at(step, flag, p, i));
    }
    (sends, recvs)
}

/// Replay the recursive-doubling allgather and total its volume
/// (power-of-two `p` only, matching [`crate::rd_allgather`]).
pub fn rd_allgather_volume(nbytes: usize, p: usize) -> Volume {
    assert!(is_pof2(p));
    let layout = ChunkLayout::new(nbytes, p);
    let mut v = Volume::default();
    for rel in 0..p {
        let mut curr = layout.count(rel) as u64;
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < p {
            v.msgs += 1;
            v.bytes += curr;
            let partner = rel ^ mask;
            let block = (partner >> round) << round;
            curr += layout.span_bytes(block..(block + mask).min(p)) as u64;
            mask <<= 1;
            round += 1;
        }
    }
    v
}

/// Predicted total volume of a full broadcast under `algorithm`.
pub fn bcast_volume(algorithm: Algorithm, nbytes: usize, p: usize) -> Volume {
    if p == 1 {
        return Volume::default();
    }
    match algorithm {
        Algorithm::Binomial => Volume { msgs: p as u64 - 1, bytes: (p as u64 - 1) * nbytes as u64 },
        Algorithm::ScatterRdAllgather => {
            Volume { msgs: scatter_msgs(nbytes, p), bytes: scatter_bytes(nbytes, p) }
                .plus(rd_allgather_volume(nbytes, p))
        }
        Algorithm::ScatterRingNative => Volume {
            msgs: scatter_msgs(nbytes, p) + native_ring_msgs(p),
            bytes: scatter_bytes(nbytes, p) + native_ring_bytes(nbytes, p),
        },
        Algorithm::ScatterRingTuned => Volume {
            msgs: scatter_msgs(nbytes, p) + tuned_ring_msgs(p),
            bytes: scatter_bytes(nbytes, p) + tuned_ring_bytes(nbytes, p),
        },
    }
}

/// Agreement traffic of a fault-free self-healing epoch over `p` members:
/// the fast round's reduce and verdict send one 1-byte message along each
/// of the binomial tree's `p − 1` edges, one way each.
pub fn fast_agreement_volume(p: usize) -> Volume {
    let edges = 2 * (p as u64).saturating_sub(1);
    Volume { msgs: edges, bytes: edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts() {
        assert_eq!(native_ring_msgs(8), 56);
        assert_eq!(tuned_ring_msgs(8), 44);
        assert_eq!(ring_saving_msgs(8), 12);
        assert_eq!(native_ring_msgs(10), 90);
        assert_eq!(tuned_ring_msgs(10), 75);
        assert_eq!(ring_saving_msgs(10), 15);
    }

    #[test]
    fn saving_grows_with_p() {
        // Paper §IV: "the decrement in the amount of the transferred data
        // will increase as the growing of the process count P".
        let mut prev = 0;
        for p in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            let s = ring_saving_msgs(p);
            assert!(s >= prev, "saving not monotone at p={p}");
            prev = s;
        }
    }

    #[test]
    fn tuned_never_exceeds_native() {
        for p in 1..300 {
            assert!(tuned_ring_msgs(p) <= native_ring_msgs(p.max(1)), "p={p}");
        }
    }

    #[test]
    fn per_rank_counts_sum_to_total() {
        for p in 2..100 {
            let total_sends: u64 = (0..p).map(|rel| tuned_ring_rank_msgs(rel, p).0).sum();
            let total_recvs: u64 = (0..p).map(|rel| tuned_ring_rank_msgs(rel, p).1).sum();
            assert_eq!(total_sends, tuned_ring_msgs(p), "p={p}");
            assert_eq!(total_recvs, tuned_ring_msgs(p), "p={p}");
        }
    }

    #[test]
    fn root_never_receives_last_never_sends() {
        for p in 2..64 {
            assert_eq!(tuned_ring_rank_msgs(0, p).1, 0, "root received, p={p}");
            assert_eq!(tuned_ring_rank_msgs(p - 1, p).0, 0, "last sent, p={p}");
            // both still do their useful direction at every step
            assert_eq!(tuned_ring_rank_msgs(0, p).0, p as u64 - 1);
            assert_eq!(tuned_ring_rank_msgs(p - 1, p).1, p as u64 - 1);
        }
    }

    #[test]
    fn byte_models_even_division() {
        // With nbytes divisible by P, native ring bytes = msgs × chunk.
        let (nbytes, p) = (800usize, 8usize);
        assert_eq!(native_ring_bytes(nbytes, p), 56 * 100);
        assert_eq!(tuned_ring_bytes(nbytes, p), 44 * 100);
    }

    #[test]
    fn byte_model_handles_ragged_chunks() {
        // 10 bytes over 4 ranks: chunks 3,3,3,1 — replay must honour counts.
        let native = native_ring_bytes(10, 4);
        // each rank sends each chunk except... native: every rank sends
        // chunks (rel, rel−1, rel−2) → over all ranks each chunk is sent
        // exactly 3 times: 3 × (3+3+3+1) = 30
        assert_eq!(native, 30);
        let tuned = tuned_ring_bytes(10, 4);
        assert!(tuned < native);
    }

    #[test]
    fn rd_volume_matches_formula() {
        // P log2 P messages; bytes = P · nbytes·(P−1)/P = nbytes(P−1) for
        // divisible sizes.
        let v = rd_allgather_volume(64, 8);
        assert_eq!(v.msgs, 8 * 3);
        assert_eq!(v.bytes, 64 * 7);
    }

    #[test]
    fn bcast_volume_composition() {
        let v = bcast_volume(Algorithm::ScatterRingTuned, 100, 10);
        assert_eq!(v.msgs, 9 + 75);
        let v = bcast_volume(Algorithm::ScatterRingNative, 100, 10);
        assert_eq!(v.msgs, 9 + 90);
        let v = bcast_volume(Algorithm::Binomial, 100, 10);
        assert_eq!(v.msgs, 9);
        assert_eq!(v.bytes, 900);
        assert_eq!(bcast_volume(Algorithm::ScatterRingTuned, 100, 1), Volume::default());
    }

    #[test]
    fn tuned_bytes_save_fraction_approaches_limit() {
        // For large pof2 P the owned sum ≈ P·log-ish…; just pin the trend:
        // the byte saving fraction is positive and below 50%.
        for p in [8usize, 16, 64, 128] {
            let nbytes = p * 64;
            let native = native_ring_bytes(nbytes, p) as f64;
            let tuned = tuned_ring_bytes(nbytes, p) as f64;
            let frac = 1.0 - tuned / native;
            assert!(frac > 0.0 && frac < 0.5, "p={p} frac={frac}");
        }
    }
}
