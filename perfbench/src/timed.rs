//! Outside-in tracing: a forwarding [`AsyncCommunicator`] that times every
//! call into the layer below it, and a poll timer for whole rank tasks.
//!
//! Spans are aggregated in place (sum of nanoseconds, poll count, call
//! count) because the per-message workloads make millions of calls per op;
//! nothing is buffered per call. A span's time is the sum of the wall time
//! of every `poll` of the inner future, so a call that parks and resumes is
//! billed only for the time it actually ran.

use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::time::{Duration, Instant};

use mpsim::{AsyncCommunicator, CommError, IoSpan, Rank, Result, SharedBuf, Tag};

/// Running totals of one layer boundary.
#[derive(Default)]
pub struct Span {
    ns: Cell<u64>,
    polls: Cell<u64>,
    calls: Cell<u64>,
    timeouts: Cell<u64>,
}

/// A point-in-time copy of a [`Span`], subtractable to get per-op deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub ns: u64,
    pub polls: u64,
    pub calls: u64,
    /// Calls that resolved to [`CommError::Timeout`]: the timers that fired.
    pub timeouts: u64,
}

impl SpanTotals {
    pub fn minus(self, earlier: SpanTotals) -> SpanTotals {
        SpanTotals {
            ns: self.ns - earlier.ns,
            polls: self.polls - earlier.polls,
            calls: self.calls - earlier.calls,
            timeouts: self.timeouts - earlier.timeouts,
        }
    }
}

impl Span {
    pub fn totals(&self) -> SpanTotals {
        SpanTotals {
            ns: self.ns.get(),
            polls: self.polls.get(),
            calls: self.calls.get(),
            timeouts: self.timeouts.get(),
        }
    }

    fn add(&self, d: Duration) {
        self.ns.set(self.ns.get() + d.as_nanos() as u64);
        self.polls.set(self.polls.get() + 1);
    }
}

/// Drive `fut`, adding the wall time of each of its polls to `span`.
pub async fn poll_timed<F: Future>(span: &Span, fut: F) -> F::Output {
    span.calls.set(span.calls.get() + 1);
    let mut fut = std::pin::pin!(fut);
    poll_fn(|cx| {
        let t0 = Instant::now();
        let out = fut.as_mut().poll(cx);
        span.add(t0.elapsed());
        out
    })
    .await
}

/// [`poll_timed`] for communicator results, also counting fired timeouts.
async fn timed_call<T>(span: &Span, fut: impl Future<Output = Result<T>>) -> Result<T> {
    let out = poll_timed(span, fut).await;
    if matches!(out, Err(CommError::Timeout { .. })) {
        span.timeouts.set(span.timeouts.get() + 1);
    }
    out
}

/// Times one synchronous call as a single-poll span.
fn timed_sync<T>(span: &Span, f: impl FnOnce() -> T) -> T {
    span.calls.set(span.calls.get() + 1);
    let t0 = Instant::now();
    let out = f();
    span.add(t0.elapsed());
    out
}

/// The benchmark's timing decorator. Every trait method is forwarded to
/// the inner communicator's own implementation — none falls back to a
/// trait default, whose copy paths would change `bytes_copied`.
pub struct Timed<'a, C: ?Sized> {
    inner: &'a C,
    span: &'a Span,
}

impl<'a, C: ?Sized> Timed<'a, C> {
    pub fn new(inner: &'a C, span: &'a Span) -> Self {
        Timed { inner, span }
    }
}

impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for Timed<'_, C> {
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
        timed_call(self.span, self.inner.send(buf, dest, tag)).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        timed_call(self.span, self.inner.recv(buf, src, tag)).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        timed_call(self.span, self.inner.recv_timeout(buf, src, tag, timeout)).await
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
        let fut = self.inner.sendrecv(sendbuf, dest, sendtag, recvbuf, src, recvtag);
        timed_call(self.span, fut).await
    }

    async fn barrier(&self) -> Result<()> {
        timed_call(self.span, self.inner.barrier()).await
    }

    async fn send_vectored(
        &self,
        buf: &[u8],
        spans: &[IoSpan],
        dest: Rank,
        tag: Tag,
    ) -> Result<()> {
        timed_call(self.span, self.inner.send_vectored(buf, spans, dest, tag)).await
    }

    async fn recv_scattered(
        &self,
        buf: &mut [u8],
        spans: &[IoSpan],
        src: Rank,
        tag: Tag,
    ) -> Result<usize> {
        timed_call(self.span, self.inner.recv_scattered(buf, spans, src, tag)).await
    }

    async fn sendrecv_vectored(
        &self,
        buf: &mut [u8],
        send_spans: &[IoSpan],
        dest: Rank,
        sendtag: Tag,
        recv_spans: &[IoSpan],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        let fut =
            self.inner.sendrecv_vectored(buf, send_spans, dest, sendtag, recv_spans, src, recvtag);
        timed_call(self.span, fut).await
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        timed_sync(self.span, || self.inner.make_shared(data))
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes);
    }

    async fn send_shared(&self, buf: &SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        timed_call(self.span, self.inner.send_shared(buf, dest, tag)).await
    }

    async fn send_shared_to(&self, dests: &[Rank], buf: &SharedBuf, tag: Tag) -> Result<()> {
        timed_call(self.span, self.inner.send_shared_to(dests, buf, tag)).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<SharedBuf> {
        timed_call(self.span, self.inner.recv_owned(capacity, src, tag)).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<SharedBuf> {
        timed_call(self.span, self.inner.recv_owned_timeout(capacity, src, tag, timeout)).await
    }

    async fn sendrecv_shared(
        &self,
        sendbuf: &SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<SharedBuf> {
        let fut = self.inner.sendrecv_shared(sendbuf, dest, sendtag, recv_capacity, src, recvtag);
        timed_call(self.span, fut).await
    }
}

/// Cost of one empty span, measured in the same process: `total_ns` is what
/// a span costs the code around it, `inner_ns` the part of it that the span
/// itself records as its own duration.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCost {
    pub total_ns: f64,
    pub inner_ns: f64,
}

/// Calibrate [`ProbeCost`] by timing empty communicator-call spans
/// (`timed_call` around a ready future, as `Timed` makes them),
/// keeping the fastest of several batches of each loop: noise from the
/// rest of the host only ever adds time.
pub fn calibrate_probe() -> ProbeCost {
    const BATCH: u64 = 200_000;
    let (mut with, mut bare, mut inner) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let span = Span::default();
        let t0 = Instant::now();
        for i in 0..BATCH {
            let call = timed_call(&span, async { Result::Ok(std::hint::black_box(i)) });
            let v = mpsim::complete_now(call);
            let _ = std::hint::black_box(v);
        }
        let bare_t0 = Instant::now();
        for i in 0..BATCH {
            let v = mpsim::complete_now(async { Result::Ok(std::hint::black_box(i)) });
            let _ = std::hint::black_box(v);
        }
        bare = bare.min(bare_t0.elapsed().as_nanos() as f64 / BATCH as f64);
        with = with.min((bare_t0 - t0).as_nanos() as f64 / BATCH as f64);
        inner = inner.min(span.totals().ns as f64 / BATCH as f64);
    }
    ProbeCost { total_ns: (with - bare).max(inner), inner_ns: inner }
}
