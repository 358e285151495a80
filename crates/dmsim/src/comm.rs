//! The SPMD launcher, point-to-point messaging, and rank groups.
//!
//! Ranks are OS threads; each rank owns a single `std::sync::mpsc` (MPSC)
//! inbox. Messages are typed (`Box<dyn Any + Send>`) and matched by
//! *source rank* with per-source FIFO ordering, which is exactly the
//! guarantee MPI gives for a single communicator and tag.
//!
//! Every envelope carries the sender's simulated clock at completion of the
//! send, so a receive advances the receiver's simulated clock to at least
//! the message's arrival time. This makes the final per-rank clocks a
//! BSP-style makespan under the α-β model without any global coordination.
//!
//! Rank panics are captured: [`run_spmd`] and friends return
//! `Result<Vec<R>, DmsimError>` where the error carries the failing rank
//! and its panic payload. A rank's stream closes when its [`Comm`] drops —
//! its body returned or unwound — so a peer still waiting on it fails
//! instead of waiting forever, and the error names the rank that failed
//! first. Tracing (see [`crate::trace`]) hangs off the same launchers via
//! [`run_spmd_traced`].

use crate::cost::{CostSnapshot, Counter, MachineModel};
use crate::trace::{RankTrace, Span, SpanKind, TraceLevel, TraceLocal, TraceSink};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

type Payload = Box<dyn Any + Send>;

/// What a [`DmsimError`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// A rank of the SPMD program panicked.
    RankPanic,
    /// The run was refused before any rank started: a rank count that is
    /// not a square grid, a graph too large for `u32` vertex ids or for the
    /// host's memory — or the host could not start every rank thread.
    InvalidConfig,
    /// Every rank ran to its round bound without converging.
    NotConverged,
}

/// Error returned when an SPMD run fails: one or more ranks panicked, or —
/// raised by the layers above the launcher — the run was misconfigured or
/// did not converge.
///
/// For a rank panic, carries the lowest failing rank and that rank's panic
/// payload (the value passed to `panic!`, usually a `String` or `&str`);
/// for the other kinds, rank 0 and the message.
pub struct DmsimError {
    /// What failed; [`Display`](std::fmt::Display) says "panicked" only for
    /// [`ErrorKind::RankPanic`].
    pub kind: ErrorKind,
    /// The (lowest-numbered) rank that panicked.
    pub rank: usize,
    /// That rank's panic payload, or the message as a `String`.
    pub payload: Box<dyn Any + Send + 'static>,
}

impl DmsimError {
    /// An error of a kind other than a rank panic, carrying `message`.
    pub fn new(kind: ErrorKind, message: String) -> Self {
        DmsimError {
            kind,
            rank: 0,
            payload: Box::new(message),
        }
    }

    /// The panic message, if the payload was a string (the common case);
    /// `"<non-string panic payload>"` otherwise.
    pub fn message(&self) -> &str {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            s
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s
        } else if self.payload.is::<PeerFailed>() {
            "a peer rank exited before this rank was done with it"
        } else {
            "<non-string panic payload>"
        }
    }
}

impl std::fmt::Debug for DmsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmsimError")
            .field("kind", &self.kind)
            .field("rank", &self.rank)
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for DmsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ErrorKind::RankPanic => write!(f, "rank {} panicked: {}", self.rank, self.message()),
            ErrorKind::InvalidConfig | ErrorKind::NotConverged => f.write_str(self.message()),
        }
    }
}

impl std::error::Error for DmsimError {}

/// The panic payload of a rank whose peer closed before sending what it
/// waited for, or whose message found the peer's inbox gone. The launcher
/// reports the rank that failed on its own, not these echoes of it.
struct PeerFailed;

/// The payload a closed stream ends with: [`Comm`]'s `Drop` queues one
/// behind the rank's last message to every peer, and the launcher queues
/// them for the ranks it could not start.
struct Closed;

/// Queues `src`'s [`Closed`] marker in the inbox of every rank in `dests`
/// but `src` itself.
fn close(senders: &[Sender<Envelope>], src: usize, dests: std::ops::Range<usize>) {
    for dest in dests.filter(|&d| d != src) {
        // A peer that has already returned dropped its inbox: there is
        // nobody left to tell.
        let _ = senders[dest].send(Envelope {
            src: src as u32,
            arrival: 0.0,
            words: 0,
            bytes: 0,
            payload: Box::new(Closed),
        });
    }
}

struct Envelope {
    src: u32,
    /// Simulated arrival time at the receiver.
    arrival: f64,
    /// 8-byte words in the payload (for receiver-side accounting).
    words: u64,
    /// Exact payload bytes (for receiver-side byte accounting).
    bytes: u64,
    payload: Payload,
}

/// A subset of ranks participating in a collective (MPI communicator /
/// group). Constructed via [`Comm::world`] or [`Comm::group`].
#[derive(Clone, Debug)]
pub struct Group {
    ranks: Vec<usize>,
    my_index: usize,
}

impl Group {
    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's index within the group.
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// World rank of group member `i`.
    pub fn member(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// All member ranks.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }
}

/// Handle to a posted non-blocking operation (see [`Comm::post`]).
///
/// The simulator executes the operation *eagerly* at post time — the
/// message pattern, payloads, and α-β charges are exactly those of the
/// blocking call, so results and traffic counters cannot depend on when
/// the handle is waited on. What the handle defers is the *clock*: it
/// remembers how much of the operation's charged time was hideable
/// exchange time (β transfers and synchronization waits; α posts and the
/// operation's own local compute are not hideable), and
/// [`CommHandle::wait`] credits back `min(hideable, time elapsed since
/// the post)` — the portion of the exchange that genuinely ran behind the
/// caller's local work. The credit is subtracted from the clock and
/// accumulated in [`CostSnapshot::overlap_hidden_s`]; the clock never
/// rewinds past the post-time completion point, so causality (message
/// arrival stamps, downstream receives) is preserved.
#[must_use = "a posted operation must be completed with wait()"]
pub struct CommHandle<T> {
    value: T,
    hideable_s: f64,
    /// The rank clock at (eager) completion of the posted operation.
    post_clock_s: f64,
}

impl<T> CommHandle<T> {
    /// Borrows the operation's (eagerly computed) result without
    /// completing it. This models *streaming consumption*: a real
    /// non-blocking implementation hands received fragments to the
    /// consumer as they arrive, so compute that processes the payload can
    /// run while the tail of the transfer is still in flight. Charge that
    /// compute between [`Comm::post`] and [`CommHandle::wait`] and the
    /// wait credits the hidden portion back to the clock.
    pub fn peek(&self) -> &T {
        &self.value
    }

    /// Completes the operation: credits `min(hideable, elapsed since
    /// post)` back to the clock (recorded in
    /// [`CostSnapshot::overlap_hidden_s`] and as a
    /// [`SpanKind::Overlap`] span) and returns the operation's result.
    pub fn wait(self, comm: &mut Comm) -> T {
        let elapsed = (comm.snap.clock_s - self.post_clock_s).max(0.0);
        comm.apply_overlap_credit(elapsed.min(self.hideable_s));
        self.value
    }
}

/// Token marking the start of a local-compute window whose time may hide
/// a *later* exchange (see [`Comm::overlap_window`] /
/// [`Comm::overlap_from`]). The mirror image of [`CommHandle`]: instead
/// of posting the exchange first and overlapping compute after it, the
/// compute runs first and the exchange that follows is credited against
/// it. This fits pipelined loops where iteration `i`'s exchange can only
/// be *initiated* after data from iteration `i−1` is final, but its
/// transfer time would, in a real non-blocking implementation, progress
/// while the preceding independent compute was still running.
#[must_use = "an overlap window is only useful if passed to overlap_from"]
pub struct OverlapWindow {
    start_clock_s: f64,
}

/// Per-rank handle to the simulated machine: messaging, collectives
/// (see [`crate::collectives`]), cost accounting, and span tracing
/// (see [`crate::trace`]).
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    rx: Receiver<Envelope>,
    /// Out-of-order buffer: messages that arrived before being asked for.
    pending: Vec<VecDeque<(f64, u64, u64, Payload)>>,
    model: MachineModel,
    snap: CostSnapshot,
    /// Raw count of local operations charged (denominator-free companion
    /// to `snap.compute_s`; reported in trace spans).
    ops_charged: u64,
    trace: TraceLocal,
    sink: Option<Arc<TraceSink>>,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The group of all ranks.
    pub fn world(&self) -> Group {
        Group {
            ranks: (0..self.size).collect(),
            my_index: self.rank,
        }
    }

    /// A group over an explicit rank list (must contain this rank; ranks
    /// must be distinct).
    pub fn group(&self, ranks: Vec<usize>) -> Group {
        let my_index = ranks
            .iter()
            .position(|&r| r == self.rank)
            .expect("group must contain the calling rank");
        debug_assert!(
            {
                let mut s = ranks.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1]) && s.iter().all(|&r| r < self.size)
            },
            "group ranks must be distinct and in range"
        );
        Group { ranks, my_index }
    }

    /// Charges `ops` local operations (edges scanned, vector elements
    /// touched) against the simulated clock.
    pub fn charge_compute(&mut self, ops: u64) {
        let t = ops as f64 / self.model.rate;
        self.snap.compute_s += t;
        self.snap.clock_s += t;
        self.ops_charged += ops;
    }

    /// Charges `words` of modeled communication volume (β only) without a
    /// corresponding simulated message. Used when an algorithm being
    /// modeled moves data the simulation represents implicitly — e.g. the
    /// ParConnect simulation's sort-based tuple shuffles.
    pub fn charge_comm_words(&mut self, words: u64) {
        let t = self.model.beta * words as f64;
        self.snap.comm_s += t;
        self.snap.clock_s += t;
        self.snap.words_sent += words;
        self.snap.bytes_sent += words * 8;
    }

    /// Adds `n` to this rank's `counter` in [`CostSnapshot::counters`].
    /// Observational only: the clock never reads a counter.
    pub fn count(&mut self, counter: Counter, n: u64) {
        self.snap.counters[counter as usize] += n;
    }

    /// Current accounting snapshot (clock, breakdowns, traffic counters).
    pub fn snapshot(&self) -> CostSnapshot {
        self.snap
    }

    /// Current simulated clock in seconds.
    pub fn clock_s(&self) -> f64 {
        self.snap.clock_s
    }

    /// Opens a typed trace span at the current simulated clock. Cheap
    /// (one enum compare, no allocation) when `kind` is below the active
    /// trace level; never touches the cost accounting either way, so
    /// traced and untraced runs stay bit-identical.
    pub fn span_open(&mut self, kind: SpanKind) -> Span {
        let start_clock = self.snap.clock_s;
        if !self.trace.enabled(kind) {
            return Span {
                start_clock,
                slot: None,
            };
        }
        let words = self.snap.words_sent + self.snap.words_received;
        let slot = self.trace.open(kind, start_clock, words, self.ops_charged);
        Span {
            start_clock,
            slot: Some(slot),
        }
    }

    /// Closes a span (LIFO with respect to [`Comm::span_open`]) and
    /// returns its modeled duration in seconds — also meaningful when the
    /// span was not recorded, which lets callers reuse the span token for
    /// their own phase timing.
    pub fn span_close(&mut self, span: Span) -> f64 {
        let end = self.snap.clock_s;
        if let Some(slot) = span.slot {
            let words = self.snap.words_sent + self.snap.words_received;
            self.trace.close(slot, end, words, self.ops_charged);
        }
        end - span.start_clock
    }

    /// Drains this rank's spans into the sink (no-op when untraced).
    /// Called by the launcher after the SPMD body returns.
    fn finish_trace(&mut self) {
        if let Some(sink) = self.sink.take() {
            let spans = self.trace.drain(self.snap.clock_s);
            sink.submit(RankTrace {
                rank: self.rank,
                spans,
                snapshot: self.snap,
            });
        }
    }

    /// Sends `msg` to `dest`, charging `α + β·words` to this rank.
    ///
    /// `words` is the payload size in 8-byte words; use
    /// [`words_of`] for slices. Bytes are recorded as `words × 8`; callers
    /// that know the exact payload size use [`Comm::send_counted_bytes`].
    /// Self-sends are free (local move).
    pub fn send_counted<T: Send + 'static>(&mut self, dest: usize, msg: T, words: u64) {
        self.send_counted_bytes(dest, msg, words, words * 8);
    }

    /// [`Comm::send_counted`] with an exact byte count alongside the word
    /// count. The β charge stays word-based (the model's bandwidth unit);
    /// `bytes` feeds only the [`CostSnapshot::bytes_sent`] /
    /// [`CostSnapshot::bytes_received`] counters, which is where narrow
    /// index layouts show their true wire size.
    pub fn send_counted_bytes<T: Send + 'static>(
        &mut self,
        dest: usize,
        msg: T,
        words: u64,
        bytes: u64,
    ) {
        if dest == self.rank {
            self.pending[dest].push_back((self.snap.clock_s, 0, 0, Box::new(msg)));
            return;
        }
        let cost = self.model.alpha + self.model.beta * words as f64;
        self.snap.comm_s += cost;
        self.snap.clock_s += cost;
        self.snap.messages_sent += 1;
        self.snap.words_sent += words;
        self.snap.bytes_sent += bytes;
        let env = Envelope {
            src: self.rank as u32,
            arrival: self.snap.clock_s,
            words,
            bytes,
            payload: Box::new(msg),
        };
        // An inbox is gone only when its rank has closed, and a correct
        // program sends nothing to a rank that is done.
        if self.senders[dest].send(env).is_err() {
            std::panic::panic_any(PeerFailed);
        }
    }

    /// Sends a sized value (scalars, small structs): the word count is
    /// derived from `size_of::<T>()`.
    pub fn send<T: Send + 'static>(&mut self, dest: usize, msg: T) {
        let bytes = std::mem::size_of::<T>() as u64;
        self.send_counted_bytes(dest, msg, bytes.div_ceil(8), bytes);
    }

    /// Sends a vector, counting its element storage.
    pub fn send_vec<T: Send + 'static>(&mut self, dest: usize, msg: Vec<T>) {
        let words = words_of::<T>(msg.len());
        let bytes = bytes_of::<T>(msg.len());
        self.send_counted_bytes(dest, msg, words, bytes);
    }

    /// Receives the next message from `src`, blocking until it arrives.
    ///
    /// Advances the simulated clock to at least the message arrival time,
    /// then charges `β·words` for the receive copy.
    ///
    /// # Panics
    /// If the next message from `src` has a different payload type — that
    /// is a protocol bug in the SPMD program (surfaced to the caller as a
    /// [`DmsimError`] by the launcher) — or if `src` closed before sending
    /// it.
    pub fn recv<T: Send + 'static>(&mut self, src: usize) -> T {
        loop {
            if let Some((arrival, words, bytes, payload)) = self.pending[src].pop_front() {
                if payload.is::<Closed>() {
                    std::panic::panic_any(PeerFailed);
                }
                self.snap.clock_s = self.snap.clock_s.max(arrival);
                let copy = self.model.beta * words as f64;
                self.snap.clock_s += copy;
                self.snap.comm_s += copy;
                self.snap.messages_received += u64::from(src != self.rank);
                self.snap.words_received += words;
                self.snap.bytes_received += bytes;
                // Fires only on a protocol bug: the sender's type is not `T`.
                return *payload.downcast::<T>().unwrap_or_else(|_| {
                    panic!(
                        "rank {} expected {} from rank {src}, got a different type",
                        self.rank,
                        std::any::type_name::<T>()
                    )
                });
            }
            // Cannot fire: this rank's own sender keeps its inbox open.
            let env = self.rx.recv().expect("a rank's inbox outlives its Comm");
            self.pending[env.src as usize].push_back((
                env.arrival,
                env.words,
                env.bytes,
                env.payload,
            ));
        }
    }

    /// Posts `op` as a non-blocking operation and returns a
    /// [`CommHandle`] for it.
    ///
    /// The operation runs *eagerly* (identical messages, payloads, and
    /// α-β charges to calling `op` directly — results can never depend on
    /// the overlap credit); the handle records how much of its charged
    /// time is hideable exchange time:
    ///
    /// ```text
    /// hideable = max(0, Δclock − Δcompute − α·Δmessages)
    /// ```
    ///
    /// i.e. β transfer time plus synchronization waits, excluding the α
    /// message posts (initiation stays on the critical path) and the
    /// operation's own local compute (compute cannot hide behind
    /// compute).
    pub fn post<T>(&mut self, op: impl FnOnce(&mut Comm) -> T) -> CommHandle<T> {
        let clock0 = self.snap.clock_s;
        let compute0 = self.snap.compute_s;
        let msgs0 = self.snap.messages_sent;
        let value = op(self);
        let d_clock = self.snap.clock_s - clock0;
        let d_compute = self.snap.compute_s - compute0;
        let d_alpha = self.model.alpha * (self.snap.messages_sent - msgs0) as f64;
        CommHandle {
            value,
            hideable_s: (d_clock - d_compute - d_alpha).max(0.0),
            post_clock_s: self.snap.clock_s,
        }
    }

    /// Opens an overlap window at the current clock: independent local
    /// compute charged from here on can hide a later exchange run through
    /// [`Comm::overlap_from`]. See [`OverlapWindow`].
    pub fn overlap_window(&self) -> OverlapWindow {
        OverlapWindow {
            start_clock_s: self.snap.clock_s,
        }
    }

    /// Runs `op` (typically an exchange) as [`Comm::post`] does and
    /// credits its hideable time against the time elapsed since `win` was
    /// opened: `credit = min(hideable, window length)`. The credit is
    /// applied exactly as in [`CommHandle::wait`] and the clock never
    /// rewinds past the point where `op` started.
    pub fn overlap_from<T>(&mut self, win: OverlapWindow, op: impl FnOnce(&mut Comm) -> T) -> T {
        let available = (self.snap.clock_s - win.start_clock_s).max(0.0);
        let h = self.post(op);
        self.apply_overlap_credit(available.min(h.hideable_s));
        h.value
    }

    /// Applies an overlap credit: subtracts it from the clock, records it
    /// in [`CostSnapshot::overlap_hidden_s`], and (at step-level tracing)
    /// emits a [`SpanKind::Overlap`] span covering the credited interval.
    /// Callers guarantee `credit` never moves the clock before the
    /// operation the credit belongs to started.
    fn apply_overlap_credit(&mut self, credit: f64) {
        if credit <= 0.0 {
            return;
        }
        self.snap.clock_s -= credit;
        self.snap.overlap_hidden_s += credit;
        if self.trace.enabled(SpanKind::Overlap) {
            // The hidden exchange ran concurrently with work ending at the
            // credited clock; draw it over the interval it disappeared
            // into. Observation only — never feeds back into the clock.
            let end = self.snap.clock_s;
            self.trace
                .record_closed(SpanKind::Overlap, (end - credit).max(0.0), end);
        }
    }
}

impl Drop for Comm {
    /// Closes this rank's stream behind its last message to every peer,
    /// whether its body returned or unwound.
    fn drop(&mut self) {
        close(&self.senders, self.rank, 0..self.size);
    }
}

/// Payload size in 8-byte words for a slice of `len` elements of `T`.
pub fn words_of<T>(len: usize) -> u64 {
    ((len * std::mem::size_of::<T>()) as u64).div_ceil(8)
}

/// Exact payload size in bytes for a slice of `len` elements of `T`.
pub fn bytes_of<T>(len: usize) -> u64 {
    (len * std::mem::size_of::<T>()) as u64
}

/// Runs an SPMD program on `p` simulated ranks with the zero-cost model
/// (useful when only results matter, e.g. unit tests).
///
/// Returns per-rank results indexed by rank, or a [`DmsimError`] naming
/// the first rank that panicked.
pub fn run_spmd<R, F>(p: usize, f: F) -> Result<Vec<R>, DmsimError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    run_spmd_with_model(p, MachineModel::free(), f)
}

/// Runs an SPMD program on `p` simulated ranks under a cost model.
pub fn run_spmd_with_model<R, F>(p: usize, model: MachineModel, f: F) -> Result<Vec<R>, DmsimError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    run_spmd_traced(p, model, None, f)
}

/// Runs an SPMD program on `p` simulated ranks under a cost model, with
/// optional span tracing: when `sink` is `Some`, each rank records spans
/// at the sink's [`TraceLevel`] and drains them (plus its final
/// [`CostSnapshot`]) into the sink when its body returns.
///
/// Each rank executes `f` on its own OS thread with a 4 MiB stack (ranks
/// are numerous; large default stacks would exhaust memory at high `p`).
/// A rank's stream closes when its body returns or unwinds, so every rank
/// still waiting on a message the closed rank never sent fails as well;
/// after all ranks have been joined the lowest rank that failed on its own
/// is returned with its payload as a [`DmsimError`]. A rank thread the host
/// cannot start closes it and every rank after it, and is returned as an
/// [`ErrorKind::InvalidConfig`] error.
pub fn run_spmd_traced<R, F>(
    p: usize,
    model: MachineModel,
    sink: Option<&Arc<TraceSink>>,
    f: F,
) -> Result<Vec<R>, DmsimError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let (senders, rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::<Envelope>()).unzip();
    let senders = Arc::new(senders);
    let f = &f;
    let level = sink.map_or(TraceLevel::Off, |s| s.level());
    let mut spawn_err = None;
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, rx) in rxs.into_iter().enumerate() {
            let rank_senders = Arc::clone(&senders);
            let sink = sink.cloned();
            let handle = std::thread::Builder::new()
                .name(format!("dmsim-rank-{rank}"))
                .stack_size(4 << 20)
                .spawn_scoped(scope, move || {
                    let mut comm = Comm {
                        rank,
                        size: p,
                        senders: rank_senders,
                        rx,
                        pending: (0..p).map(|_| VecDeque::new()).collect(),
                        model,
                        snap: CostSnapshot::default(),
                        ops_charged: 0,
                        trace: TraceLocal::new(level),
                        sink,
                    };
                    let r = f(&mut comm);
                    comm.finish_trace();
                    r
                });
            match handle {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // The ranks already running fail on the ranks that will
                    // never start instead of waiting on them forever.
                    for src in rank..p {
                        close(&senders, src, 0..rank);
                    }
                    spawn_err = Some(DmsimError::new(
                        ErrorKind::InvalidConfig,
                        format!("the host could not start rank {rank} of {p}: {e}"),
                    ));
                    break;
                }
            }
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    if let Some(e) = spawn_err {
        return Err(e);
    }
    let mut results = Vec::with_capacity(p);
    let mut errs: Vec<DmsimError> = Vec::new();
    for (rank, joined) in joined.into_iter().enumerate() {
        match joined {
            Ok(r) => results.push(r),
            Err(payload) => errs.push(DmsimError {
                kind: ErrorKind::RankPanic,
                rank,
                payload,
            }),
        }
    }
    if errs.is_empty() {
        return Ok(results);
    }
    // The lowest rank that failed on its own, not a peer's echo of it.
    let own = errs.iter().position(|e| !e.payload.is::<PeerFailed>());
    Err(errs.swap_remove(own.unwrap_or(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EDISON;

    #[test]
    fn ranks_see_their_ids() {
        let ids = run_spmd(5, |c| (c.rank(), c.size())).unwrap();
        assert_eq!(ids, (0..5).map(|r| (r, 5)).collect::<Vec<_>>());
    }

    #[test]
    fn point_to_point_ring() {
        let out = run_spmd(4, |c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send(next, c.rank() as u64);
            c.recv::<u64>(prev)
        })
        .unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_sources_are_buffered() {
        let out = run_spmd(3, |c| match c.rank() {
            0 => {
                // Receive from 2 first even though 1's message likely
                // arrives earlier.
                let a = c.recv::<u32>(2);
                let b = c.recv::<u32>(1);
                a * 10 + b
            }
            r => {
                c.send(0, r as u32);
                0
            }
        })
        .unwrap();
        assert_eq!(out[0], 21);
    }

    #[test]
    fn fifo_per_source() {
        let out = run_spmd(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u32 {
                    c.send(1, i);
                }
                0
            } else {
                (0..10)
                    .map(|_| c.recv::<u32>(0))
                    .collect::<Vec<_>>()
                    .windows(2)
                    .all(|w| w[0] < w[1]) as u32
            }
        })
        .unwrap();
        assert_eq!(out[1], 1);
    }

    #[test]
    fn self_send_is_free_and_works() {
        let out = run_spmd_with_model(1, EDISON.lacc_model(), |c| {
            c.send_vec(0, vec![1u64, 2, 3]);
            let v = c.recv::<Vec<u64>>(0);
            let snap = c.snapshot();
            (v, snap.messages_sent + snap.messages_received, c.clock_s())
        })
        .unwrap();
        assert_eq!(out[0].0, vec![1, 2, 3]);
        assert_eq!(out[0].1, 0);
        assert_eq!(out[0].2, 0.0);
    }

    #[test]
    fn send_charges_alpha_beta() {
        let model = EDISON.lacc_model();
        let out = run_spmd_with_model(2, model, |c| {
            if c.rank() == 0 {
                c.send_vec(1, vec![0u64; 1000]);
            } else {
                let _ = c.recv::<Vec<u64>>(0);
            }
            c.snapshot()
        })
        .unwrap();
        let sender = out[0];
        assert_eq!(sender.words_sent, 1000);
        assert!((sender.clock_s - (model.alpha + model.beta * 1000.0)).abs() < 1e-12);
        // Receiver clock: arrival + receive copy.
        let recv = out[1];
        assert_eq!(recv.words_received, 1000);
        assert!(recv.clock_s >= sender.clock_s);
        assert_eq!((sender.messages_sent, sender.messages_received), (1, 0));
        assert_eq!((recv.messages_sent, recv.messages_received), (0, 1));
    }

    #[test]
    fn clock_propagates_through_receives() {
        let model = EDISON.lacc_model();
        let out = run_spmd_with_model(3, model, |c| {
            // 0 does heavy compute, then sends to 1, who forwards to 2.
            match c.rank() {
                0 => {
                    c.charge_compute(1_000_000_000);
                    c.send(1, ());
                }
                1 => {
                    c.recv::<()>(0);
                    c.send(2, ());
                }
                2 => {
                    c.recv::<()>(1);
                }
                _ => unreachable!(),
            }
            c.clock_s()
        })
        .unwrap();
        // Rank 2's clock must reflect rank 0's compute time transitively.
        assert!(out[2] >= out[0]);
        assert!(out[0] >= 1_000_000_000.0 / model.rate);
    }

    #[test]
    fn charge_compute_accumulates() {
        let out = run_spmd_with_model(1, EDISON.lacc_model(), |c| {
            c.charge_compute(100);
            c.charge_compute(200);
            c.snapshot()
        })
        .unwrap();
        assert!(out[0].compute_s > 0.0);
        assert_eq!(out[0].clock_s, out[0].compute_s);
    }

    #[test]
    fn type_mismatch_is_a_dmsim_error() {
        let err = run_spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7u32);
            } else {
                let _ = c.recv::<u64>(0);
            }
        })
        .unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(err.message().contains("expected"), "got: {}", err.message());
        assert!(err.to_string().contains("rank 1 panicked"));
        assert_eq!(err.kind, ErrorKind::RankPanic);
    }

    #[test]
    fn error_reports_lowest_failing_rank() {
        let err = run_spmd(4, |c| {
            if c.rank() >= 2 {
                panic!("boom on rank {}", c.rank());
            }
        })
        .unwrap_err();
        assert_eq!(err.rank, 2);
        assert_eq!(err.message(), "boom on rank 2");
    }

    /// Runs `body` on `p` ranks, on a helper thread so that a rank left
    /// waiting forever fails the test instead of hanging the suite, and
    /// expects the run's error back within a second.
    fn fails_within_a_second<R: Send + 'static>(p: usize, body: fn(&mut Comm) -> R) -> DmsimError {
        let (tx, rx) = channel();
        std::thread::spawn(move || tx.send(run_spmd(p, body).map(drop)));
        rx.recv_timeout(std::time::Duration::from_secs(1))
            .expect("the run was still blocked after one second")
            .unwrap_err()
    }

    /// Expects rank 1's "boom" back from `body` on four ranks.
    fn rank_1_boom_fails_the_run<R: Send + 'static>(body: fn(&mut Comm) -> R) {
        let err = fails_within_a_second(4, body);
        assert_eq!((err.rank, err.message()), (1, "boom"));
    }

    #[test]
    fn rank_that_returns_early_fails_its_waiting_peer_instead_of_hanging_it() {
        let err = fails_within_a_second(2, |c| {
            if c.rank() == 1 {
                c.recv::<u64>(0);
            }
        });
        assert_eq!(
            (err.rank, err.message()),
            (1, "a peer rank exited before this rank was done with it")
        );
    }

    #[test]
    fn rank_killed_before_a_barrier_fails_the_run_instead_of_hanging_it() {
        rank_1_boom_fails_the_run(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            let w = c.world();
            c.barrier(&w);
        });
    }

    #[test]
    fn rank_killed_mid_alltoallv_fails_the_run_instead_of_hanging_it() {
        // Rank 1 gets as far as the first send of the pairwise schedule and
        // dies before its first receive: rank 2 has its bucket, ranks 3 and
        // 0 wait for theirs in rounds 2 and 3.
        rank_1_boom_fails_the_run(|c| {
            if c.rank() == 1 {
                c.send_vec(2, vec![1u64]);
                panic!("boom");
            }
            let w = c.world();
            let bufs = vec![vec![c.rank() as u64]; 4];
            c.alltoallv(&w, bufs, crate::AllToAll::Pairwise)
        });
    }

    #[test]
    fn group_membership() {
        run_spmd(6, |c| {
            if c.rank() % 2 == 0 {
                let g = c.group(vec![0, 2, 4]);
                assert_eq!(g.size(), 3);
                assert_eq!(g.member(g.my_index()), c.rank());
            }
        })
        .unwrap();
    }

    #[test]
    fn charge_comm_words_adds_beta_time() {
        let model = EDISON.lacc_model();
        let out = run_spmd_with_model(1, model, |c| {
            c.charge_comm_words(1_000_000);
            c.snapshot()
        })
        .unwrap();
        assert!((out[0].comm_s - model.beta * 1e6).abs() < 1e-12);
        assert_eq!(out[0].words_sent, 1_000_000);
        assert_eq!(out[0].messages_sent, 0, "no simulated message involved");
    }

    /// The 4096-word swap between two ranks that the overlap tests post,
    /// window or call blocking.
    fn swap(c: &mut Comm) -> Vec<u64> {
        let peer = 1 - c.rank();
        c.send_vec(peer, vec![0u64; 4096]);
        c.recv::<Vec<u64>>(peer)
    }

    /// "Off" is the same exchange called blocking, the reference a posted
    /// one is measured against.
    #[test]
    fn overlap_hidden_zero_when_off_and_monotone_when_on() {
        let model = EDISON.lacc_model();
        let run = |posted: bool, ops: u64| {
            run_spmd_with_model(2, model, move |c| {
                if posted {
                    let h = c.post(swap);
                    c.charge_compute(ops);
                    let _ = h.wait(c);
                } else {
                    swap(c);
                    c.charge_compute(ops);
                }
                c.snapshot()
            })
            .unwrap()[0]
        };
        // The blocking call never hides anything.
        assert_eq!(run(false, 1_000_000).overlap_hidden_s, 0.0);
        // The credit is capped by the compute actually elapsed between
        // post and wait, and monotone in it.
        let h0 = run(true, 0).overlap_hidden_s;
        let h1 = run(true, 100).overlap_hidden_s;
        let h2 = run(true, 1_000_000).overlap_hidden_s;
        assert_eq!(h0, 0.0, "nothing elapsed, nothing hidden");
        assert!(h1 > 0.0);
        assert!(
            h2 >= h1,
            "more overlapped compute must hide at least as much"
        );
        // Charges are identical either way; only the clock credit differs.
        let blocking = run(false, 1_000_000);
        let posted = run(true, 1_000_000);
        assert_eq!(posted.words_sent, blocking.words_sent);
        assert_eq!(posted.messages_sent, blocking.messages_sent);
        assert_eq!(posted.bytes_sent, blocking.bytes_sent);
        assert!(
            posted.clock_s < blocking.clock_s,
            "the credit must shorten the clock"
        );
        assert!((blocking.clock_s - posted.clock_s - posted.overlap_hidden_s).abs() < 1e-12);
    }

    #[test]
    fn overlap_window_credits_preceding_compute() {
        let model = EDISON.lacc_model();
        let run = |windowed: bool| {
            run_spmd_with_model(2, model, move |c| {
                let win = c.overlap_window();
                c.charge_compute(1_000_000);
                if windowed {
                    c.overlap_from(win, swap);
                } else {
                    swap(c);
                }
                c.snapshot()
            })
            .unwrap()[0]
        };
        let blocking = run(false);
        let windowed = run(true);
        assert_eq!(blocking.overlap_hidden_s, 0.0);
        assert!(windowed.overlap_hidden_s > 0.0);
        assert_eq!(windowed.words_sent, blocking.words_sent);
        assert_eq!(windowed.messages_sent, blocking.messages_sent);
        assert!((blocking.clock_s - windowed.clock_s - windowed.overlap_hidden_s).abs() < 1e-12);
    }

    #[test]
    fn overlap_credit_excludes_alpha_and_internal_compute() {
        // A posted op that only computes has nothing hideable; a posted
        // empty-payload send hides nothing past its α charge.
        run_spmd_with_model(1, EDISON.lacc_model(), |c| {
            // Compute cannot hide behind compute.
            let h = c.post(|c| c.charge_compute(1_000_000));
            c.charge_compute(1_000_000);
            h.wait(c);
            assert_eq!(c.snapshot().overlap_hidden_s, 0.0);
        })
        .unwrap();
    }

    #[test]
    fn words_of_rounds_up() {
        assert_eq!(words_of::<u8>(9), 2);
        assert_eq!(words_of::<u64>(3), 3);
        assert_eq!(words_of::<(u64, u64)>(2), 4);
        assert_eq!(words_of::<u64>(0), 0);
    }
}
