//! MPI-style collectives over rank [`Group`]s.
//!
//! Every collective is built from point-to-point sends, so the α-β charges
//! accumulate automatically from the message pattern actually executed:
//!
//! * `barrier` — dissemination, `⌈log₂ q⌉` rounds.
//! * `bcast` — binomial tree.
//! * `allgatherv` — ring (bandwidth-optimal; the paper found a simple
//!   allgather fastest for its SpMV/SpMSpV gather phase).
//! * `reduce_scatter` — direct exchange + local fold.
//! * `allreduce` — allgather + deterministic fold (group order).
//! * `alltoallv` — three algorithms, selectable per call (§V-B):
//!   [`AllToAll::Pairwise`] is MPI's pairwise-exchange with `α(q−1)`
//!   latency; [`AllToAll::Hypercube`] is Sundar et al.'s `α·log q`
//!   store-and-forward algorithm; [`AllToAll::Sparse`] exchanges counts
//!   first and then contacts only nonempty partners.
//!
//! There is one gather and one all-to-all entry point. A caller with an
//! encoded stream ([`crate::wire`]) passes its `Vec<u8>` through them like
//! any other vector, so every message is charged for exactly what it
//! carries — `⌈len/8⌉` words and `len` bytes — and an empty frame is an
//! empty bucket to the sparse all-to-all's gate.
//!
//! Each collective opens a [`SpanKind`] trace span (recorded only at
//! [`crate::trace::TraceLevel::Collectives`]); `alltoallv` spans are
//! tagged with the algorithm actually executed, so a hypercube call that
//! falls back to pairwise on a non-power-of-two group traces as pairwise,
//! and a sparse exchange shows its internal count exchange as a nested
//! span.

#![allow(clippy::needless_range_loop)] // index loops double as rank ids here

use crate::comm::{bytes_of, words_of, Comm, Group};
use crate::cost::Counter;
use crate::trace::SpanKind;
use crate::wire::{self, WireWord};

/// Algorithm choice for [`Comm::alltoallv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllToAll {
    /// MPI's pairwise-exchange: `q − 1` rounds, `α(q−1)` latency — the
    /// algorithm whose poor scaling beyond 1024 ranks motivated the
    /// paper's replacement (§V-B).
    Pairwise,
    /// Hypercube store-and-forward (Sundar et al.): `α·log₂ q` latency at
    /// the price of forwarding bandwidth. Requires `q` to be a power of
    /// two; falls back to [`AllToAll::Pairwise`] otherwise.
    Hypercube,
    /// Sparse all-to-all: a cheap count exchange, then only nonempty pairs
    /// communicate. Ideal when most buckets are empty (late LACC
    /// iterations, Figure 3's "processes 7–15 have no data").
    Sparse,
}

impl Comm {
    /// Dissemination barrier over the group.
    pub fn barrier(&mut self, g: &Group) {
        let q = g.size();
        if q <= 1 {
            return;
        }
        let span = self.span_open(SpanKind::Barrier);
        let me = g.my_index();
        let mut k = 1usize;
        while k < q {
            let to = g.member((me + k) % q);
            let from = g.member((me + q - k % q) % q);
            self.send(to, ());
            self.recv::<()>(from);
            k <<= 1;
        }
        self.span_close(span);
    }

    /// Binomial-tree broadcast of a vector from group index `root_idx`.
    ///
    /// Non-roots pass `None`; everyone returns the payload.
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &mut self,
        g: &Group,
        root_idx: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        self.bcast_with(g, root_idx, data, Comm::send_vec)
    }

    /// Broadcast of a single cloneable value.
    pub fn bcast<T: Clone + Send + 'static>(
        &mut self,
        g: &Group,
        root_idx: usize,
        data: Option<T>,
    ) -> T {
        self.bcast_with(g, root_idx, data, Comm::send)
    }

    /// The binomial tree under [`Comm::bcast_vec`] and [`Comm::bcast`];
    /// `send` charges one hop.
    fn bcast_with<T: Clone + Send + 'static>(
        &mut self,
        g: &Group,
        root_idx: usize,
        data: Option<T>,
        send: fn(&mut Comm, usize, T),
    ) -> T {
        let span = self.span_open(SpanKind::Bcast);
        let q = g.size();
        let me = g.my_index();
        // Virtual index with the root shifted to 0.
        let vidx = (me + q - root_idx) % q;
        // Binomial tree: a node's parent is itself with the lowest set bit
        // cleared; its children are itself plus 2^j for j below the lowest
        // set bit (all powers of two for the root).
        let data = if vidx == 0 {
            // Fires only on a caller bug: the root passed no payload.
            data.expect("root must supply the broadcast payload")
        } else {
            debug_assert!(data.is_none(), "non-root supplied broadcast data");
            let parent = vidx - (1 << vidx.trailing_zeros());
            self.recv::<T>(g.member((parent + root_idx) % q))
        };
        let mut children = Vec::new();
        if vidx == 0 {
            let mut k = 1usize;
            while k < q {
                children.push(k);
                k <<= 1;
            }
        } else {
            let tz = vidx.trailing_zeros() as usize;
            for j in 0..tz {
                let c = vidx + (1 << j);
                if c < q {
                    children.push(c);
                }
            }
        }
        // Send to larger children first (deeper subtrees) as binomial
        // broadcast does.
        for &c in children.iter().rev() {
            let dest = g.member((c + root_idx) % q);
            send(self, dest, data.clone());
        }
        self.span_close(span);
        data
    }

    /// Ring allgather: every member contributes a vector; everyone returns
    /// all contributions indexed by group index.
    pub fn allgatherv<T: Clone + Send + 'static>(
        &mut self,
        g: &Group,
        mine: Vec<T>,
    ) -> Vec<Vec<T>> {
        let own = mine.clone();
        let mut result = self.allgatherv_peers(g, mine);
        result[g.my_index()] = own;
        result
    }

    /// [`Comm::allgatherv`] for a caller that keeps its own block in
    /// another form (an encoded frame's typed source): `mine` moves into
    /// the ring uncopied, and the caller's own slot comes back empty. The
    /// messages and their charges are the same.
    pub fn allgatherv_peers<T: Clone + Send + 'static>(
        &mut self,
        g: &Group,
        mine: Vec<T>,
    ) -> Vec<Vec<T>> {
        let span = self.span_open(SpanKind::Allgatherv);
        let q = g.size();
        let me = g.my_index();
        let mut result: Vec<Vec<T>> = (0..q).map(|_| Vec::new()).collect();
        let right = g.member((me + 1) % q);
        let left = g.member((me + q - 1) % q);
        // The ring forwards a copy of each incoming block, except on the
        // last step.
        let mut carry = mine;
        for step in 1..q {
            self.send_vec(right, carry);
            let incoming: Vec<T> = self.recv(left);
            let origin = (me + q - step) % q;
            carry = if step + 1 < q {
                incoming.clone()
            } else {
                Vec::new()
            };
            result[origin] = incoming;
        }
        self.span_close(span);
        result
    }

    /// Allreduce: recursive doubling (`(α + βw)·log₂ q`) on power-of-two
    /// groups, gather-to-root + broadcast otherwise. Deterministic: every
    /// pairwise combine applies `op(lower-index value, higher-index
    /// value)`. The payload size is taken from `size_of::<T>()`; use
    /// [`Comm::allreduce_counted`] for heap payloads like `Vec`.
    pub fn allreduce<T, F>(&mut self, g: &Group, val: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let words = (std::mem::size_of::<T>() as u64).div_ceil(8);
        self.allreduce_counted(g, val, words, op)
    }

    /// [`Comm::allreduce`] with an explicit per-message word count.
    pub fn allreduce_counted<T, F>(&mut self, g: &Group, val: T, words: u64, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        if g.size() == 1 {
            return val;
        }
        let span = self.span_open(SpanKind::Allreduce);
        let q = g.size();
        let me = g.my_index();
        let mut acc = val;
        if q.is_power_of_two() {
            let mut k = 1usize;
            while k < q {
                let partner = me ^ k;
                self.send_counted(g.member(partner), acc.clone(), words);
                let theirs: T = self.recv(g.member(partner));
                acc = if partner < me {
                    op(theirs, acc)
                } else {
                    op(acc, theirs)
                };
                k <<= 1;
            }
        } else {
            // General groups (tests, odd grids): fold at the root in group
            // order, then broadcast.
            let folded = self
                .gatherv(g, 0, vec![acc])
                .and_then(|all| all.into_iter().flatten().reduce(op));
            acc = self.bcast(g, 0, folded);
        }
        self.span_close(span);
        acc
    }

    /// Reduce-scatter: member `i` passes `parts[k]` destined for member
    /// `k`; member `k` returns the elementwise fold (in group order) of
    /// everyone's `parts[k]`, which must all have equal length.
    pub fn reduce_scatter<T, F>(&mut self, g: &Group, mut parts: Vec<Vec<T>>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, T),
    {
        let span = self.span_open(SpanKind::ReduceScatter);
        let q = g.size();
        let me = g.my_index();
        assert_eq!(parts.len(), q, "one part per group member");
        // Send all foreign parts first (channels are unbounded, so
        // send-then-receive cannot deadlock).
        for k in 0..q {
            if k != me {
                let buf = std::mem::take(&mut parts[k]);
                self.send_vec(g.member(k), buf);
            }
        }
        let mut acc: Vec<T> = Vec::new();
        for src_idx in 0..q {
            let raw = if src_idx == me {
                std::mem::take(&mut parts[me])
            } else {
                self.recv::<Vec<T>>(g.member(src_idx))
            };
            if src_idx == 0 {
                acc = raw;
                continue;
            }
            assert_eq!(acc.len(), raw.len(), "reduce_scatter length mismatch");
            self.charge_compute(raw.len() as u64);
            for (a, c) in acc.iter_mut().zip(raw) {
                op(a, c);
            }
        }
        self.span_close(span);
        acc
    }

    /// All-to-all of variable-size buckets: `bufs[k]` goes to member `k`;
    /// returns `recv[k]` = the bucket member `k` sent here.
    pub fn alltoallv<T: Send + 'static>(
        &mut self,
        g: &Group,
        bufs: Vec<Vec<T>>,
        algo: AllToAll,
    ) -> Vec<Vec<T>> {
        let q = g.size();
        assert_eq!(bufs.len(), q, "one bucket per group member");
        if q == 1 {
            return bufs;
        }
        // Trace the algorithm actually executed, not the one requested.
        let effective = match algo {
            AllToAll::Hypercube if !q.is_power_of_two() => AllToAll::Pairwise,
            other => other,
        };
        let span = self.span_open(SpanKind::Alltoallv(effective));
        let out = match effective {
            AllToAll::Pairwise => self.alltoallv_pairwise(g, bufs),
            AllToAll::Hypercube => self.alltoallv_hypercube(g, bufs),
            AllToAll::Sparse => self.alltoallv_sparse(g, bufs),
        };
        self.span_close(span);
        out
    }

    fn alltoallv_pairwise<T: Send + 'static>(
        &mut self,
        g: &Group,
        mut bufs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let q = g.size();
        let me = g.my_index();
        let mut result: Vec<Vec<T>> = (0..q).map(|_| Vec::new()).collect();
        result[me] = std::mem::take(&mut bufs[me]);
        for round in 1..q {
            let to = (me + round) % q;
            let from = (me + q - round) % q;
            let bucket = std::mem::take(&mut bufs[to]);
            self.send_vec(g.member(to), bucket);
            result[from] = self.recv::<Vec<T>>(g.member(from));
        }
        result
    }

    fn alltoallv_hypercube<T: Send + 'static>(
        &mut self,
        g: &Group,
        mut bufs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let q = g.size();
        let me = g.my_index();
        debug_assert!(q.is_power_of_two());
        let mut result: Vec<Vec<T>> = (0..q).map(|_| Vec::new()).collect();
        result[me] = std::mem::take(&mut bufs[me]);
        // Pool of in-flight buckets: (origin, destination, bucket).
        let mut pool: Vec<(u32, u32, Vec<T>)> = bufs
            .into_iter()
            .enumerate()
            .filter(|(k, _)| *k != me)
            .map(|(k, bucket)| (me as u32, k as u32, bucket))
            .collect();
        let rounds = q.trailing_zeros();
        for bit_idx in 0..rounds {
            let bit = 1usize << bit_idx;
            let partner = me ^ bit;
            // Buckets whose destination differs from me in this bit travel
            // to the partner side of the hypercube now.
            let (send_pool, keep): (Vec<_>, Vec<_>) = pool
                .into_iter()
                .partition(|&(_, dest, _)| (dest as usize) & bit != me & bit);
            // Each forwarded bucket pays a 2-word / 16-byte routing header.
            let (mut w, mut b) = (0u64, 0u64);
            for (_, _, bucket) in &send_pool {
                w += 2 + words_of::<T>(bucket.len());
                b += 16 + bytes_of::<T>(bucket.len());
            }
            self.send_counted_bytes(g.member(partner), send_pool, w, b);
            pool = keep;
            let incoming: Vec<(u32, u32, Vec<T>)> = self.recv(g.member(partner));
            for (origin, dest, bucket) in incoming {
                if dest as usize == me {
                    result[origin as usize] = bucket;
                } else {
                    pool.push((origin, dest, bucket));
                }
            }
        }
        debug_assert!(pool.is_empty(), "all buckets routed after log q rounds");
        result
    }

    fn alltoallv_sparse<T: Send + 'static>(
        &mut self,
        g: &Group,
        mut bufs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let q = g.size();
        let me = g.my_index();
        // Phase 1: exchange per-destination item counts so each member
        // learns who will contact it. The count matrix transpose is itself
        // a tiny hypercube all-to-all, whose own span tags the pairwise
        // fallback on groups that are not a power of two.
        let counts: Vec<Vec<u64>> = bufs.iter().map(|b| vec![b.len() as u64]).collect();
        let incoming_counts = self.alltoallv(g, counts, AllToAll::Hypercube);
        // Phase 2: only nonempty pairs exchange.
        for k in 0..q {
            if k != me && !bufs[k].is_empty() {
                let bucket = std::mem::take(&mut bufs[k]);
                self.send_vec(g.member(k), bucket);
            }
        }
        (0..q)
            .map(|k| {
                if k == me {
                    std::mem::take(&mut bufs[me])
                } else if incoming_counts[k].first().copied().unwrap_or(0) > 0 {
                    self.recv::<Vec<T>>(g.member(k))
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// Gather to group index `root_idx`: root returns all contributions
    /// (indexed by group index), others return `None`.
    pub fn gatherv<T: Send + 'static>(
        &mut self,
        g: &Group,
        root_idx: usize,
        mine: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let span = self.span_open(SpanKind::Gatherv);
        let me = g.my_index();
        let out = if me == root_idx {
            let mut out: Vec<Vec<T>> = (0..g.size()).map(|_| Vec::new()).collect();
            out[me] = mine;
            for k in (0..g.size()).filter(|&k| k != me) {
                out[k] = self.recv::<Vec<T>>(g.member(k));
            }
            Some(out)
        } else {
            self.send_vec(g.member(root_idx), mine);
            None
        };
        self.span_close(span);
        out
    }
}

// ---------------------------------------------------------------------
// Combining collectives: reduce-by-key in flight.
//
// The hypercube all-to-all store-and-forwards buckets through log₂ q
// hops, which makes every hop a natural merge point: entries from
// different origins heading to the same (destination, key) meet on some
// intermediate rank — origins differing first in bit j meet after round
// j — and an associative merge there collapses them to one wire entry
// for the rest of the route. Sender-side compaction cannot see these
// duplicates; this is where cross-sender redundancy dies.

/// Origin flag: the entry was already held here before the round.
const FROM_SELF: u8 = 1;
/// Origin flag: the entry arrived from the round's hypercube partner.
const FROM_PARTNER: u8 = 2;

/// One forward round of a recorded [`Comm::combining_requests`] route —
/// what the reverse round needs to put every reply value back where its
/// request came from, by position alone. Both directions of a round walk
/// the same (destination, key)-sorted lists, so the route keeps their
/// *shapes* (flags, run lengths, indices) and no keys.
struct CombineHop {
    /// Destination runs `(destination, entries)` of the in-flight pool
    /// before the round. The round splits the pool by destination — whole
    /// runs go to the partner or stay — and the reverse round re-interleaves
    /// the two reply streams along the same runs.
    pool_runs: Vec<(u32, usize)>,
    /// Entries forwarded to the partner this round; the partner's reply
    /// stream has exactly this many values, in the order they were sent.
    sent: usize,
    /// Per in-flight entry held here after the round, in (destination,
    /// key) order: where its copies came from. Both flags set marks a merge
    /// fork: the reply duplicates there.
    table: Vec<u8>,
    /// How many `table` entries head to destinations below this rank. The
    /// partner's forward stream carried them, then the keys delivered
    /// here, then the rest — the reply stream is spliced the same way.
    below: usize,
    /// Keys that reached their destination (this rank) this round, as
    /// indices into the route's `delivered_keys`. The same key can arrive
    /// in several rounds via unmerged branches; each arrival gets its own
    /// reply.
    delivered_at: Vec<u32>,
}

/// Recorded forward route of a [`Comm::combining_requests`] exchange.
///
/// The forward pass merges requests from different origins, so the
/// destination no longer knows who asked; replies instead retrace the
/// route in reverse ([`Comm::combining_replies`]), duplicating at every
/// merge fork, until each origin holds the answers to exactly its own
/// requests. The route can be replayed for any number of reply phases —
/// that is what fuses starcheck's two extracts into one exchange.
///
/// Generic over the key type `K` ([`WireWord`] + `Ord`): the key streams
/// ride the wire as value-based delta varints either way, but the raw
/// pairwise fallback and charge accounting use `K`'s true width, so a
/// `u32`-indexed run no longer pays `u64` key freight.
pub struct CombineRoute<K = u64> {
    q: usize,
    /// Power-of-two groups route through the hypercube; otherwise the
    /// exchange fell back to pairwise and `incoming_at` drives replies.
    hypercube: bool,
    hops: Vec<CombineHop>,
    /// Keys this rank requested of itself (never wired), as indices into
    /// `delivered_keys`.
    self_at: Vec<u32>,
    /// Per-destination sorted unique keys this rank requested.
    my_keys: Vec<Vec<K>>,
    /// Sorted unique keys delivered to this rank (it owns the answers).
    delivered_keys: Vec<K>,
    /// Pairwise fallback only: per-source keys received, as indices into
    /// `delivered_keys`.
    incoming_at: Vec<Vec<u32>>,
}

impl<K> CombineRoute<K> {
    /// Sorted unique keys delivered to this rank; `values[i]` passed to
    /// [`Comm::combining_replies`] must answer `delivered_keys()[i]`.
    pub fn delivered_keys(&self) -> &[K] {
        &self.delivered_keys
    }

    /// Per-destination sorted unique keys this rank requested; replies
    /// come back aligned with these lists.
    pub fn my_keys(&self) -> &[Vec<K>] {
        &self.my_keys
    }
}

/// Merges two sorted, duplicate-free lists into one.
fn merge_dedup<K: Ord + Copy>(a: &[K], b: &[K]) -> Vec<K> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges sorted, duplicate-free lists by recursive halving, so no
/// element is copied more than `log₂(lists) + 1` times.
fn merge_all_dedup<K: Ord + Copy>(lists: &[Vec<K>]) -> Vec<K> {
    match lists {
        [] => Vec::new(),
        [only] => only.clone(),
        _ => {
            let (left, right) = lists.split_at(lists.len() / 2);
            merge_dedup(&merge_all_dedup(left), &merge_all_dedup(right))
        }
    }
}

/// Indices of the sorted list `sub` in the sorted list `all`, by one
/// forward walk over both.
///
/// # Panics
/// If a key of `sub` is missing from `all`.
fn indices_in<K: Ord + Copy>(all: &[K], sub: &[K]) -> Vec<u32> {
    let mut i = 0usize;
    sub.iter()
        .map(|k| {
            while all[i] < *k {
                i += 1;
            }
            assert!(all[i] == *k, "delivered key missing from the route");
            i as u32
        })
        .collect()
}

/// Sorts a `(key, payload)` bucket by key (stable, so earlier entries
/// fold first) and merges adjacent equal keys. Returns entries removed.
fn merge_bucket<K, P, M>(b: &mut Vec<(K, P)>, merge: &mut M) -> usize
where
    K: Ord + Copy,
    M: FnMut(&mut P, P),
{
    if b.len() <= 1 {
        return 0;
    }
    b.sort_by_key(|&(k, _)| k);
    let before = b.len();
    let mut out: Vec<(K, P)> = Vec::with_capacity(b.len());
    for (k, p) in b.drain(..) {
        match out.last_mut() {
            Some(last) if last.0 == k => merge(&mut last.1, p),
            _ => out.push((k, p)),
        }
    }
    *b = out;
    before - b.len()
}

impl Comm {
    /// Reduce-scatter over explicit (key, value) pairs — an all-to-all
    /// with in-flight reduce-by-key: `bufs[k]` goes to member `k`, and at
    /// every hypercube hop pairs sharing (destination, key) merge through
    /// `merge` before being forwarded — q senders shipping the same key to
    /// the same destination pay one wire entry past their meeting hop
    /// instead of q.
    ///
    /// Returns the pairs destined to this rank, fully merged, sorted by
    /// key. With a commutative, associative `merge` the result is
    /// bit-identical to exchanging everything and folding at the
    /// destination; when no two pairs share a key, no merge fires and the
    /// result is exactly the plain all-to-all payload multiset (sorted by
    /// key). Non-power-of-two groups fall back to a pairwise exchange with
    /// a destination-side fold — same result, no in-flight savings.
    ///
    /// Words merged away after the first receive are counted as
    /// [`Counter::CombinedWords`] (observational: the clock already
    /// reflects the smaller forwarded payloads).
    pub fn reduce_scatter_by_key<K, T, M>(
        &mut self,
        g: &Group,
        bufs: Vec<Vec<(K, T)>>,
        mut merge: M,
    ) -> Vec<(K, T)>
    where
        K: WireWord + Ord + Copy + Send + 'static,
        T: Send + 'static,
        M: FnMut(&mut T, T),
    {
        let span = self.span_open(SpanKind::AlltoallvCombining);
        let out = self.combining_exchange(g, bufs, &mut merge);
        self.span_close(span);
        out
    }

    fn combining_exchange<K, P, M>(
        &mut self,
        g: &Group,
        mut bufs: Vec<Vec<(K, P)>>,
        merge: &mut M,
    ) -> Vec<(K, P)>
    where
        K: WireWord + Ord + Copy + Send + 'static,
        P: Send + 'static,
        M: FnMut(&mut P, P),
    {
        let q = g.size();
        assert_eq!(bufs.len(), q, "one bucket per group member");
        let me = g.my_index();
        let mut mine: Vec<(K, P)> = std::mem::take(&mut bufs[me]);
        if q > 1 && q.is_power_of_two() {
            // In flight, keyed by (destination, key).
            let mut pool: Vec<((u32, K), P)> = bufs
                .into_iter()
                .enumerate()
                .filter(|(k, _)| *k != me)
                .flat_map(|(k, b)| b.into_iter().map(move |(key, p)| ((k as u32, key), p)))
                .collect();
            // Sender-side pre-merge (same-origin duplicates; not counted
            // as CombinedWords, which are cross-origin merges only).
            merge_bucket(&mut pool, merge);
            self.charge_compute(pool.len() as u64 + 1);
            let mut saved = 0u64;
            let rounds = q.trailing_zeros();
            for bit_idx in 0..rounds {
                let bit = 1usize << bit_idx;
                let partner = g.member(me ^ bit);
                let (send_pool, keep): (Vec<_>, Vec<_>) = pool
                    .into_iter()
                    .partition(|&((dest, _), _)| (dest as usize) & bit != me & bit);
                // Per-destination wire buckets: delta-varint key stream +
                // the payloads aligned with it.
                let mut buckets: Vec<(u32, Vec<K>, Vec<P>)> = Vec::new();
                for ((dest, key), p) in send_pool {
                    match buckets.last_mut() {
                        Some(b) if b.0 == dest => {
                            b.1.push(key);
                            b.2.push(p);
                        }
                        _ => buckets.push((dest, vec![key], vec![p])),
                    }
                }
                let mut w = 0u64;
                let mut b = 0u64;
                let wire_msg: Vec<(u32, Vec<u8>, Vec<P>)> = buckets
                    .into_iter()
                    .map(|(dest, keys, ps)| {
                        let bytes = wire::encode_keys_for(&keys);
                        w += 2 + words_of::<u8>(bytes.len()) + words_of::<P>(ps.len());
                        b += 16 + bytes_of::<u8>(bytes.len()) + bytes_of::<P>(ps.len());
                        (dest, bytes, ps)
                    })
                    .collect();
                self.send_counted_bytes(partner, wire_msg, w, b);
                pool = keep;
                let incoming: Vec<(u32, Vec<u8>, Vec<P>)> = self.recv(partner);
                for (dest, bytes, ps) in incoming {
                    // Cannot fire: the partner encoded this stream with
                    // `encode_keys_for`.
                    let keys = wire::decode_keys_for::<K>(&bytes).expect("a peer's key stream");
                    debug_assert_eq!(keys.len(), ps.len());
                    if dest as usize == me {
                        mine.extend(keys.into_iter().zip(ps));
                    } else {
                        pool.extend(keys.into_iter().zip(ps).map(|(k, p)| ((dest, k), p)));
                    }
                }
                let removed = merge_bucket(&mut pool, merge);
                saved += removed as u64 + words_of::<P>(removed);
                self.charge_compute(pool.len() as u64 + 1);
            }
            debug_assert!(pool.is_empty(), "all entries routed after log q rounds");
            self.count(Counter::CombinedWords, saved);
        } else if q > 1 {
            // Non-power-of-two fallback: merge each bucket sender-side,
            // exchange pairwise, fold at the destination. Cross-sender
            // merging only happens on arrival — nothing saved in flight.
            for b in bufs.iter_mut() {
                merge_bucket(b, merge);
                self.charge_compute(b.len() as u64 + 1);
            }
            let incoming = self.alltoallv(g, bufs, AllToAll::Pairwise);
            for b in incoming {
                mine.extend(b);
            }
        }
        // Destination-side fold (stable: earlier arrivals fold first).
        merge_bucket(&mut mine, merge);
        self.charge_compute(mine.len() as u64 + 1);
        mine
    }

    /// Forward half of a combining *request* exchange: `bufs[k]` holds
    /// the keys this rank wants answered by member `k`. Requests merge in
    /// flight like [`Comm::reduce_scatter_by_key`] pairs (with unit
    /// payloads — merging is pure dedup), and every hop records which
    /// branches each surviving entry came from. Returns the route; this
    /// rank must answer `route.delivered_keys()` and can then scatter any
    /// number of reply phases back over the same route with
    /// [`Comm::combining_replies`].
    pub fn combining_requests<K>(&mut self, g: &Group, mut bufs: Vec<Vec<K>>) -> CombineRoute<K>
    where
        K: WireWord + Ord + Copy + Send + 'static,
    {
        let q = g.size();
        assert_eq!(bufs.len(), q, "one key bucket per group member");
        let me = g.my_index();
        let span = self.span_open(SpanKind::AlltoallvCombining);
        for b in bufs.iter_mut() {
            self.charge_compute(b.len() as u64 + 1);
            // Planned request lists arrive sorted and unique already.
            if !b.windows(2).all(|w| w[0] < w[1]) {
                b.sort_unstable();
                b.dedup();
            }
        }
        let my_keys = bufs;
        // Everything delivered here from other ranks, one sorted unique
        // list per round or per source.
        let mut arrivals: Vec<Vec<K>> = Vec::new();
        // `delivered_at` is filled in once `delivered_keys` is final.
        let mut hops: Vec<CombineHop> = Vec::new();
        let hypercube = q > 1 && q.is_power_of_two();
        if hypercube {
            // Built in destination order from sorted buckets, so the pool
            // starts (and stays) sorted by (destination, key).
            let mut pool: Vec<(u32, K)> = my_keys
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != me)
                .flat_map(|(k, keys)| keys.iter().map(move |&key| (k as u32, key)))
                .collect();
            let mut saved = 0u64;
            let rounds = q.trailing_zeros();
            for bit_idx in 0..rounds {
                let bit = 1usize << bit_idx;
                let partner = g.member(me ^ bit);
                // Whole destination runs go to the partner or stay.
                let mut pool_runs: Vec<(u32, usize)> = Vec::new();
                let mut buckets: Vec<(u32, Vec<K>)> = Vec::new();
                let mut keep: Vec<(u32, K)> = Vec::new();
                for &(dest, key) in &pool {
                    match pool_runs.last_mut() {
                        Some(run) if run.0 == dest => run.1 += 1,
                        _ => pool_runs.push((dest, 1)),
                    }
                    if (dest as usize) & bit == me & bit {
                        keep.push((dest, key));
                        continue;
                    }
                    match buckets.last_mut() {
                        Some(b) if b.0 == dest => b.1.push(key),
                        _ => buckets.push((dest, vec![key])),
                    }
                }
                let sent = pool.len() - keep.len();
                let mut w = 0u64;
                let mut b = 0u64;
                let wire_msg: Vec<(u32, Vec<u8>)> = buckets
                    .into_iter()
                    .map(|(dest, keys)| {
                        let bytes = wire::encode_keys_for(&keys);
                        w += 2 + words_of::<u8>(bytes.len());
                        b += 16 + bytes_of::<u8>(bytes.len());
                        (dest, bytes)
                    })
                    .collect();
                self.send_counted_bytes(partner, wire_msg, w, b);
                let incoming: Vec<(u32, Vec<u8>)> = self.recv(partner);
                let mut delivered_round: Vec<K> = Vec::new();
                let mut from_partner: Vec<(u32, K)> = Vec::new();
                for (dest, bytes) in incoming {
                    // Cannot fire: the partner encoded this stream with
                    // `encode_keys_for`.
                    let keys = wire::decode_keys_for::<K>(&bytes).expect("a peer's key stream");
                    if dest as usize == me {
                        delivered_round = keys;
                    } else {
                        from_partner.extend(keys.into_iter().map(|k| (dest, k)));
                    }
                }
                // Both lists are sorted by (destination, key): one linear
                // two-way merge builds the table, OR-ing the origin flags
                // where a kept and an arriving request coincide.
                let before = keep.len() + from_partner.len();
                let mut table: Vec<u8> = Vec::with_capacity(before);
                pool = Vec::with_capacity(before);
                let (mut i, mut j) = (0, 0);
                while i < keep.len() || j < from_partner.len() {
                    let order = match (keep.get(i), from_partner.get(j)) {
                        (Some(a), Some(b)) => a.cmp(b),
                        (Some(_), None) => std::cmp::Ordering::Less,
                        _ => std::cmp::Ordering::Greater,
                    };
                    let (entry, flags) = match order {
                        std::cmp::Ordering::Less => (keep[i], FROM_SELF),
                        std::cmp::Ordering::Greater => (from_partner[j], FROM_PARTNER),
                        std::cmp::Ordering::Equal => (keep[i], FROM_SELF | FROM_PARTNER),
                    };
                    i += (flags & FROM_SELF != 0) as usize;
                    j += (flags & FROM_PARTNER != 0) as usize;
                    debug_assert!(pool.last().is_none_or(|last| *last < entry));
                    pool.push(entry);
                    table.push(flags);
                }
                saved += (before - table.len()) as u64;
                self.charge_compute(before as u64 + 1);
                let below = pool.partition_point(|&(d, _)| (d as usize) < me);
                arrivals.push(delivered_round);
                hops.push(CombineHop {
                    pool_runs,
                    sent,
                    table,
                    below,
                    delivered_at: Vec::new(),
                });
            }
            debug_assert!(pool.is_empty(), "all requests routed after log q rounds");
            self.count(Counter::CombinedWords, saved);
        } else if q > 1 {
            // The own bucket stays home: `self_at` answers it.
            let bufs = (0..q)
                .map(|k| {
                    if k == me {
                        Vec::new()
                    } else {
                        my_keys[k].clone()
                    }
                })
                .collect();
            arrivals.extend(self.alltoallv(g, bufs, AllToAll::Pairwise));
        }
        let delivered_keys = merge_dedup(&my_keys[me], &merge_all_dedup(&arrivals));
        assert!(
            delivered_keys.len() <= u32::MAX as usize,
            "too many delivered keys for the route's u32 indices"
        );
        self.charge_compute(delivered_keys.len() as u64 + 1);
        self.span_close(span);
        let at = |keys: &Vec<K>| indices_in(&delivered_keys, keys);
        let self_at = at(&my_keys[me]);
        for (hop, keys) in hops.iter_mut().zip(&arrivals) {
            hop.delivered_at = at(keys);
        }
        let incoming_at = arrivals[hops.len()..].iter().map(at).collect();
        CombineRoute {
            q,
            hypercube,
            hops,
            self_at,
            my_keys,
            delivered_keys,
            incoming_at,
        }
    }

    /// Reply half of a combining request exchange: `values[i]` answers
    /// `route.delivered_keys()[i]`. Replies retrace the forward route in
    /// reverse — at every recorded merge fork the value is duplicated to
    /// both branches, and reply streams travel as bare value vectors
    /// because both endpoints can reconstruct the (destination, key)
    /// order from the route. Every stream goes through the one word codec
    /// ([`crate::wire::encode_words_for`]) and is charged as shipped.
    ///
    /// Returns, per destination `k`, the values answering this rank's
    /// original `bufs[k]` keys (sorted, deduped — `route.my_keys()[k]`),
    /// in that order. Can be called repeatedly on one route — later phases
    /// reuse the paid-for forward exchange, which is how the fused
    /// starcheck serves two vectors for one request scatter.
    ///
    /// No key is compared on the way back: every reverse round walks its
    /// reply values in lockstep with the shapes the forward round
    /// recorded, and panics if a stream is shorter or longer than its
    /// shape (a corrupt route must not hand a request its neighbour's
    /// value).
    pub fn combining_replies<K, T>(
        &mut self,
        g: &Group,
        route: &CombineRoute<K>,
        values: &[T],
    ) -> Vec<Vec<T>>
    where
        K: WireWord + Ord + Copy + Send + 'static,
        T: WireWord + Send + 'static,
    {
        let q = g.size();
        assert_eq!(q, route.q, "route belongs to a different group");
        assert_eq!(
            values.len(),
            route.delivered_keys.len(),
            "one value per delivered key"
        );
        let me = g.my_index();
        let span = self.span_open(SpanKind::AlltoallvCombining);
        // The values answering a recorded list of delivered-key indices.
        let served = |at: &[u32]| -> Vec<T> { at.iter().map(|&i| values[i as usize]).collect() };
        let mut out: Vec<Vec<T>> = (0..q).map(|_| Vec::new()).collect();
        if route.hypercube {
            // Invariant: entering reverse round i, `cur` holds the replies
            // for exactly the entries this rank held in flight after
            // forward round i (hops[i].table), in table order — empty at
            // the last round, since every request had reached its
            // destination by then.
            let mut cur: Vec<T> = Vec::new();
            for (i, hop) in route.hops.iter().enumerate().rev() {
                let partner = g.member(me ^ (1usize << i));
                assert_eq!(
                    cur.len(),
                    hop.table.len(),
                    "in-flight replies align with the forward route"
                );
                // The partner expects values for exactly its forward-round
                // sent list, sorted by (destination, key): the entries it
                // forwarded through here, with the requests delivered here
                // in forward round i (starting their reply journey now)
                // spliced in at this rank's own destination.
                let mut vals: Vec<T> = Vec::with_capacity(cur.len() + hop.delivered_at.len());
                let mut kept: Vec<T> = Vec::with_capacity(cur.len());
                let mut fork = |entries: std::ops::Range<usize>, vals: &mut Vec<T>| {
                    for j in entries {
                        if hop.table[j] & FROM_PARTNER != 0 {
                            vals.push(cur[j]);
                        }
                        if hop.table[j] & FROM_SELF != 0 {
                            kept.push(cur[j]);
                        }
                    }
                };
                fork(0..hop.below, &mut vals);
                vals.extend(served(&hop.delivered_at));
                fork(hop.below..cur.len(), &mut vals);
                self.send_vec(partner, wire::encode_words_for(&vals));
                let bytes: Vec<u8> = self.recv(partner);
                // Cannot fire: the partner encoded one reply per entry it
                // sent this rank in forward round i, which `hop.sent` counts.
                let incoming: Vec<T> = wire::decode_words_for(&bytes, hop.sent)
                    .expect("reply stream aligns with the forward route");
                // Undo the forward round's split: the pool it started from
                // was one (destination, key)-sorted list whose destination
                // runs went whole to the partner or stayed, so the two
                // reply streams re-interleave run by run.
                let bit = 1usize << i;
                let (mut from_partner, mut from_kept) = (incoming.as_slice(), kept.as_slice());
                let mut next: Vec<T> = Vec::new();
                for &(dest, len) in &hop.pool_runs {
                    let stream = if (dest as usize) & bit != me & bit {
                        &mut from_partner
                    } else {
                        &mut from_kept
                    };
                    assert!(len <= stream.len(), "reply stream shorter than its route");
                    let (run, rest) = stream.split_at(len);
                    *stream = rest;
                    if i == 0 {
                        out[dest as usize] = run.to_vec();
                    } else {
                        next.extend_from_slice(run);
                    }
                }
                assert!(
                    from_partner.is_empty() && from_kept.is_empty(),
                    "reply stream longer than its route"
                );
                self.charge_compute(next.len() as u64 + 1);
                cur = next;
            }
        } else if q > 1 {
            let enc: Vec<Vec<u8>> = (0..q)
                .map(|k| {
                    if k == me {
                        Vec::new()
                    } else {
                        wire::encode_words_for(&served(&route.incoming_at[k]))
                    }
                })
                .collect();
            let incoming = self.alltoallv(g, enc, AllToAll::Pairwise);
            for (k, bytes) in incoming.into_iter().enumerate().filter(|&(k, _)| k != me) {
                // Cannot fire: source `k` encoded one reply per key of
                // `my_keys[k]`, which the route recorded.
                out[k] = wire::decode_words_for(&bytes, route.my_keys[k].len())
                    .expect("replies cover exactly the original requests");
            }
        }
        out[me] = served(&route.self_at);
        self.span_close(span);
        for (d, vals) in out.iter().enumerate() {
            assert_eq!(
                vals.len(),
                route.my_keys[d].len(),
                "replies cover exactly the original requests"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_spmd;
    use crate::cost::EDISON;
    use crate::run_spmd_with_model;

    fn expected_alltoall(p: usize, me: usize) -> Vec<Vec<u64>> {
        // Rank s sends [s*100 + d; s + 1] to rank d.
        (0..p).map(|s| vec![(s * 100 + me) as u64; s + 1]).collect()
    }

    fn alltoall_inputs(p: usize, me: usize) -> Vec<Vec<u64>> {
        (0..p)
            .map(|d| vec![(me * 100 + d) as u64; me + 1])
            .collect()
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for p in [1, 2, 3, 5, 8] {
            run_spmd(p, |c| {
                let w = c.world();
                for _ in 0..3 {
                    c.barrier(&w);
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let out = run_spmd(p, move |c| {
                    let w = c.world();
                    let data = (c.rank() == root).then(|| vec![42u64, root as u64]);
                    c.bcast_vec(&w, root, data)
                })
                .unwrap();
                for v in out {
                    assert_eq!(v, vec![42, root as u64]);
                }
            }
        }
    }

    #[test]
    fn bcast_scalar() {
        let out = run_spmd(5, |c| {
            let w = c.world();
            c.bcast(&w, 2, (c.rank() == 2).then_some(99u32))
        })
        .unwrap();
        assert!(out.iter().all(|&v| v == 99));
    }

    #[test]
    fn allgatherv_various_sizes() {
        for p in [1, 2, 3, 4, 6, 9] {
            let out = run_spmd(p, |c| {
                let w = c.world();
                let mine: Vec<u64> = (0..c.rank() + 1)
                    .map(|i| (c.rank() * 10 + i) as u64)
                    .collect();
                c.allgatherv(&w, mine)
            })
            .unwrap();
            for gathered in out {
                for (src, block) in gathered.iter().enumerate() {
                    let expect: Vec<u64> = (0..src + 1).map(|i| (src * 10 + i) as u64).collect();
                    assert_eq!(block, &expect);
                }
            }
        }
    }

    #[test]
    fn allgatherv_peers_leaves_only_the_own_slot_empty_and_costs_the_same() {
        for p in [1, 2, 3, 4, 9] {
            let out = run_spmd(p, |c| {
                let w = c.world();
                let mine = vec![c.rank() as u64; c.rank() + 1];
                let before = c.snapshot();
                let full = c.allgatherv(&w, mine.clone());
                let full_cost = c.snapshot().since(&before);
                let before = c.snapshot();
                let peers = c.allgatherv_peers(&w, mine);
                let peers_cost = c.snapshot().since(&before);
                (c.rank(), full, peers, full_cost, peers_cost)
            })
            .unwrap();
            for (me, full, peers, full_cost, peers_cost) in out {
                assert_eq!(peers[me], Vec::<u64>::new(), "p={p}");
                for k in (0..p).filter(|&k| k != me) {
                    assert_eq!(peers[k], full[k], "p={p} rank {me} slot {k}");
                }
                assert_eq!(full[me], vec![me as u64; me + 1]);
                let charges =
                    |s: &crate::CostSnapshot| (s.words_sent, s.bytes_sent, s.messages_sent);
                assert_eq!(charges(&full_cost), charges(&peers_cost), "p={p}");
            }
        }
    }

    #[test]
    fn allgatherv_empty_contributions() {
        let out = run_spmd(4, |c| {
            let w = c.world();
            let mine: Vec<u64> = if c.rank() % 2 == 0 {
                vec![]
            } else {
                vec![c.rank() as u64]
            };
            c.allgatherv(&w, mine)
        })
        .unwrap();
        assert_eq!(out[0], vec![vec![], vec![1], vec![], vec![3]]);
    }

    #[test]
    fn allreduce_sum_and_min() {
        let out = run_spmd(7, |c| {
            let w = c.world();
            let sum = c.allreduce(&w, c.rank() as u64, |a, b| a + b);
            let min = c.allreduce(&w, 100 - c.rank() as i64, |a, b| a.min(b));
            (sum, min)
        })
        .unwrap();
        assert!(out.iter().all(|&(s, m)| s == 21 && m == 94));
    }

    #[test]
    fn allreduce_counted_charges_payload_size() {
        // A vector allreduce must cost more when declared larger.
        let clock = |words: u64| {
            let out = run_spmd_with_model(4, EDISON.lacc_model(), move |c| {
                let w = c.world();
                let v: Vec<u64> = vec![1; words as usize];
                c.allreduce_counted(&w, v, words, |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                });
                c.clock_s()
            })
            .unwrap();
            out.into_iter().fold(0.0f64, f64::max)
        };
        assert!(clock(10_000) > clock(10));
    }

    #[test]
    fn reduce_scatter_sums_columns() {
        let p = 4;
        let out = run_spmd(p, |c| {
            let w = c.world();
            // parts[k][j] = rank * 1 (length k + 1)
            let parts: Vec<Vec<u64>> = (0..p).map(|k| vec![c.rank() as u64; k + 1]).collect();
            c.reduce_scatter(&w, parts, |a, b| *a += b)
        })
        .unwrap();
        for (k, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![6u64; k + 1]); // ranks 0+1+2+3
        }
    }

    #[test]
    fn alltoallv_all_algorithms_agree() {
        for p in [1, 2, 3, 4, 5, 8] {
            for algo in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
                let out = run_spmd(p, move |c| {
                    let w = c.world();
                    c.alltoallv(&w, alltoall_inputs(p, c.rank()), algo)
                })
                .unwrap();
                for (me, got) in out.into_iter().enumerate() {
                    assert_eq!(got, expected_alltoall(p, me), "p={p} algo={algo:?} me={me}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_buckets() {
        for algo in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
            let out = run_spmd(4, move |c| {
                let w = c.world();
                // Only rank 0 sends anything, and only to rank 3.
                let mut bufs: Vec<Vec<u64>> = vec![vec![]; 4];
                if c.rank() == 0 {
                    bufs[3] = vec![7, 8, 9];
                }
                c.alltoallv(&w, bufs, algo)
            })
            .unwrap();
            assert_eq!(out[3][0], vec![7, 8, 9], "{algo:?}");
            assert!(out[1].iter().all(|v| v.is_empty()));
        }
    }

    #[test]
    fn sparse_alltoall_sends_fewer_messages() {
        // One nonempty bucket: sparse should send far fewer point-to-point
        // messages than pairwise.
        let count_msgs = |algo: AllToAll| {
            let out = run_spmd_with_model(8, EDISON.lacc_model(), move |c| {
                let w = c.world();
                let mut bufs: Vec<Vec<u64>> = vec![vec![]; 8];
                if c.rank() == 0 {
                    bufs[1] = vec![1; 1000];
                }
                c.alltoallv(&w, bufs, algo);
                c.snapshot().messages_sent
            })
            .unwrap();
            out.iter().sum::<u64>()
        };
        let pairwise = count_msgs(AllToAll::Pairwise);
        let sparse = count_msgs(AllToAll::Sparse);
        // Sparse pays the metadata exchange (hypercube: 8·3 msgs) plus one
        // data message; pairwise sends 8·7.
        assert!(sparse < pairwise, "sparse={sparse} pairwise={pairwise}");
    }

    #[test]
    fn hypercube_has_lower_latency_charge() {
        let p = 16;
        let clock_for = |algo: AllToAll| {
            let out = run_spmd_with_model(p, EDISON.lacc_model(), move |c| {
                let w = c.world();
                let bufs: Vec<Vec<u64>> = (0..p).map(|_| vec![1u64; 4]).collect();
                c.alltoallv(&w, bufs, algo);
                c.clock_s()
            })
            .unwrap();
            out.into_iter().fold(0.0f64, f64::max)
        };
        // With tiny buckets the α term dominates: hypercube (log p rounds)
        // must beat pairwise (p − 1 rounds).
        assert!(clock_for(AllToAll::Hypercube) < clock_for(AllToAll::Pairwise));
    }

    #[test]
    fn gatherv_collects_at_root() {
        let out = run_spmd(5, |c| {
            let w = c.world();
            c.gatherv(&w, 2, vec![c.rank() as u64])
        })
        .unwrap();
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                let v = res.as_ref().unwrap();
                assert_eq!(v.len(), 5);
                assert_eq!(v[4], vec![4]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn combining_with_unique_keys_matches_plain_multiset() {
        // No two entries share (dest, key): no merge fires and the result
        // must be the plain all-to-all payload multiset.
        for p in [1, 2, 3, 4, 8] {
            let inputs = move |me: usize| -> Vec<Vec<(u64, u64)>> {
                (0..p)
                    .map(|d| {
                        (0..3)
                            .map(|j| {
                                let key = (me * 1000 + d * 10 + j) as u64;
                                (key, key * 2 + 1)
                            })
                            .collect()
                    })
                    .collect()
            };
            let combined = run_spmd(p, move |c| {
                let w = c.world();
                let merged = c.reduce_scatter_by_key(&w, inputs(c.rank()), |_: &mut u64, _| {
                    panic!("no merge may fire on unique keys")
                });
                (merged, c.snapshot().counter(Counter::CombinedWords))
            })
            .unwrap();
            let plain = run_spmd(p, move |c| {
                let w = c.world();
                let mut all: Vec<(u64, u64)> = c
                    .alltoallv(&w, inputs(c.rank()), AllToAll::Pairwise)
                    .into_iter()
                    .flatten()
                    .collect();
                all.sort_unstable();
                all
            })
            .unwrap();
            for (me, ((got, combined_words), want)) in combined.into_iter().zip(plain).enumerate() {
                assert_eq!(got, want, "p={p} me={me}");
                assert_eq!(combined_words, 0, "unique keys must not combine");
            }
        }
    }

    #[test]
    fn reduce_scatter_by_key_matches_destination_fold() {
        // Heavy cross-sender overlap: every rank updates the same keys at
        // every destination. Min-merge in flight must equal exchanging
        // everything and folding at the destination.
        for p in [1, 2, 3, 4, 8, 16] {
            let inputs = move |me: usize| -> Vec<Vec<(u64, u64)>> {
                (0..p)
                    .map(|d| {
                        (0..8)
                            .map(|j| ((d * 100 + j) as u64, (me * 37 + j * 5) as u64 % 101))
                            .collect()
                    })
                    .collect()
            };
            let combined = run_spmd(p, move |c| {
                let w = c.world();
                c.reduce_scatter_by_key(&w, inputs(c.rank()), |a: &mut u64, b| *a = (*a).min(b))
            })
            .unwrap();
            let folded = run_spmd(p, move |c| {
                let w = c.world();
                let mut all: Vec<(u64, u64)> = c
                    .alltoallv(&w, inputs(c.rank()), AllToAll::Pairwise)
                    .into_iter()
                    .flatten()
                    .collect();
                all.sort_by_key(|&(k, _)| k);
                let mut out: Vec<(u64, u64)> = Vec::new();
                for (k, v) in all {
                    match out.last_mut() {
                        Some(last) if last.0 == k => last.1 = last.1.min(v),
                        _ => out.push((k, v)),
                    }
                }
                out
            })
            .unwrap();
            for (me, (got, want)) in combined.into_iter().zip(folded).enumerate() {
                assert_eq!(got, want, "p={p} me={me}");
            }
        }
    }

    #[test]
    fn combining_requests_replies_roundtrip() {
        // Every rank requests an overlapping window of keys from every
        // destination; the destination answers key*7 + dest. Replies must
        // come back aligned with each origin's own (deduped) requests, for
        // hypercube and fallback group sizes.
        for p in [1, 2, 3, 4, 8, 16] {
            let out = run_spmd(p, move |c| {
                let w = c.world();
                let me = c.rank();
                // Duplicates within a bucket exercise the dedup; the
                // shared low keys exercise cross-sender merging.
                let bufs: Vec<Vec<u64>> = (0..p)
                    .map(|d| {
                        (0..=me + 2)
                            .map(|j| (d * 100 + j % (me + 2)) as u64)
                            .collect()
                    })
                    .collect();
                let route = c.combining_requests(&w, bufs);
                let values: Vec<u64> = route
                    .delivered_keys()
                    .iter()
                    .map(|&k| k * 7 + me as u64)
                    .collect();
                let replies = c.combining_replies(&w, &route, &values);
                (route.my_keys().to_vec(), replies)
            })
            .unwrap();
            for (me, (my_keys, replies)) in out.into_iter().enumerate() {
                for (d, vals) in replies.into_iter().enumerate() {
                    let mut want: Vec<u64> = (0..=me + 2)
                        .map(|j| (d * 100 + j % (me + 2)) as u64)
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(my_keys[d], want, "p={p} me={me} d={d}");
                    let want: Vec<u64> = want.into_iter().map(|k| k * 7 + d as u64).collect();
                    assert_eq!(vals, want, "p={p} me={me} d={d}");
                }
            }
        }
    }

    #[test]
    fn replayed_route_serves_a_second_reply_phase() {
        // The fused-starcheck mechanism: one forward exchange, two reply
        // scatters over the same route (different value types, and the
        // second phase sees owner-side state mutated in between) — through
        // the hypercube's merge walk (p = 4, 8) and the pairwise fallback
        // (p = 9). Ranks ask for overlapping keys, so hypercube requests
        // merge in flight and replies fork on the way back.
        for p in [4usize, 8, 9] {
            let out = run_spmd(p, move |c| {
                let w = c.world();
                let me = c.rank();
                let bufs: Vec<Vec<u64>> = (0..p)
                    .map(|d| vec![(d * 10) as u64, (d * 10 + 1 + me % 2) as u64])
                    .collect();
                let route = c.combining_requests(&w, bufs);
                let first: Vec<u64> = route.delivered_keys().iter().map(|&k| k + 1).collect();
                let r1 = c.combining_replies(&w, &route, &first);
                // "Mutate" owner state between the phases.
                let second: Vec<bool> = route
                    .delivered_keys()
                    .iter()
                    .map(|&k| k % 20 == 0)
                    .collect();
                let r2 = c.combining_replies(&w, &route, &second);
                (me, r1, r2)
            })
            .unwrap();
            for (me, r1, r2) in out {
                for d in 0..p {
                    let (a, b) = ((d * 10) as u64, (d * 10 + 1 + me % 2) as u64);
                    assert_eq!(r1[d], vec![a + 1, b + 1], "p={p} me={me}");
                    assert_eq!(r2[d], vec![a.is_multiple_of(20), false], "p={p} me={me}");
                }
            }
        }
    }

    #[test]
    fn corrupt_route_fails_loudly_instead_of_misrouting() {
        // Replies walk in lockstep with the recorded route, so a route
        // that does not match its replies must stop the run, not shift
        // values onto other requests. Every rank gets the same corruption,
        // so every rank stops at the check before exchanging anything.
        let err = run_spmd(4, |c| {
            let w = c.world();
            let bufs: Vec<Vec<u64>> = (0..4).map(|d| vec![(d * 10) as u64]).collect();
            let mut route = c.combining_requests(&w, bufs);
            let last = route.hops.last_mut().expect("two hypercube rounds");
            last.table.push(FROM_SELF);
            let values = route.delivered_keys().to_vec();
            c.combining_replies(&w, &route, &values)
        })
        .unwrap_err();
        assert!(
            err.message()
                .contains("in-flight replies align with the forward route"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn combined_words_monotone_in_cross_sender_duplication() {
        // All ranks request the same `overlap` keys of rank 0 plus
        // per-rank-unique filler: more overlap must combine more words.
        let combined_for = |overlap: usize| {
            let out = run_spmd(8, move |c| {
                let w = c.world();
                let me = c.rank();
                let mut bufs: Vec<Vec<u64>> = vec![vec![]; 8];
                bufs[0] = (0..overlap as u64)
                    .chain((0..32).map(|j| 1000 + (me * 100 + j) as u64))
                    .collect();
                let route = c.combining_requests(&w, bufs);
                let values: Vec<u64> = route.delivered_keys().to_vec();
                c.combining_replies(&w, &route, &values);
                c.snapshot().counter(Counter::CombinedWords)
            })
            .unwrap();
            out.iter().sum::<u64>()
        };
        let none = combined_for(0);
        let some = combined_for(16);
        let more = combined_for(64);
        assert_eq!(none, 0, "disjoint requests must not combine");
        assert!(some > 0, "shared requests must combine in flight");
        assert!(
            more > some,
            "more overlap must combine more: {more} vs {some}"
        );
    }

    #[test]
    fn combining_beats_plain_hypercube_words_under_duplication() {
        // With every rank requesting the same keys, in-flight merging must
        // move strictly fewer words than plain hypercube request routing.
        let words_sent = |combining: bool| {
            let out = run_spmd_with_model(16, EDISON.lacc_model(), move |c| {
                let w = c.world();
                let bufs: Vec<Vec<u64>> = (0..16)
                    .map(|d| (0..64).map(|j| (d * 1000 + j) as u64).collect())
                    .collect();
                if combining {
                    let route = c.combining_requests(&w, bufs);
                    let values: Vec<u64> = route.delivered_keys().to_vec();
                    c.combining_replies(&w, &route, &values);
                } else {
                    let sent = c.alltoallv(&w, bufs, AllToAll::Hypercube);
                    // Direct replies, one word per request.
                    let replies: Vec<Vec<u64>> = sent;
                    c.alltoallv(&w, replies, AllToAll::Hypercube);
                }
                c.snapshot().words_sent
            })
            .unwrap();
            out.iter().sum::<u64>()
        };
        let plain = words_sent(false);
        let combining = words_sent(true);
        assert!(combining < plain, "combining={combining} plain={plain}");
    }

    #[test]
    fn narrow_keyed_requests_match_wide() {
        // The combining route is key-width generic: a u32-keyed exchange
        // must produce the same (value-equal) replies as the u64 one, on
        // both the hypercube path and the pairwise fallback.
        for p in [3usize, 8] {
            let bufs_wide = move |p: usize| -> Vec<Vec<u64>> {
                (0..p)
                    .map(|d| (0..8).map(|j| (d * 100 + j) as u64).collect())
                    .collect()
            };
            let wide = run_spmd(p, move |c| {
                let w = c.world();
                let route = c.combining_requests(&w, bufs_wide(p));
                let values: Vec<u64> = route.delivered_keys().iter().map(|&k| k * 3).collect();
                c.combining_replies(&w, &route, &values)
            })
            .unwrap();
            let narrow = run_spmd(p, move |c| {
                let w = c.world();
                let bufs: Vec<Vec<u32>> = bufs_wide(p)
                    .into_iter()
                    .map(|b| b.into_iter().map(|k| k as u32).collect())
                    .collect();
                let route = c.combining_requests(&w, bufs);
                let values: Vec<u32> = route.delivered_keys().iter().map(|&k| k * 3).collect();
                c.combining_replies(&w, &route, &values)
            })
            .unwrap();
            for (me, (w64, w32)) in wide.into_iter().zip(narrow).enumerate() {
                let widened: Vec<Vec<u64>> = w32
                    .into_iter()
                    .map(|vals| vals.into_iter().map(u64::from).collect())
                    .collect();
                assert_eq!(widened, w64, "p={p} me={me}");
            }
        }
    }

    #[test]
    fn narrow_keys_cost_less_on_the_pairwise_fallback() {
        // On non-power-of-two groups the keys travel as raw vectors, so
        // the declared key width is the wire width: u32 must move fewer
        // words than u64. (On the hypercube path both widths encode to
        // identical delta-varint streams.)
        let words = |wide: bool| {
            let out = run_spmd_with_model(3, EDISON.lacc_model(), move |c| {
                let w = c.world();
                if wide {
                    let bufs: Vec<Vec<u64>> = (0..3)
                        .map(|d| (0..64).map(|j| (d * 1000 + j) as u64).collect())
                        .collect();
                    let route = c.combining_requests(&w, bufs);
                    let values: Vec<u64> = route.delivered_keys().to_vec();
                    c.combining_replies(&w, &route, &values);
                } else {
                    let bufs: Vec<Vec<u32>> = (0..3)
                        .map(|d| (0..64).map(|j| (d * 1000 + j) as u32).collect())
                        .collect();
                    let route = c.combining_requests(&w, bufs);
                    let values: Vec<u32> = route.delivered_keys().to_vec();
                    c.combining_replies(&w, &route, &values);
                }
                c.snapshot().words_sent
            })
            .unwrap();
            out.iter().sum::<u64>()
        };
        let wide = words(true);
        let narrow = words(false);
        assert!(narrow < wide, "narrow={narrow} wide={wide}");
    }

    #[test]
    fn sparse_count_phase_tags_effective_algorithm() {
        use crate::comm::run_spmd_traced;
        use crate::cost::MachineModel;
        use crate::trace::{TraceLevel, TraceSink};
        // The count exchange nested under a sparse all-to-all must trace
        // the algorithm that actually ran: hypercube on power-of-two
        // groups, pairwise otherwise.
        for (p, nested) in [(4usize, AllToAll::Hypercube), (3, AllToAll::Pairwise)] {
            let sink = TraceSink::new(TraceLevel::Collectives);
            run_spmd_traced(p, MachineModel::free(), Some(&sink), move |c| {
                let w = c.world();
                let bufs: Vec<Vec<u64>> = (0..p).map(|d| vec![d as u64]).collect();
                c.alltoallv(&w, bufs, AllToAll::Sparse);
            })
            .unwrap();
            let traces = sink.rank_traces();
            let spans = &traces[0].spans;
            assert!(
                spans
                    .iter()
                    .any(|s| s.kind == SpanKind::Alltoallv(AllToAll::Sparse)),
                "p={p}: sparse span missing"
            );
            assert!(
                spans
                    .iter()
                    .any(|s| s.kind == SpanKind::Alltoallv(nested) && s.depth > 0),
                "p={p}: nested count-phase span should tag {nested:?}"
            );
        }
    }

    #[test]
    fn collectives_on_subgroups() {
        let out = run_spmd(6, |c| {
            // Two groups: evens and odds.
            let members: Vec<usize> = (0..6).filter(|r| r % 2 == c.rank() % 2).collect();
            let g = c.group(members);
            let sum = c.allreduce(&g, c.rank() as u64, |a, b| a + b);
            c.barrier(&g);
            sum
        })
        .unwrap();
        assert_eq!(out, vec![6, 9, 6, 9, 6, 9]);
    }
}
