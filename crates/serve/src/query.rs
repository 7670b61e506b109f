//! The sharded query front-end: deterministic per-pair path sampling.
//!
//! A query asks for the `α` sampled paths of one pair. The answer is a
//! **pure function of `(generation, request_id)`**: the RNG stream is
//! counter-derived via [`query_seed`], so a reply can be replayed
//! bit-exactly from the generation recorded in it — regardless of which
//! shard answered, how many shards there were, or whether a generation
//! swap was in flight. That is the whole determinism contract of the
//! serving plane, and the tests pin it.

use crate::epoch::EpochCell;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor_graph::{derive_seed, PathId, RouteTable, VertexId};
use std::sync::Arc;

/// Tag mixed into [`query_seed`], decorrelating the query plane's RNG
/// streams from every other derived-seed stream in the workspace (the
/// simulation, failure-sweep, and FRT-tree tags pick the same shape).
pub const QUERY_STREAM_TAG: u64 = 0x5E2E_9A11_D3C0_DE01;

/// The RNG seed answering request `request_id` against generation
/// `generation` — public so one reply can be replayed in isolation.
///
/// # Examples
///
/// ```
/// use ssor_serve::query_seed;
/// assert_eq!(query_seed(3, 17), query_seed(3, 17));
/// assert_ne!(query_seed(3, 17), query_seed(4, 17));
/// assert_ne!(query_seed(3, 17), query_seed(3, 18));
/// ```
pub fn query_seed(generation: u64, request_id: u64) -> u64 {
    derive_seed(generation ^ QUERY_STREAM_TAG, request_id)
}

/// One path-sample query: "give me my `α` paths for `(s, t)`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Caller-assigned id; drives the reply's RNG stream, so replaying
    /// the same id against the same generation reproduces the reply.
    pub id: u64,
    /// Source vertex.
    pub s: VertexId,
    /// Target vertex (distinct from `s`).
    pub t: VertexId,
}

/// A served reply: `α` path ids sampled from the pair's distribution,
/// stamped with the generation that answered (the replay key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Echo of [`Request::id`].
    pub request_id: u64,
    /// Generation of the [`RouteTable`] snapshot that answered.
    pub generation: u64,
    /// The sampled paths, in draw order (duplicates allowed — sampling
    /// is with replacement, Definition 5.2). Empty exactly when the
    /// pair was not in the table (`α >= 1` everywhere else).
    pub paths: Vec<PathId>,
}

impl Reply {
    /// Whether this reply marks an unroutable pair — the table had no
    /// entry for `(s, t)`, so no paths were drawn. Unroutable requests
    /// are served, counted, and echoed rather than panicking a shard:
    /// one malformed pair must never take the query plane down.
    pub fn is_unroutable(&self) -> bool {
        self.paths.is_empty()
    }
}

/// The result of answering one batch: per-request replies in request
/// order, plus how many of them were unroutable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// One reply per request, in request order. Unroutable requests
    /// yield an empty-paths reply (see [`Reply::is_unroutable`]).
    pub replies: Vec<Reply>,
    /// Number of unroutable replies in `replies`.
    pub unroutable: usize,
}

/// Answers one request against an explicit snapshot. `None` when the
/// table has no entry for the pair.
///
/// # Examples
///
/// ```
/// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
/// use ssor_serve::{answer_on, Request};
///
/// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
///     .template(TemplateSpec::Valiant)
///     .alpha(2)
///     .prepare(&Default::default());
/// let table = p.route_table(1).unwrap();
/// let req = Request { id: 42, s: 0, t: 7 };
/// let reply = answer_on(&table, 4, &req).unwrap();
/// assert_eq!(reply.paths.len(), 4);
/// // Bit-exact replay from (generation, request_id):
/// assert_eq!(reply, answer_on(&table, 4, &req).unwrap());
/// ```
pub fn answer_on(table: &RouteTable, alpha: usize, req: &Request) -> Option<Reply> {
    let mut rng = StdRng::seed_from_u64(query_seed(table.generation(), req.id));
    // The reply owns its paths, so this is the one per-request
    // allocation — explicit-capacity, never grown.
    let mut paths = Vec::with_capacity(alpha);
    if !table.sample_alpha_into(req.s, req.t, alpha, &mut rng, &mut paths) {
        return None;
    }
    Some(Reply {
        request_id: req.id,
        generation: table.generation(),
        paths,
    })
}

/// Answers one request infallibly: an unroutable pair yields the
/// counted empty-paths reply instead of `None`.
fn serve_one(table: &RouteTable, alpha: usize, req: &Request, unroutable: &mut usize) -> Reply {
    match answer_on(table, alpha, req) {
        Some(reply) => reply,
        None => {
            *unroutable += 1;
            Reply {
                request_id: req.id,
                generation: table.generation(),
                // An empty Vec never allocates.
                paths: Vec::new(), // lint: allow(hot_alloc)
            }
        }
    }
}

/// The sharded query front-end over an epoch-swapped [`RouteTable`].
///
/// A batch is answered against **one** snapshot (a single epoch read at
/// batch start), fanned out round-robin over `shards` OS threads, and
/// merged back in request order. Because each reply depends only on
/// `(generation, request_id)`, the batch result is bit-identical at any
/// shard count, and a concurrent [`publish`](EpochCell::publish) neither
/// stalls the batch nor perturbs it — the next batch simply opens on the
/// new generation.
#[derive(Debug, Clone)]
pub struct QueryPlane {
    cell: Arc<EpochCell<RouteTable>>,
    alpha: usize,
    shards: usize,
}

impl QueryPlane {
    /// A plane answering `alpha` paths per request over `shards` worker
    /// threads (1 = serial in the caller's thread).
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 0` or `shards == 0`.
    pub fn new(cell: Arc<EpochCell<RouteTable>>, alpha: usize, shards: usize) -> Self {
        assert!(alpha >= 1, "alpha must be positive");
        assert!(shards >= 1, "need at least one shard");
        QueryPlane {
            cell,
            alpha,
            shards,
        }
    }

    /// Paths sampled per request.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Worker threads per batch.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The generation the next batch would open on.
    pub fn generation(&self) -> u64 {
        self.cell.load().generation()
    }

    /// Answers a batch of requests, in request order. Unroutable pairs
    /// are counted in the outcome, never panicked on.
    pub fn answer_batch(&self, requests: &[Request]) -> BatchOutcome {
        let table = self.cell.load();
        answer_batch_on(&table, self.alpha, self.shards, requests)
    }
}

/// [`QueryPlane::answer_batch`] against an explicit snapshot: round-robin
/// over `shards` threads (request `i` goes to shard `i % shards`), merged
/// back in request order. Sharding moves wall-clock only — replies are a
/// per-request pure function, so the outcome is identical at any count.
/// A request whose pair is missing from the table yields a counted
/// empty-paths reply (see [`Reply::is_unroutable`]); every other reply
/// is byte-for-byte what [`answer_on`] returns for it.
///
/// # Panics
///
/// Panics if `alpha == 0` or `shards == 0` (configuration errors, not
/// per-request conditions).
pub fn answer_batch_on(
    table: &RouteTable,
    alpha: usize,
    shards: usize,
    requests: &[Request],
) -> BatchOutcome {
    assert!(alpha >= 1, "alpha must be positive");
    assert!(shards >= 1, "need at least one shard");
    if shards == 1 || requests.len() <= 1 {
        let mut replies = Vec::with_capacity(requests.len());
        let mut unroutable = 0;
        for req in requests {
            // Appends into the per-batch reserve above.
            replies.push(serve_one(table, alpha, req, &mut unroutable)); // lint: allow(hot_alloc)
        }
        return BatchOutcome {
            replies,
            unroutable,
        };
    }
    let shards = shards.min(requests.len());
    let mut per_shard: Vec<Vec<Reply>> = Vec::with_capacity(shards);
    let mut unroutable = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|k| {
                scope.spawn(move || {
                    // Per-shard scratch, reserved once per batch.
                    let mut out = Vec::with_capacity(requests.len().div_ceil(shards));
                    let mut missed = 0;
                    for req in requests.iter().skip(k).step_by(shards) {
                        out.push(serve_one(table, alpha, req, &mut missed)); // lint: allow(hot_alloc)
                    }
                    (out, missed)
                })
            })
            .collect::<Vec<_>>(); // lint: allow(hot_alloc) — one handle per shard, per batch
        for h in handles {
            // A shard panic is a process-level bug (serving never
            // panics per-request); re-raising it here is the only
            // honest option.
            let (out, missed) = h.join().expect("query shard panicked"); // lint: allow(hot_panic)
            per_shard.push(out); // lint: allow(hot_alloc) — per-batch merge setup
            unroutable += missed;
        }
    });
    // Inverse of the round-robin split: request i is the next unconsumed
    // reply of shard i % shards — a move, never a clone.
    let mut cursors: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect(); // lint: allow(hot_alloc)
    let mut replies = Vec::with_capacity(requests.len());
    for i in 0..requests.len() {
        if let Some(reply) = cursors.get_mut(i % shards).and_then(Iterator::next) {
            replies.push(reply); // lint: allow(hot_alloc) — per-batch reserve above
        }
    }
    BatchOutcome {
        replies,
        unroutable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};

    /// A Valiant hypercube's α = 3 path system, frozen. (The empty
    /// fallback answers nothing, which every test below would catch.)
    fn table(generation: u64) -> RouteTable {
        Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .alpha(3)
            .prepare(&Default::default())
            .route_table(generation)
            .unwrap_or_else(|| RouteTable::freeze(8, generation, Default::default()))
    }

    fn requests(count: u64) -> Vec<Request> {
        (0..count)
            .map(|i| Request {
                id: i,
                s: (i % 8) as VertexId,
                t: ((i + 3) % 8) as VertexId,
            })
            .collect()
    }

    #[test]
    fn replies_are_pure_in_generation_and_request_id() {
        let t5 = table(5);
        let req = Request { id: 9, s: 1, t: 6 };
        let a = answer_on(&t5, 3, &req).unwrap();
        let b = answer_on(&t5, 3, &req).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.generation, 5);
        // A different generation re-seeds the stream.
        let c = answer_on(&table(6), 3, &req).unwrap();
        assert_eq!(c.generation, 6);
        // (Streams may coincide on tiny supports; the seed must differ.)
        assert_ne!(query_seed(5, 9), query_seed(6, 9));
    }

    #[test]
    fn shard_count_never_changes_the_batch() {
        let t = table(2);
        let reqs = requests(37);
        let one = answer_batch_on(&t, 4, 1, &reqs);
        for shards in [2, 3, 8, 64] {
            assert_eq!(one, answer_batch_on(&t, 4, shards, &reqs), "{shards}");
        }
        assert_eq!(one.replies.len(), 37);
        assert_eq!(one.unroutable, 0);
        assert!(one
            .replies
            .iter()
            .enumerate()
            .all(|(i, r)| r.request_id == i as u64));
    }

    #[test]
    fn plane_answers_through_the_cell() {
        let cell = Arc::new(EpochCell::new(Arc::new(table(0))));
        let plane = QueryPlane::new(Arc::clone(&cell), 2, 4);
        let reqs = requests(10);
        let before = plane.answer_batch(&reqs);
        assert!(before.replies.iter().all(|r| r.generation == 0));
        cell.publish(Arc::new(table(1)));
        let after = plane.answer_batch(&reqs);
        assert!(after.replies.iter().all(|r| r.generation == 1));
        // Replay contract: the old batch still reproduces from gen 0.
        let replay = answer_batch_on(&table(0), 2, 1, &reqs);
        assert_eq!(before, replay);
    }

    #[test]
    fn works_against_engine_snapshots() {
        let p = Pipeline::on(TopologySpec::Grid { rows: 3, cols: 3 })
            .template(TemplateSpec::FrtEnsemble { trees: 3 })
            .alpha(2)
            .prepare(&Default::default());
        let t = p.route_table(4).unwrap();
        let req = Request { id: 0, s: 0, t: 8 };
        let r = answer_on(&t, 5, &req).unwrap();
        assert_eq!(r.paths.len(), 5);
        for id in &r.paths {
            let path = t.store().materialize(*id);
            assert_eq!(path.source(), 0);
            assert_eq!(path.target(), 8);
        }
    }

    #[test]
    fn missing_pairs_are_counted_not_panicked() {
        let t = table(3);
        let mut reqs = requests(12);
        reqs[5] = Request {
            id: 5,
            s: 0,
            t: 200,
        };
        for shards in [1, 4] {
            let out = answer_batch_on(&t, 2, shards, &reqs);
            assert_eq!(out.replies.len(), 12, "every request gets a reply");
            assert_eq!(out.unroutable, 1);
            let miss = &out.replies[5];
            assert!(miss.is_unroutable());
            assert_eq!(miss.request_id, 5);
            assert_eq!(miss.generation, 3);
            // Every routable reply is bit-identical to its standalone
            // answer — the bad pair perturbs nothing around it.
            for (i, r) in out.replies.iter().enumerate() {
                if i != 5 {
                    assert_eq!(*r, answer_on(&t, 2, &reqs[i]).unwrap());
                }
            }
        }
        // An all-unroutable batch still returns, counting every miss.
        let bad = vec![
            Request {
                id: 0,
                s: 0,
                t: 200,
            },
            Request {
                id: 1,
                s: 0,
                t: 201,
            },
        ];
        let out = answer_batch_on(&t, 2, 2, &bad);
        assert_eq!(out.unroutable, 2);
        assert!(out.replies.iter().all(Reply::is_unroutable));
    }
}
