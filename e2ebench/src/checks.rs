//! Output checks: every query, top-k answer, artifact reload and CLI
//! answer is compared against exact farness from a reference top-down BFS.

use brics::topk::TopK;
use brics::FarnessEstimate;
use brics_graph::traversal::Bfs;
use brics_graph::{CsrGraph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;

/// Vertices whose exact farness every answer is checked against.
pub struct CheckSet {
    /// Distinct vertices, ascending.
    pub vertices: Vec<NodeId>,
    /// Exact farness of each vertex in `vertices`.
    pub exact: Vec<u64>,
    bfs: Bfs,
    cache: HashMap<NodeId, u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CheckSet {
    /// Draws `size` distinct vertices from `seed` and computes their exact
    /// farness.
    pub fn new(g: &CsrGraph, size: usize, seed: u64) -> Self {
        let n = g.num_nodes();
        let mut state = seed ^ 0x636865636b736574; // "checkset"
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < size.min(n) {
            picked.insert((splitmix64(&mut state) % n as u64) as NodeId);
        }
        let mut set = CheckSet {
            vertices: picked.into_iter().collect(),
            exact: Vec::new(),
            bfs: Bfs::new(n),
            cache: HashMap::new(),
        };
        set.exact = set
            .vertices
            .clone()
            .into_iter()
            .map(|v| set.farness(g, v))
            .collect();
        set
    }

    /// Exact farness of any vertex (memoised reference BFS).
    pub fn farness(&mut self, g: &CsrGraph, v: NodeId) -> u64 {
        let bfs = &mut self.bfs;
        *self
            .cache
            .entry(v)
            .or_insert_with(|| bfs.run_with(g, v, |_, _| {}).1)
    }

    /// The paper's Quality (`brics::quality::quality`: mean AR(v) of raw
    /// sums over all n vertices). Sampled vertices are exact, so they count
    /// 1 each; the mean over the rest is taken on the check-set vertices
    /// that were not sampled. Counting the sampled ones exactly keeps the
    /// few check vertices a query happens to sample from swinging the
    /// figure.
    pub fn quality(&self, est: &FarnessEstimate) -> f64 {
        let n = est.len() as f64;
        let sampled = est.sampled_mask().iter().filter(|&&s| s).count() as f64 / n;
        let (raw, exact): (Vec<u64>, Vec<u64>) = self
            .vertices
            .iter()
            .zip(&self.exact)
            .filter(|&(&v, _)| !est.is_sampled(v))
            .map(|(&v, &e)| (est.raw()[v as usize], e))
            .unzip();
        let rest = if raw.is_empty() {
            1.0
        } else {
            brics::quality::quality(&raw, &exact)
        };
        sampled + (1.0 - sampled) * rest
    }
}

/// Pass/fail count of one kind of check.
#[derive(Default)]
pub struct CheckCount {
    pub run: u64,
    pub failed: u64,
}

/// Operations attempted and failed, plus per-kind check counts.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checks: BTreeMap<&'static str, CheckCount>,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        eprintln!("FAILED: {msg}");
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// Records one check of `kind`; returns whether it passed.
    pub fn check(&mut self, kind: &'static str, pass: bool, what: impl FnOnce() -> String) -> bool {
        let c = self.checks.entry(kind).or_default();
        c.run += 1;
        if !pass {
            c.failed += 1;
            self.note(format!("{kind}: {}", what()));
        }
        pass
    }

    /// Records one operation that completed; `ok` is false when a check on
    /// its output failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records one operation that returned an error.
    pub fn error(&mut self, what: &str, e: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("{what}: {e}"));
    }
}

/// A complete estimate is a lower bound on exact farness at every check
/// vertex, and exact at every sampled one.
pub fn estimate(t: &mut Tally, set: &CheckSet, est: &FarnessEstimate, what: &str) -> bool {
    let complete = t.check("complete", !est.is_partial(), || {
        format!("{what} returned a partial estimate")
    });
    let unsound = set.vertices.iter().zip(&set.exact).find(|&(&v, &exact)| {
        let raw = est.raw()[v as usize];
        raw > exact || (est.is_sampled(v) && raw != exact)
    });
    let sound = t.check("lower_bound", unsound.is_none(), || {
        let (&v, &exact) = unsound.expect("set when the check fails");
        let sampled = est.is_sampled(v);
        format!(
            "{what}: vertex {v} raw {} vs exact {exact} (sampled {sampled})",
            est.raw()[v as usize]
        )
    });
    complete && sound
}

/// Top-k: every ranked value is exact, the list ascends by (farness, id),
/// and no check-set vertex outside it beats the k-th entry.
pub fn topk(t: &mut Tally, set: &mut CheckSet, g: &CsrGraph, res: &TopK, k: usize) -> bool {
    let problem = if res.ranked.len() != k {
        Some(format!("{} ranked entries, want {k}", res.ranked.len()))
    } else if let Some(&(v, f)) = res.ranked.iter().find(|&&(v, f)| set.farness(g, v) != f) {
        Some(format!(
            "ranked {v} farness {f} vs exact {}",
            set.farness(g, v)
        ))
    } else if !res
        .ranked
        .windows(2)
        .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0))
    {
        Some("ranking not ascending".into())
    } else {
        let (kv, kf) = res.ranked[k - 1];
        set.vertices
            .iter()
            .zip(&set.exact)
            .find(|&(&v, &exact)| (exact, v) < (kf, kv) && !res.ranked.iter().any(|&(r, _)| r == v))
            .map(|(v, exact)| {
                format!("vertex {v} (farness {exact}) beats the k-th entry {kv} ({kf})")
            })
    };
    t.check("topk", problem.is_none(), || {
        problem.clone().unwrap_or_default()
    })
}

/// The `k` vertices with the smallest raw value, ties by id — what
/// `brics farness --top k` prints.
pub fn top_ids(raw: &[u64], k: usize) -> Vec<NodeId> {
    let mut idx: Vec<NodeId> = (0..raw.len() as NodeId).collect();
    idx.sort_by_key(|&v| (raw[v as usize], v));
    idx.truncate(k);
    idx
}

/// Order-sensitive FNV-1a checksum of a sequence of pairs.
fn fnv(pairs: impl Iterator<Item = (u64, u64)>) -> u64 {
    pairs.fold(0xcbf2_9ce4_8422_2325u64, |h, (a, b)| {
        let h = (h ^ a).wrapping_mul(0x100_0000_01b3);
        (h ^ b).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checksum of a top-k ranking.
pub fn ranked_checksum(ranked: &[(NodeId, u64)]) -> u64 {
    fnv(ranked.iter().map(|&(v, f)| (v as u64, f)))
}

/// Checksum of a graph's edge list.
pub fn graph_checksum(g: &CsrGraph) -> u64 {
    fnv(g.edges().map(|(u, v)| (u as u64, v as u64)))
}
