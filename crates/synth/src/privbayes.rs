//! PrivBayes (Zhang et al. 2017): Bayesian-network synthesis under pure
//! (ε,0)-DP.
//!
//! Half the ε budget buys the network structure (a sequence of
//! exponential-mechanism selections of (attribute, parent-set) pairs scored
//! by mutual information), half buys Laplace-noised conditional probability
//! tables. Sampling is ancestral through the learned network.
//!
//! PrivBayes is the one mechanism in the benchmark defined over
//! *modify-one-record* neighbors; we follow the paper and account for that
//! with doubled sensitivity on the counts.

use crate::common::{check_domain_limit, dataset_from_columns};
use crate::error::{Result, SynthError};
use crate::workload::all_pairs;
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use synrd_data::{Dataset, Domain, Marginal, MarginalEngine};
use synrd_dp::{derive_seed, exponential_mechanism, laplace_mechanism, Privacy};
use synrd_pgm::assemble_chunks;

/// Maximum number of parents per node.
const MAX_DEGREE: usize = 2;
/// Maximum cells in one conditional table.
const CPT_CELL_LIMIT: u128 = 1 << 18;

/// One node of the learned network: attribute, parents, and its noisy CPT
/// stored as a flat joint table over (parents..., attr). Public and plain
/// so the fit cache can persist the whole network as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct BayesNode {
    /// The attribute this node samples.
    pub attr: usize,
    /// Its parents (must already be sampled when this node draws).
    pub parents: Vec<usize>,
    /// Noisy joint counts over sorted(parents ∪ {attr}).
    pub table: Marginal,
}

/// Check that `nodes` is a well-formed ancestral network over `domain`:
/// every attribute sampled exactly once, parents before children, and each
/// CPT a joint table over exactly sorted(parents ∪ {attr}) with the
/// domain's cardinalities.
fn validate_network(domain: &Domain, nodes: &[BayesNode]) -> std::result::Result<(), String> {
    let d = domain.len();
    if nodes.len() != d {
        return Err(format!("{} nodes for {d} attributes", nodes.len()));
    }
    let mut sampled = vec![false; d];
    for (i, node) in nodes.iter().enumerate() {
        if node.attr >= d {
            return Err(format!(
                "node {i} samples out-of-domain attribute {}",
                node.attr
            ));
        }
        if sampled[node.attr] {
            return Err(format!("attribute {} sampled twice", node.attr));
        }
        for &p in &node.parents {
            if p >= d {
                return Err(format!("node {i} has out-of-domain parent {p}"));
            }
            if !sampled[p] {
                return Err(format!("node {i} parent {p} not sampled before its child"));
            }
        }
        let mut expected: Vec<usize> = node.parents.clone();
        expected.push(node.attr);
        expected.sort_unstable();
        expected.dedup();
        if expected.len() != node.parents.len() + 1 {
            return Err(format!("node {i} lists its own attribute as a parent"));
        }
        if node.table.attrs() != expected.as_slice() {
            return Err(format!(
                "node {i} CPT covers {:?}, expected {:?}",
                node.table.attrs(),
                expected
            ));
        }
        for (&a, &card) in node.table.attrs().iter().zip(node.table.shape()) {
            let domain_card = domain.cardinality(a).map_err(|e| e.to_string())?;
            if card != domain_card {
                return Err(format!(
                    "node {i} CPT gives attribute {a} cardinality {card}, domain has {domain_card}"
                ));
            }
        }
        sampled[node.attr] = true;
    }
    Ok(())
}

/// The PrivBayes synthesizer.
#[derive(Debug, Clone, Default)]
pub struct PrivBayes {
    fitted: Option<(Domain, Vec<BayesNode>)>,
}

impl Synthesizer for PrivBayes {
    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        _ctx: FitContext,
    ) -> Result<()> {
        check_domain_limit(data.domain(), "PrivBayes")?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "privbayes-fit"));
        // Pure-DP budget: convert whatever we were given onto the ε axis at
        // δ=0 semantics (ρ-zCDP has no exact pure-ε form; we use the paper's
        // shared ε axis where PrivBayes runs at the nominal ε).
        let epsilon = match privacy {
            Privacy::Pure { epsilon } => epsilon,
            Privacy::Approx { epsilon, .. } => epsilon,
            Privacy::Zcdp { rho } => (2.0 * rho).sqrt(),
        };
        let d = data.n_attrs();
        let n = data.n_rows() as f64;
        let eps_structure = epsilon / 2.0;
        let eps_cpt = epsilon / 2.0;

        // Effective degree: shrink when tables would outgrow the signal
        // (PrivBayes' theta-usefulness heuristic, simplified).
        let avg_card = data.domain().shape().iter().sum::<usize>() as f64 / d as f64;
        let mut degree = MAX_DEGREE;
        while degree > 1
            && avg_card.powi(degree as i32 + 1) > (n * epsilon / (4.0 * d as f64)).max(2.0)
        {
            degree -= 1;
        }

        // One marginal engine per fit: the pairwise-MI precompute counts
        // every pair joint in one fused sweep, and the CPT materialization
        // below reuses any table the structure search already counted.
        let mut engine = MarginalEngine::new(data);

        // Precompute pairwise MI on the real data (used only inside the
        // exponential mechanism, which provides the privacy).
        let pair_sets = all_pairs(data.domain());
        engine.prefetch(&pair_sets)?;
        let mut mi = vec![vec![0.0f64; d]; d];
        for pair in &pair_sets {
            let (a, b) = (pair[0], pair[1]);
            let v = engine.mutual_information(a, b)?;
            mi[a][b] = v;
            mi[b][a] = v;
        }

        // Greedy structure selection: first node uniformly at random, then
        // d-1 exponential-mechanism picks over (attr, parent-set) candidates.
        let eps_pick = eps_structure / d.saturating_sub(1).max(1) as f64;
        let mut order: Vec<usize> = Vec::with_capacity(d);
        let mut nodes: Vec<BayesNode> = Vec::with_capacity(d);
        let first = rng.gen_range(0..d);
        order.push(first);

        while order.len() < d {
            // Candidates: for each unchosen attr, parent sets = top-s chosen
            // attrs by MI, for s = 1..=degree (plus the empty set fallback).
            let mut cand_attr: Vec<usize> = Vec::new();
            let mut cand_parents: Vec<Vec<usize>> = Vec::new();
            let mut cand_score: Vec<f64> = Vec::new();
            for x in 0..d {
                if order.contains(&x) {
                    continue;
                }
                let mut ranked: Vec<usize> = order.clone();
                ranked.sort_by(|&a, &b| mi[x][b].partial_cmp(&mi[x][a]).expect("finite MI"));
                for s in 0..=degree.min(ranked.len()) {
                    let mut parents: Vec<usize> = ranked[..s].to_vec();
                    parents.sort_unstable();
                    // Respect the CPT cell limit.
                    let mut cells: u128 = data.domain().cardinality(x)? as u128;
                    for &p in &parents {
                        cells = cells.saturating_mul(data.domain().cardinality(p)? as u128);
                    }
                    if cells > CPT_CELL_LIMIT {
                        continue;
                    }
                    // Score: n × (sum of pairwise MI to parents) — a standard
                    // surrogate for joint MI that keeps sensitivity manageable.
                    let score: f64 = parents.iter().map(|&p| mi[x][p]).sum::<f64>() * n;
                    cand_attr.push(x);
                    cand_parents.push(parents);
                    cand_score.push(score);
                }
            }
            if cand_attr.is_empty() {
                return Err(SynthError::Infeasible {
                    reason: "PrivBayes: no parent set fits the CPT cell limit".to_string(),
                });
            }
            // MI score sensitivity ≈ ln(n)+1 per modified record (PrivBayes
            // Lemma 4.1 simplified).
            let sensitivity = n.max(2.0).ln() + 1.0;
            let chosen = exponential_mechanism(&cand_score, sensitivity, eps_pick, &mut rng)?;
            order.push(cand_attr[chosen]);
            nodes.push(BayesNode {
                attr: cand_attr[chosen],
                parents: cand_parents[chosen].clone(),
                table: Marginal::from_counts(vec![0], vec![1], vec![0.0])?, // placeholder
            });
        }
        // Root node for the first attribute (no parents).
        nodes.insert(
            0,
            BayesNode {
                attr: first,
                parents: Vec::new(),
                table: Marginal::from_counts(vec![0], vec![1], vec![0.0])?,
            },
        );

        // Noisy CPTs: Laplace with sensitivity 2 (modify-one neighbors).
        // Two-attribute tables are cache hits from the MI precompute; the
        // noise goes onto a cloned copy, never the cached true counts.
        let eps_table = eps_cpt / d as f64;
        for node in &mut nodes {
            let mut attrs: Vec<usize> = node.parents.clone();
            attrs.push(node.attr);
            attrs.sort_unstable();
            let mut marginal = engine.count(&attrs)?.clone();
            laplace_mechanism(marginal.counts_mut(), 2.0, eps_table, &mut rng)?;
            node.table = marginal;
        }

        self.fitted = Some((data.domain().clone(), nodes));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, nodes) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "privbayes-sample"));
        let d = domain.len();
        let k = nodes.len();
        // Node-major precompute: one conditional weight table per network
        // node, indexed by parent configuration — built once per sample
        // call instead of re-slicing the joint CPT per row per node.
        let tables: Vec<CondTable> = nodes.iter().map(CondTable::build).collect();
        // Pre-draw one raw RNG word per (row, node) in the exact row-major
        // order the per-row sampler consumed them. Both branches of a draw
        // (`gen_range` on a zero-mass configuration, `gen::<f64>`
        // otherwise) consume exactly one word, so the replay below is
        // bit-identical whatever branch each draw takes.
        let mut words: Vec<u64> = Vec::with_capacity(n * k);
        for _ in 0..n * k {
            words.push(rng.next_u64());
        }
        let sample_chunk = |lo: usize, hi: usize| -> Vec<Vec<u32>> {
            let rows = hi - lo;
            // Row-major code scratch: ancestral sampling reads each row's
            // parent codes, written earlier in the node order.
            let mut codes = vec![0u32; rows * d];
            for (ni, ct) in tables.iter().enumerate() {
                for r in 0..rows {
                    let mut cfg = 0usize;
                    for &(p_attr, stride) in &ct.parents {
                        cfg += codes[r * d + p_attr] as usize * stride;
                    }
                    let word = WordRng::new(words[(lo + r) * k + ni]);
                    codes[r * d + ct.attr] = ct.draw(cfg, word);
                }
            }
            (0..d)
                .map(|a| (0..rows).map(|r| codes[r * d + a]).collect())
                .collect()
        };
        let columns = assemble_chunks(n, d, sample_chunk);
        dataset_from_columns(domain, columns)
    }

    fn fitted_state(&self) -> Option<FittedState> {
        self.fitted
            .as_ref()
            .map(|(domain, nodes)| FittedState::PrivBayes {
                domain: domain.clone(),
                nodes: nodes.clone(),
            })
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        match state {
            FittedState::PrivBayes { domain, nodes } => {
                validate_network(&domain, &nodes).map_err(|reason| SynthError::StateMismatch {
                    reason: format!("PrivBayes: {reason}"),
                })?;
                self.fitted = Some((domain, nodes));
                Ok(())
            }
            other => Err(SynthError::StateMismatch {
                reason: format!(
                    "PrivBayes: expected privbayes state, got {}",
                    other.variant()
                ),
            }),
        }
    }
}

/// Per-node conditional table over parent configurations: `weights` holds
/// the clamped CPT counts for configuration `cfg` at
/// `cfg * card ..= cfg * card + card - 1`, `totals[cfg]` their sum in the
/// same left-to-right order the per-row sampler summed them.
struct CondTable {
    attr: usize,
    card: usize,
    /// (dataset attribute id, mixed-radix stride into the configuration id)
    /// per parent, in the joint table's attribute order.
    parents: Vec<(usize, usize)>,
    weights: Vec<f64>,
    totals: Vec<f64>,
}

impl CondTable {
    fn build(node: &BayesNode) -> CondTable {
        let table = &node.table;
        let attrs = table.attrs();
        let shape = table.shape();
        let attr_pos = attrs
            .iter()
            .position(|&a| a == node.attr)
            .expect("attr in own table");
        let card = shape[attr_pos];
        // Mixed-radix strides over the parent positions (all non-attr
        // positions, in table order).
        let parent_pos: Vec<usize> = (0..attrs.len()).filter(|&p| p != attr_pos).collect();
        let mut parents = Vec::with_capacity(parent_pos.len());
        let mut cfg_stride = 1usize;
        for &p in parent_pos.iter().rev() {
            parents.push((attrs[p], cfg_stride, p));
            cfg_stride *= shape[p];
        }
        parents.reverse();
        let n_cfg = cfg_stride;
        // One pass over the joint table scatters every cell into its
        // (configuration, value) slot — same `max(0.0)` clamp as the
        // per-row slicer.
        let mut weights = vec![0.0f64; n_cfg * card];
        let mut pos_codes = vec![0usize; attrs.len()];
        for (cell, &c) in table.counts().iter().enumerate() {
            // Decode the cell's codes (row-major over `shape`).
            let mut rem = cell;
            for p in (0..attrs.len()).rev() {
                pos_codes[p] = rem % shape[p];
                rem /= shape[p];
            }
            let mut cfg = 0usize;
            for &(_, stride, p) in &parents {
                cfg += pos_codes[p] * stride;
            }
            weights[cfg * card + pos_codes[attr_pos]] = c.max(0.0);
        }
        let totals: Vec<f64> = weights.chunks_exact(card).map(|w| w.iter().sum()).collect();
        CondTable {
            attr: node.attr,
            card,
            parents: parents
                .into_iter()
                .map(|(attr, stride, _)| (attr, stride))
                .collect(),
            weights,
            totals,
        }
    }

    /// Resolve one draw for configuration `cfg` from a replayed RNG word:
    /// the same uniform-fallback / weighted-walk arithmetic as the per-row
    /// sampler, over the precomputed weight slice.
    #[inline]
    fn draw(&self, cfg: usize, mut word: WordRng) -> u32 {
        let total = self.totals[cfg];
        if total <= 0.0 {
            word.gen_range(0..self.card) as u32
        } else {
            let weights = &self.weights[cfg * self.card..(cfg + 1) * self.card];
            let mut t = word.gen::<f64>() * total;
            let mut picked = self.card - 1;
            for (v, &w) in weights.iter().enumerate() {
                t -= w;
                if t < 0.0 {
                    picked = v;
                    break;
                }
            }
            picked as u32
        }
    }
}

/// Replays one pre-drawn 64-bit RNG word through the standard `Rng`
/// adapters, so the batched sampler reuses the exact `gen` / `gen_range`
/// arithmetic of the sequential RNG without duplicating it. A draw that
/// consumed more than one word would desynchronize the replay, so a second
/// `next_u64` panics in debug builds.
struct WordRng {
    word: u64,
    taken: bool,
}

impl WordRng {
    fn new(word: u64) -> WordRng {
        WordRng { word, taken: false }
    }
}

impl RngCore for WordRng {
    fn next_u64(&mut self) -> u64 {
        debug_assert!(!self.taken, "replayed draw consumed a second RNG word");
        self.taken = true;
        self.word
    }

    fn next_u32(&mut self) -> u32 {
        // Same word-to-u32 narrowing as the vendored StdRng.
        (self.next_u64() >> 32) as u32
    }
}

#[cfg(test)]
impl PrivBayes {
    /// The original per-row sampler, retained as the differential oracle
    /// for the node-major batched path.
    fn sample_naive(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, nodes) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "privbayes-sample"));
        let d = domain.len();
        let mut columns = vec![vec![0u32; n]; d];
        let mut row = vec![0u32; d];
        for r in 0..n {
            for node in nodes {
                // Conditional distribution over node.attr given sampled
                // parent codes: walk the joint table cells that match.
                let table = &node.table;
                let attrs = table.attrs();
                let attr_pos = attrs
                    .iter()
                    .position(|&a| a == node.attr)
                    .expect("attr in own table");
                let card = table.shape()[attr_pos];
                let mut weights = vec![0.0f64; card];
                // Build the fixed-code template.
                let mut codes: Vec<u32> = attrs.iter().map(|&a| row[a]).collect();
                for (v, w) in weights.iter_mut().enumerate() {
                    codes[attr_pos] = v as u32;
                    *w = table.counts()[table.index_of(&codes)].max(0.0);
                }
                let total: f64 = weights.iter().sum();
                let value = if total <= 0.0 {
                    rng.gen_range(0..card) as u32
                } else {
                    let mut t = rng.gen::<f64>() * total;
                    let mut picked = card - 1;
                    for (v, &w) in weights.iter().enumerate() {
                        t -= w;
                        if t < 0.0 {
                            picked = v;
                            break;
                        }
                    }
                    picked as u32
                };
                row[node.attr] = value;
            }
            for (a, col) in columns.iter_mut().enumerate() {
                col[r] = row[a];
            }
        }
        dataset_from_columns(domain, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use synrd_data::Attribute;

    fn parented_data(n: usize) -> Dataset {
        // c depends on (a, b) jointly: PrivBayes should pick both parents.
        let domain = Domain::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let a = u32::from(rng.gen::<f64>() < 0.5);
            let b = u32::from(rng.gen::<f64>() < 0.5);
            let c = if rng.gen::<f64>() < 0.92 {
                a ^ b
            } else {
                1 - (a ^ b)
            };
            ds.push_row(&[a, b, c]).unwrap();
        }
        ds
    }

    /// The learned topological structure (attr, parents) of a fitted synth.
    fn structure(synth: &PrivBayes) -> Vec<(usize, Vec<usize>)> {
        let (_, nodes) = synth.fitted.as_ref().expect("fitted");
        nodes.iter().map(|n| (n.attr, n.parents.clone())).collect()
    }

    #[test]
    fn structure_covers_every_attribute_once() {
        let data = parented_data(4_000);
        let mut synth = PrivBayes::default();
        synth.fit(&data, Privacy::pure(2.0).unwrap(), 3).unwrap();
        let structure = structure(&synth);
        assert_eq!(structure.len(), 3);
        let mut attrs: Vec<usize> = structure.iter().map(|(a, _)| *a).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec![0, 1, 2]);
        // Parents always precede their children in the sampling order.
        for (idx, (_, parents)) in structure.iter().enumerate() {
            let before: Vec<usize> = structure[..idx].iter().map(|(a, _)| *a).collect();
            for p in parents {
                assert!(before.contains(p), "parent {p} sampled after child");
            }
        }
    }

    #[test]
    fn cpt_cell_limit_constrains_parents() {
        // Three strongly linked 600-value attributes: a root table fits the
        // CPT limit, but every parented table has 600 × 600 cells, which
        // exceed it, so the fit survives with a parent-free structure.
        let card = 600u32;
        assert!(u128::from(card) <= CPT_CELL_LIMIT);
        assert!(u128::from(card * card) > CPT_CELL_LIMIT);
        let domain = Domain::new(
            (0..3)
                .map(|i| Attribute::ordinal(format!("a{i}"), card as usize))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut data = Dataset::with_capacity(domain, 1_000);
        for _ in 0..1_000 {
            let a = rng.gen_range(0..card);
            data.push_row(&[a, a, (a + 1) % card]).unwrap();
        }
        let mut synth = PrivBayes::default();
        synth.fit(&data, Privacy::pure(1.0).unwrap(), 3).unwrap();
        let structure = structure(&synth);
        assert!(structure.iter().all(|(_, p)| p.is_empty()));
    }

    #[test]
    fn batched_sample_matches_naive() {
        let data = parented_data(3_000);
        let mut synth = PrivBayes::default();
        synth.fit(&data, Privacy::pure(2.0).unwrap(), 7).unwrap();
        // In a 4-thread pool, 20,000 rows take the harness's parallel
        // chunk path on any host.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for (n, seed) in [(0usize, 1u64), (1, 2), (777, 3), (20_000, 4)] {
            let batched = pool.install(|| synth.sample(n, seed)).unwrap();
            let naive = synth.sample_naive(n, seed).unwrap();
            assert_eq!(batched, naive, "n = {n}");
        }
        // A tiny ε starves some parent configurations to zero mass after
        // clamping, exercising the uniform-fallback draw on both paths.
        let mut starved = PrivBayes::default();
        starved.fit(&data, Privacy::pure(0.01).unwrap(), 3).unwrap();
        let batched = starved.sample(5_000, 9).unwrap();
        assert_eq!(batched, starved.sample_naive(5_000, 9).unwrap());
    }

    #[test]
    fn sampled_marginals_track_data_at_high_eps() {
        let data = parented_data(6_000);
        let mut synth = PrivBayes::default();
        synth.fit(&data, Privacy::pure(8.0).unwrap(), 9).unwrap();
        let sample = synth.sample(6_000, 11).unwrap();
        for a in 0..3 {
            let real = data.mean_of(a).unwrap();
            let got = sample.mean_of(a).unwrap();
            assert!((real - got).abs() < 0.05, "attr {a}: {got} vs {real}");
        }
    }
}
