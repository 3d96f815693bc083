//! Composable DAG family generators.
//!
//! A [`FamilySpec`] is one stratum of a custom scenario population: a DAG
//! *kind* (the paper's four families plus the structured shapes of
//! [`rats_daggen`]), a share of the population (explicit `count` or a
//! `weight` of the spec's `total`), and per-parameter [`Dist`]ributions.
//! Each scenario of the stratum draws its parameters and its generator
//! seed from the population's per-scenario seed stream
//! ([`rats_daggen::scenario_seed`]), so generation is deterministic,
//! order-independent within the spec, and byte-identical across processes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rats_dag::TaskGraph;
use rats_daggen::{
    chain_dag, fft_dag, fork_join_dag, in_tree_dag, irregular_dag, layered_dag, out_tree_dag,
    strassen_dag, AppFamily, DagParams,
};
use rats_model::CostParams;
use serde::{Deserialize, Serialize, Value};

use crate::dist::{Dist, IntDist};

/// The DAG shapes a family can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Layered random DAGs (level-uniform costs, no jump edges).
    Layered,
    /// Irregular random DAGs (per-task costs, jump edges).
    Irregular,
    /// FFT task graphs over a grid of `k` (power-of-two data points).
    Fft,
    /// Strassen matrix-multiplication graphs (fixed 25-task shape).
    Strassen,
    /// Fork-join graphs (`stages` × `branches`).
    ForkJoin,
    /// Linear chains of `n` tasks.
    Chain,
    /// Out-trees (`arity`, `depth`).
    OutTree,
    /// In-trees (`arity`, `depth`).
    InTree,
}

impl FamilyKind {
    /// Every kind, in document order.
    pub const ALL: [FamilyKind; 8] = [
        FamilyKind::Layered,
        FamilyKind::Irregular,
        FamilyKind::Fft,
        FamilyKind::Strassen,
        FamilyKind::ForkJoin,
        FamilyKind::Chain,
        FamilyKind::OutTree,
        FamilyKind::InTree,
    ];

    /// The document spelling (`kind = "..."` in a family table).
    pub fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Layered => "layered",
            FamilyKind::Irregular => "irregular",
            FamilyKind::Fft => "fft",
            FamilyKind::Strassen => "strassen",
            FamilyKind::ForkJoin => "fork-join",
            FamilyKind::Chain => "chain",
            FamilyKind::OutTree => "out-tree",
            FamilyKind::InTree => "in-tree",
        }
    }

    /// Parses the document spelling (inverse of [`Self::as_str`]).
    pub fn parse(text: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == text)
    }

    /// The scenario tag this kind generates under.
    pub fn app_family(self) -> AppFamily {
        match self {
            FamilyKind::Layered => AppFamily::Layered,
            FamilyKind::Irregular => AppFamily::Irregular,
            FamilyKind::Fft => AppFamily::Fft,
            FamilyKind::Strassen => AppFamily::Strassen,
            FamilyKind::ForkJoin => AppFamily::ForkJoin,
            FamilyKind::Chain => AppFamily::Chain,
            FamilyKind::OutTree => AppFamily::OutTree,
            FamilyKind::InTree => AppFamily::InTree,
        }
    }
}

/// One stratum of a custom population.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// What shape to generate.
    pub kind: FamilyKind,
    /// Explicit number of scenarios; `None` apportions the spec's `total`
    /// by `weight`.
    pub count: Option<usize>,
    /// Relative share of the spec's `total` when `count` is absent.
    pub weight: f64,
    /// Task count (layered, irregular, chain).
    pub n: IntDist,
    /// Level width exponent in `(0, 1]` (layered, irregular).
    pub width: Dist,
    /// Level-size regularity in `[0, 1]` (layered, irregular).
    pub regularity: Dist,
    /// Inter-level edge density in `[0, 1]` (layered, irregular).
    pub density: Dist,
    /// Maximal jump length ≥ 1 (irregular).
    pub jump: IntDist,
    /// FFT data points — powers of two ≥ 2 (fft).
    pub k: IntDist,
    /// Number of parallel sections (fork-join).
    pub stages: IntDist,
    /// Tasks per parallel section (fork-join).
    pub branches: IntDist,
    /// Fan-out/fan-in factor (out-tree, in-tree).
    pub arity: IntDist,
    /// Tree depth — 0 is a single task (out-tree, in-tree).
    pub depth: IntDist,
    /// Communication scale: every edge's payload is multiplied by a draw
    /// from this, sweeping the population's communication-to-computation
    /// ratio (any kind).
    pub ccr: Dist,
}

impl FamilySpec {
    /// A family of the given kind with every parameter at its default
    /// (`n = 50`, paper-ish mid-range shape values, `ccr = 1`).
    pub fn new(kind: FamilyKind) -> Self {
        Self {
            kind,
            count: None,
            weight: 1.0,
            n: IntDist::Fixed(50),
            width: Dist::Fixed(0.5),
            regularity: Dist::Fixed(0.5),
            density: Dist::Fixed(0.5),
            jump: IntDist::Fixed(2),
            k: IntDist::Choice(vec![2, 4, 8, 16]),
            stages: IntDist::Fixed(4),
            branches: IntDist::Fixed(8),
            arity: IntDist::Fixed(2),
            depth: IntDist::Fixed(4),
            ccr: Dist::Fixed(1.0),
        }
    }

    /// Checks every distribution the kind consumes.
    pub fn validate(&self) -> Result<(), String> {
        let tag = self.kind.as_str();
        let scoped = |e: String| format!("family `{tag}`: {e}");
        if self.weight <= 0.0 || !self.weight.is_finite() {
            return Err(scoped(format!(
                "`weight` must be positive and finite, got {}",
                self.weight
            )));
        }
        self.ccr.validate("ccr", 1e-6, 1e6).map_err(&scoped)?;
        match self.kind {
            FamilyKind::Layered | FamilyKind::Irregular => {
                self.n.validate("n", 1, 100_000).map_err(&scoped)?;
                self.width.validate("width", 1e-6, 1.0).map_err(&scoped)?;
                self.regularity
                    .validate("regularity", 0.0, 1.0)
                    .map_err(&scoped)?;
                self.density
                    .validate("density", 0.0, 1.0)
                    .map_err(&scoped)?;
                if self.kind == FamilyKind::Irregular {
                    self.jump.validate("jump", 1, 64).map_err(&scoped)?;
                }
            }
            FamilyKind::Fft => {
                self.k.validate("k", 2, 1 << 16).map_err(&scoped)?;
                let ok = match &self.k {
                    IntDist::Fixed(v) => v.is_power_of_two(),
                    IntDist::Choice(items) => items.iter().all(|v| v.is_power_of_two()),
                    IntDist::Range { .. } => false,
                };
                if !ok {
                    return Err(scoped(
                        "`k` must be a power of two ≥ 2 (a fixed value or a choice \
                         list; ranges cannot guarantee that)"
                            .into(),
                    ));
                }
            }
            FamilyKind::Strassen => {}
            FamilyKind::ForkJoin => {
                self.stages.validate("stages", 1, 1_000).map_err(&scoped)?;
                self.branches
                    .validate("branches", 1, 10_000)
                    .map_err(&scoped)?;
                // Same ceiling as the tree guard: one million tasks.
                let worst =
                    1 + self.stages.bounds().1 as u64 * (self.branches.bounds().1 as u64 + 1);
                if worst > 1_000_000 {
                    return Err(scoped(format!(
                        "stages/branches allow fork-joins of ~{worst} tasks — cap \
                         stages x branches at one million"
                    )));
                }
            }
            FamilyKind::Chain => {
                self.n.validate("n", 1, 100_000).map_err(&scoped)?;
            }
            FamilyKind::OutTree | FamilyKind::InTree => {
                self.arity.validate("arity", 1, 64).map_err(&scoped)?;
                self.depth.validate("depth", 0, 16).map_err(&scoped)?;
                let (_, a_max) = self.arity.bounds();
                let (_, d_max) = self.depth.bounds();
                let worst = (a_max as f64).powi(d_max as i32);
                if a_max >= 2 && worst > 1e6 {
                    return Err(scoped(format!(
                        "arity/depth allow trees of ~{worst:.0} tasks — cap \
                         arity^depth at one million"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Generates one scenario of this family. `param_seed` feeds the
    /// parameter draws, `gen_seed` the structure/cost generator; both come
    /// from the population's per-scenario seed stream. Returns the graph
    /// and a human-readable parameter description.
    pub fn generate_one(
        &self,
        cost: &CostParams,
        param_seed: u64,
        gen_seed: u64,
    ) -> (TaskGraph, String) {
        let mut rng = StdRng::seed_from_u64(param_seed);
        let (mut dag, desc) = match self.kind {
            FamilyKind::Layered => {
                let p = DagParams::layered(
                    self.n.sample(&mut rng),
                    self.width.sample(&mut rng),
                    self.regularity.sample(&mut rng),
                    self.density.sample(&mut rng),
                );
                let desc = format!(
                    "n={} w={:.3} r={:.3} d={:.3}",
                    p.n, p.width, p.regularity, p.density
                );
                (layered_dag(&p, cost, gen_seed), desc)
            }
            FamilyKind::Irregular => {
                let p = DagParams {
                    n: self.n.sample(&mut rng),
                    width: self.width.sample(&mut rng),
                    regularity: self.regularity.sample(&mut rng),
                    density: self.density.sample(&mut rng),
                    jump: self.jump.sample(&mut rng),
                };
                let desc = format!(
                    "n={} w={:.3} r={:.3} d={:.3} j={}",
                    p.n, p.width, p.regularity, p.density, p.jump
                );
                (irregular_dag(&p, cost, gen_seed), desc)
            }
            FamilyKind::Fft => {
                let k = self.k.sample(&mut rng);
                (fft_dag(k, cost, gen_seed), format!("k={k}"))
            }
            FamilyKind::Strassen => (strassen_dag(cost, gen_seed), String::new()),
            FamilyKind::ForkJoin => {
                let stages = self.stages.sample(&mut rng);
                let branches = self.branches.sample(&mut rng);
                (
                    fork_join_dag(stages, branches, cost, gen_seed),
                    format!("stages={stages} branches={branches}"),
                )
            }
            FamilyKind::Chain => {
                let n = self.n.sample(&mut rng);
                (chain_dag(n, cost, gen_seed), format!("n={n}"))
            }
            FamilyKind::OutTree => {
                let arity = self.arity.sample(&mut rng);
                let depth = self.depth.sample(&mut rng);
                (
                    out_tree_dag(arity, depth, cost, gen_seed),
                    format!("arity={arity} depth={depth}"),
                )
            }
            FamilyKind::InTree => {
                let arity = self.arity.sample(&mut rng);
                let depth = self.depth.sample(&mut rng);
                (
                    in_tree_dag(arity, depth, cost, gen_seed),
                    format!("arity={arity} depth={depth}"),
                )
            }
        };
        let ccr = self.ccr.sample(&mut rng);
        if ccr != 1.0 {
            for e in dag.edge_ids() {
                dag.set_edge_bytes(e, dag.edge(e).bytes * ccr);
            }
        }
        let desc = if desc.is_empty() {
            format!("ccr={ccr:.3}")
        } else {
            format!("{desc} ccr={ccr:.3}")
        };
        (dag, desc)
    }
}

impl Serialize for FamilySpec {
    fn serialize(&self) -> Value {
        // Every field is emitted, defaulted or not: the document is the
        // spec's identity (spec hashes digest it), so the serialized form
        // must not depend on which fields the author spelled out.
        let mut t = Value::table();
        t.insert("kind", self.kind.as_str())
            .insert("weight", &self.weight)
            .insert("n", &self.n)
            .insert("width", &self.width)
            .insert("regularity", &self.regularity)
            .insert("density", &self.density)
            .insert("jump", &self.jump)
            .insert("k", &self.k)
            .insert("stages", &self.stages)
            .insert("branches", &self.branches)
            .insert("arity", &self.arity)
            .insert("depth", &self.depth)
            .insert("ccr", &self.ccr);
        if let Some(count) = self.count {
            t.insert("count", &count);
        }
        t
    }
}

/// The keys a family table accepts (everything [`FamilySpec`] serializes).
const FAMILY_KEYS: [&str; 14] = [
    "kind",
    "count",
    "weight",
    "n",
    "width",
    "regularity",
    "density",
    "jump",
    "k",
    "stages",
    "branches",
    "arity",
    "depth",
    "ccr",
];

/// Rejects unknown keys in a flat spec table: with this many optional
/// per-kind parameters, a misspelled key silently falling back to its
/// default would change the generated population with no diagnostic.
pub(crate) fn reject_unknown_keys(
    v: &Value,
    what: &str,
    known: &[&str],
) -> Result<(), serde::Error> {
    if let Value::Table(map) = v {
        if let Some(bad) = map.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(serde::Error::new(format!(
                "unknown {what} key `{bad}` (expected one of: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

impl Deserialize for FamilySpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        reject_unknown_keys(v, "family", &FAMILY_KEYS)?;
        let kind_name: String = v.field("kind")?;
        let kind = FamilyKind::parse(&kind_name).ok_or_else(|| {
            let known: Vec<&str> = FamilyKind::ALL.iter().map(|k| k.as_str()).collect();
            serde::Error::new(format!(
                "unknown family kind `{kind_name}` (expected one of: {})",
                known.join(", ")
            ))
        })?;
        let defaults = FamilySpec::new(kind);
        Ok(Self {
            kind,
            count: v.field_or("count", None)?,
            weight: v.field_or("weight", defaults.weight)?,
            n: v.field_or("n", defaults.n)?,
            width: v.field_or("width", defaults.width)?,
            regularity: v.field_or("regularity", defaults.regularity)?,
            density: v.field_or("density", defaults.density)?,
            jump: v.field_or("jump", defaults.jump)?,
            k: v.field_or("k", defaults.k)?,
            stages: v.field_or("stages", defaults.stages)?,
            branches: v.field_or("branches", defaults.branches)?,
            arity: v.field_or("arity", defaults.arity)?,
            depth: v.field_or("depth", defaults.depth)?,
            ccr: v.field_or("ccr", defaults.ccr)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_names() {
        for k in FamilyKind::ALL {
            assert_eq!(FamilyKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FamilyKind::parse("butterfly"), None);
    }

    #[test]
    fn every_kind_generates_a_valid_dag() {
        let cost = CostParams::tiny();
        for kind in FamilyKind::ALL {
            let fam = FamilySpec::new(kind);
            fam.validate().unwrap();
            let (dag, desc) = fam.generate_one(&cost, 11, 12);
            dag.validate()
                .unwrap_or_else(|e| panic!("{kind:?} ({desc}): {e}"));
            assert!(dag.num_tasks() >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic_in_both_seeds() {
        let cost = CostParams::tiny();
        let fam = FamilySpec {
            width: Dist::Uniform { min: 0.2, max: 0.8 },
            n: IntDist::Choice(vec![25, 50]),
            ccr: Dist::LogUniform { min: 0.5, max: 2.0 },
            ..FamilySpec::new(FamilyKind::Irregular)
        };
        let (a, da) = fam.generate_one(&cost, 5, 6);
        let (b, db) = fam.generate_one(&cost, 5, 6);
        assert_eq!(da, db);
        assert_eq!(a.num_tasks(), b.num_tasks());
        for (x, y) in a.edge_ids().zip(b.edge_ids()) {
            assert_eq!(a.edge(x).bytes.to_bits(), b.edge(y).bytes.to_bits());
        }
        let (_, dc) = fam.generate_one(&cost, 7, 6);
        assert_ne!(da, dc, "parameter seed moves the draws");
    }

    #[test]
    fn ccr_scales_edge_payloads() {
        let cost = CostParams::tiny();
        let base = FamilySpec::new(FamilyKind::Chain);
        let heavy = FamilySpec {
            ccr: Dist::Fixed(4.0),
            ..base.clone()
        };
        let (a, _) = base.generate_one(&cost, 3, 4);
        let (b, _) = heavy.generate_one(&cost, 3, 4);
        for (x, y) in a.edge_ids().zip(b.edge_ids()) {
            assert_eq!(b.edge(y).bytes, a.edge(x).bytes * 4.0);
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut fam = FamilySpec::new(FamilyKind::Fft);
        fam.k = IntDist::Fixed(6);
        assert!(fam.validate().unwrap_err().contains("power of two"));
        fam.k = IntDist::Range { min: 2, max: 16 };
        assert!(fam.validate().is_err(), "ranges cannot promise powers of 2");

        let mut fam = FamilySpec::new(FamilyKind::Layered);
        fam.width = Dist::Fixed(1.5);
        assert!(fam.validate().is_err());

        let mut fam = FamilySpec::new(FamilyKind::Strassen);
        fam.weight = 0.0;
        assert!(fam.validate().is_err());
    }

    #[test]
    fn tree_size_guard_trips() {
        let mut fam = FamilySpec::new(FamilyKind::InTree);
        fam.arity = IntDist::Fixed(16);
        fam.depth = IntDist::Fixed(8);
        assert!(fam.validate().unwrap_err().contains("million"));
        // The guard keys on the *max* arity the distribution allows: an
        // arity choice including 1 must not bypass it.
        fam.arity = IntDist::Choice(vec![1, 16]);
        assert!(fam.validate().unwrap_err().contains("million"));
        fam.arity = IntDist::Fixed(1);
        assert!(fam.validate().is_ok(), "pure chains are always small");
    }

    #[test]
    fn fork_join_size_guard_trips() {
        let mut fam = FamilySpec::new(FamilyKind::ForkJoin);
        fam.stages = IntDist::Fixed(1_000);
        fam.branches = IntDist::Fixed(10_000);
        assert!(fam.validate().unwrap_err().contains("million"));
        fam.branches = IntDist::Fixed(500);
        assert!(fam.validate().is_ok());
    }

    #[test]
    fn family_documents_round_trip() {
        let mut fam = FamilySpec::new(FamilyKind::Irregular);
        fam.count = Some(12);
        fam.width = Dist::Choice(vec![0.2, 0.8]);
        fam.jump = IntDist::Range { min: 1, max: 4 };
        let back = FamilySpec::deserialize(&fam.serialize()).unwrap();
        assert_eq!(back, fam);
        // Omitted fields default.
        let mut t = Value::table();
        t.insert("kind", "chain").insert("n", &25u32);
        let parsed = FamilySpec::deserialize(&t).unwrap();
        assert_eq!(parsed.n, IntDist::Fixed(25));
        assert_eq!(parsed.weight, 1.0);
    }

    #[test]
    fn misspelled_keys_are_rejected_not_defaulted() {
        let mut t = Value::table();
        t.insert("kind", "layered")
            .insert("widht", &Dist::Fixed(0.2)); // typo for `width`
        let err = FamilySpec::deserialize(&t).unwrap_err().to_string();
        assert!(err.contains("widht") && err.contains("width"), "{err}");
    }
}
