//! Cluster-topology generators: named platforms from declarative sweeps.
//!
//! A [`TopologyGenSpec`] emits one or more named [`ClusterSpec`]s — flat
//! switched clusters, hierarchical cabinet layouts, star platforms
//! (hub-and-spoke, after arXiv:cs/0610131) and shared-medium buses — over a
//! grid of processor counts and node speeds. A sweep with several `procs` or
//! `gflops` values produces one cluster per grid cell
//! (`<name>-p<procs>x<gflops>`), which is how a campaign expresses
//! *heterogeneous-speed* platform populations: every generated cluster is a
//! first-class name usable anywhere a paper cluster name is (spec `clusters`
//! lists, shard records, figure renderers).
//!
//! Generation is a pure function of the spec — no randomness — so two
//! processes parsing the same document always materialize byte-identical
//! platforms.

use rats_platform::{ClusterSpec, LinkSpec, TopologySpec};
use serde::{Deserialize, Serialize, Value};

/// Interconnect layouts a generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Homogeneous switched cluster (one big switch).
    Flat,
    /// Cabinets with uplinks to a top-level switch.
    Hierarchical,
    /// Hub-and-spoke star platform.
    Star,
    /// One shared medium.
    Bus,
}

impl TopoKind {
    /// Every kind, in document order.
    pub const ALL: [TopoKind; 4] = [
        TopoKind::Flat,
        TopoKind::Hierarchical,
        TopoKind::Star,
        TopoKind::Bus,
    ];

    /// The document spelling (`kind = "..."` in a topology table).
    pub fn as_str(self) -> &'static str {
        match self {
            TopoKind::Flat => "flat",
            TopoKind::Hierarchical => "hierarchical",
            TopoKind::Star => "star",
            TopoKind::Bus => "bus",
        }
    }

    /// Parses the document spelling (inverse of [`Self::as_str`]).
    pub fn parse(text: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == text)
    }
}

/// Default node-link latency (the paper's gigabit value), in microseconds.
const DEFAULT_LATENCY_US: f64 = 100.0;
/// Default node-link bandwidth (1 Gb/s), in MB/s.
const DEFAULT_BANDWIDTH_MBPS: f64 = 125.0;
/// Default TCP window, in KiB.
const DEFAULT_WMAX_KIB: f64 = 64.0;

/// One named cluster generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyGenSpec {
    /// Base name; sweeps append `-p<procs>x<gflops>` per grid cell.
    pub name: String,
    /// Interconnect layout.
    pub kind: TopoKind,
    /// Processor-count sweep axis (each value emits clusters).
    pub procs: Vec<u32>,
    /// Node-speed sweep axis in GFlop/s.
    pub gflops: Vec<f64>,
    /// Node-link latency in µs.
    pub latency_us: f64,
    /// Node-link bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Maximal TCP window in KiB (`β' = min(β, Wmax/RTT)`).
    pub wmax_kib: f64,
    /// Number of cabinets (hierarchical only).
    pub cabinets: u32,
    /// The shared resource — cabinet uplink, star hub or bus medium —
    /// bandwidth in MB/s (defaults to the node-link bandwidth).
    pub backbone_mbps: Option<f64>,
    /// Shared-resource latency in µs (defaults to the node-link latency).
    pub backbone_latency_us: Option<f64>,
}

impl TopologyGenSpec {
    /// A flat generator named `name` with paper-like defaults.
    pub fn new(name: impl Into<String>, kind: TopoKind) -> Self {
        Self {
            name: name.into(),
            kind,
            procs: vec![16],
            gflops: vec![4.0],
            latency_us: DEFAULT_LATENCY_US,
            bandwidth_mbps: DEFAULT_BANDWIDTH_MBPS,
            wmax_kib: DEFAULT_WMAX_KIB,
            cabinets: 4,
            backbone_mbps: None,
            backbone_latency_us: None,
        }
    }

    /// Checks the generator is well formed.
    pub fn validate(&self) -> Result<(), String> {
        let scoped = |e: String| format!("topology `{}`: {e}", self.name);
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "topology name `{}` must be non-empty and use only [A-Za-z0-9_-]",
                self.name
            ));
        }
        if self.procs.is_empty() || self.gflops.is_empty() {
            return Err(scoped("`procs` and `gflops` sweeps cannot be empty".into()));
        }
        if self.procs.contains(&0) {
            return Err(scoped("`procs` values must be positive".into()));
        }
        if self.gflops.iter().any(|&g| g <= 0.0 || !g.is_finite()) {
            return Err(scoped("`gflops` values must be positive and finite".into()));
        }
        if self.latency_us < 0.0 || self.bandwidth_mbps <= 0.0 || self.wmax_kib <= 0.0 {
            return Err(scoped(
                "latency must be ≥ 0, bandwidth and wmax positive".into(),
            ));
        }
        if self.kind == TopoKind::Hierarchical && self.cabinets == 0 {
            return Err(scoped("`cabinets` must be positive".into()));
        }
        if self.backbone_mbps.is_some_and(|b| b <= 0.0) {
            return Err(scoped("`backbone_mbps` must be positive".into()));
        }
        if self.backbone_latency_us.is_some_and(|l| l < 0.0) {
            return Err(scoped("`backbone_latency_us` must be ≥ 0".into()));
        }
        // Checked on the generated values, so NaN and a finite input that
        // overflows its unit conversion are caught as well.
        let (node, backbone) = (self.node_link(), self.backbone_link());
        let finite = [
            node.latency_s,
            node.bandwidth_bps,
            backbone.latency_s,
            backbone.bandwidth_bps,
            self.wmax_kib * 1024.0,
        ];
        if !finite.iter().all(|x| x.is_finite()) {
            return Err(scoped(
                "`latency_us`, `bandwidth_mbps`, `wmax_kib`, `backbone_mbps` and \
                 `backbone_latency_us` must be finite"
                    .into(),
            ));
        }
        Ok(())
    }

    fn node_link(&self) -> LinkSpec {
        LinkSpec {
            latency_s: self.latency_us * 1e-6,
            bandwidth_bps: self.bandwidth_mbps * 1e6,
        }
    }

    fn backbone_link(&self) -> LinkSpec {
        LinkSpec {
            latency_s: self.backbone_latency_us.unwrap_or(self.latency_us) * 1e-6,
            bandwidth_bps: self.backbone_mbps.unwrap_or(self.bandwidth_mbps) * 1e6,
        }
    }

    /// The names this generator emits, in sweep order (`procs` outer,
    /// `gflops` inner). A 1×1 sweep keeps the bare name.
    pub fn cluster_names(&self) -> Vec<String> {
        if self.procs.len() * self.gflops.len() == 1 {
            return vec![self.name.clone()];
        }
        let mut out = Vec::with_capacity(self.procs.len() * self.gflops.len());
        for &p in &self.procs {
            for &g in &self.gflops {
                out.push(format!("{}-p{p}x{g}", self.name));
            }
        }
        out
    }

    /// Materializes every cluster of the sweep, named per
    /// [`Self::cluster_names`].
    pub fn generate(&self) -> Vec<ClusterSpec> {
        let names = self.cluster_names();
        let mut out = Vec::with_capacity(names.len());
        let mut names = names.into_iter();
        for &p in &self.procs {
            for &g in &self.gflops {
                let name = names.next().expect("names cover the sweep grid");
                let topology = match self.kind {
                    TopoKind::Flat => TopologySpec::Flat,
                    TopoKind::Hierarchical => TopologySpec::Hierarchical {
                        cabinets: self.cabinets.min(p),
                        nodes_per_cabinet: p.div_ceil(self.cabinets.min(p)),
                        uplink: self.backbone_link(),
                    },
                    TopoKind::Star => TopologySpec::Star {
                        hub: self.backbone_link(),
                    },
                    TopoKind::Bus => TopologySpec::Bus {
                        bus: self.backbone_link(),
                    },
                };
                out.push(ClusterSpec {
                    name,
                    num_procs: p,
                    gflops: g,
                    node_link: self.node_link(),
                    topology,
                    wmax_bytes: self.wmax_kib * 1024.0,
                });
            }
        }
        out
    }
}

impl Serialize for TopologyGenSpec {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("name", &self.name)
            .insert("kind", self.kind.as_str())
            .insert("procs", &self.procs)
            .insert("gflops", &self.gflops)
            .insert("latency_us", &self.latency_us)
            .insert("bandwidth_mbps", &self.bandwidth_mbps)
            .insert("wmax_kib", &self.wmax_kib)
            .insert("cabinets", &self.cabinets);
        if let Some(b) = self.backbone_mbps {
            t.insert("backbone_mbps", &b);
        }
        if let Some(l) = self.backbone_latency_us {
            t.insert("backbone_latency_us", &l);
        }
        t
    }
}

/// Reads a sweep axis that may be written as a scalar (`procs = 16`) or an
/// array (`procs = [8, 16]`); absent keys take the default.
fn one_or_many<T: Deserialize>(
    v: &Value,
    key: &str,
    default: Vec<T>,
) -> Result<Vec<T>, serde::Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Array(_)) => v.field(key),
        Some(item) => {
            Ok(vec![T::deserialize(item).map_err(|e| {
                serde::Error::new(format!("field `{key}`: {e}"))
            })?])
        }
    }
}

/// The keys a topology table accepts (everything [`TopologyGenSpec`]
/// serializes).
const TOPOLOGY_KEYS: [&str; 10] = [
    "name",
    "kind",
    "procs",
    "gflops",
    "latency_us",
    "bandwidth_mbps",
    "wmax_kib",
    "cabinets",
    "backbone_mbps",
    "backbone_latency_us",
];

impl Deserialize for TopologyGenSpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        crate::family::reject_unknown_keys(v, "topology", &TOPOLOGY_KEYS)?;
        let kind_name: String = v.field("kind")?;
        let kind = TopoKind::parse(&kind_name).ok_or_else(|| {
            let known: Vec<&str> = TopoKind::ALL.iter().map(|k| k.as_str()).collect();
            serde::Error::new(format!(
                "unknown topology kind `{kind_name}` (expected one of: {})",
                known.join(", ")
            ))
        })?;
        let defaults = TopologyGenSpec::new(String::new(), kind);
        Ok(Self {
            name: v.field("name")?,
            kind,
            procs: one_or_many(v, "procs", defaults.procs)?,
            gflops: one_or_many(v, "gflops", defaults.gflops)?,
            latency_us: v.field_or("latency_us", defaults.latency_us)?,
            bandwidth_mbps: v.field_or("bandwidth_mbps", defaults.bandwidth_mbps)?,
            wmax_kib: v.field_or("wmax_kib", defaults.wmax_kib)?,
            cabinets: v.field_or("cabinets", defaults.cabinets)?,
            backbone_mbps: v.field_or("backbone_mbps", None)?,
            backbone_latency_us: v.field_or("backbone_latency_us", None)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_platform::Platform;

    #[test]
    fn single_cell_sweeps_keep_the_bare_name() {
        let t = TopologyGenSpec::new("edge", TopoKind::Star);
        assert_eq!(t.cluster_names(), vec!["edge".to_string()]);
        let clusters = t.generate();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].name, "edge");
        clusters[0].validate();
        let p = Platform::from_spec(&clusters[0]);
        assert!(p.hub_link().is_some());
    }

    #[test]
    fn sweeps_emit_the_full_grid() {
        let mut t = TopologyGenSpec::new("het", TopoKind::Flat);
        t.procs = vec![8, 32];
        t.gflops = vec![2.0, 4.0, 8.0];
        let clusters = t.generate();
        assert_eq!(clusters.len(), 6);
        assert_eq!(clusters[0].name, "het-p8x2");
        assert_eq!(clusters[5].name, "het-p32x8");
        let speeds: Vec<f64> = clusters.iter().map(|c| c.gflops).collect();
        assert_eq!(speeds, vec![2.0, 4.0, 8.0, 2.0, 4.0, 8.0]);
        for c in &clusters {
            c.validate();
            Platform::from_spec(c);
        }
    }

    #[test]
    fn hierarchical_cabinets_cover_all_procs() {
        let mut t = TopologyGenSpec::new("cab", TopoKind::Hierarchical);
        t.procs = vec![10, 100];
        t.cabinets = 4;
        for c in t.generate() {
            c.validate();
            let p = Platform::from_spec(&c);
            assert!(p.is_hierarchical());
        }
    }

    #[test]
    fn bus_backbone_defaults_to_node_link() {
        let mut t = TopologyGenSpec::new("ether", TopoKind::Bus);
        t.bandwidth_mbps = 12.5;
        let c = &t.generate()[0];
        match &c.topology {
            TopologySpec::Bus { bus } => assert_eq!(bus.bandwidth_bps, 12.5e6),
            other => panic!("expected a bus, got {other:?}"),
        }
        t.backbone_mbps = Some(1.25);
        let c = &t.generate()[0];
        match &c.topology {
            TopologySpec::Bus { bus } => assert_eq!(bus.bandwidth_bps, 1.25e6),
            other => panic!("expected a bus, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_bad_generators() {
        let mut t = TopologyGenSpec::new("x y", TopoKind::Flat);
        assert!(t.validate().is_err(), "whitespace in names");
        t.name = "ok".into();
        t.procs = vec![];
        assert!(t.validate().is_err());
        t.procs = vec![0];
        assert!(t.validate().is_err());
        t.procs = vec![4];
        t.gflops = vec![-1.0];
        assert!(t.validate().is_err());
        t.gflops = vec![2.0];
        assert!(t.validate().is_ok());
        t.backbone_mbps = Some(0.0);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_link_parameters() {
        type Set = fn(&mut TopologyGenSpec, f64);
        let fields: [(&str, Set); 5] = [
            ("latency_us", |t, v| t.latency_us = v),
            ("bandwidth_mbps", |t, v| t.bandwidth_mbps = v),
            ("wmax_kib", |t, v| t.wmax_kib = v),
            ("backbone_mbps", |t, v| t.backbone_mbps = Some(v)),
            ("backbone_latency_us", |t, v| {
                t.backbone_latency_us = Some(v)
            }),
        ];
        for kind in TopoKind::ALL {
            for (field, set) in fields {
                for v in [f64::INFINITY, f64::NAN] {
                    let mut t = TopologyGenSpec::new("t", kind);
                    set(&mut t, v);
                    assert!(
                        t.validate().is_err(),
                        "{} `{field}` = {v} validated",
                        kind.as_str()
                    );
                }
            }
        }
        // Finite, but ∞ once converted to bytes/s.
        let mut t = TopologyGenSpec::new("t", TopoKind::Flat);
        t.bandwidth_mbps = 1e305;
        assert!(t.validate().is_err());
    }

    #[test]
    fn documents_round_trip() {
        let mut t = TopologyGenSpec::new("star9", TopoKind::Star);
        t.procs = vec![9, 18];
        t.backbone_mbps = Some(250.0);
        t.backbone_latency_us = Some(10.0);
        let back = TopologyGenSpec::deserialize(&t.serialize()).unwrap();
        assert_eq!(back, t);
        // Minimal document: name + kind.
        let mut v = Value::table();
        v.insert("name", "b").insert("kind", "bus");
        let parsed = TopologyGenSpec::deserialize(&v).unwrap();
        assert_eq!(parsed.kind, TopoKind::Bus);
        assert_eq!(parsed.procs, vec![16]);
        // Scalar sweep axes are accepted as one-element sweeps.
        v.insert("procs", &9u32).insert("gflops", &2.5f64);
        let parsed = TopologyGenSpec::deserialize(&v).unwrap();
        assert_eq!(parsed.procs, vec![9]);
        assert_eq!(parsed.gflops, vec![2.5]);
        // A misspelled key is an error, not a silent default.
        v.insert("bandwith_mbps", &99.0f64);
        let err = TopologyGenSpec::deserialize(&v).unwrap_err().to_string();
        assert!(err.contains("bandwith_mbps"), "{err}");
    }
}
