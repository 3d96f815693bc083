//! Declarative cluster descriptions and the paper's Grid'5000 presets.

/// Latency/bandwidth pair describing one kind of network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in **bytes** per second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// The paper's gigabit switched interconnect: 100 µs latency, 1 Gb/s
    /// (= 125 MB/s) bandwidth.
    pub const fn gigabit() -> Self {
        Self {
            latency_s: 100e-6,
            bandwidth_bps: 125e6,
        }
    }

    /// Positive, finite bandwidth and non-negative, finite latency.
    fn is_valid(&self) -> bool {
        self.bandwidth_bps > 0.0
            && self.bandwidth_bps.is_finite()
            && self.latency_s >= 0.0
            && self.latency_s.is_finite()
    }
}

/// Interconnect layout.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// All nodes connected to a single switch.
    Flat,
    /// Nodes grouped in cabinets; each cabinet switch is connected to a
    /// top-level switch through an `uplink`.
    Hierarchical {
        /// Number of cabinets.
        cabinets: u32,
        /// Nodes per cabinet (the last cabinet absorbs any remainder).
        nodes_per_cabinet: u32,
        /// Cabinet-to-top-switch link.
        uplink: LinkSpec,
    },
    /// Hub-and-spoke: every node's private link feeds one central hub whose
    /// backplane is itself a shared, finite resource — every remote flow
    /// crosses `src spoke → hub → dst spoke`. This is the star platform of
    /// the redistribution-strategy literature (arXiv:cs/0610131); an
    /// undersized hub serializes cross-cluster redistributions the way a
    /// cabinet uplink does, but for *all* traffic.
    Star {
        /// The central hub resource shared by every flow.
        hub: LinkSpec,
    },
    /// A single shared medium (classic bus Ethernet): every remote flow
    /// crosses the one `bus` link and nothing else, so all transfers in
    /// flight contend for the same capacity and pay the same latency.
    Bus {
        /// The shared medium.
        bus: LinkSpec,
    },
}

/// A complete homogeneous-cluster description (paper, Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name.
    pub name: String,
    /// Number of single-core compute nodes.
    pub num_procs: u32,
    /// Node speed in GFlop/s (HP Linpack over ACML, per the paper).
    pub gflops: f64,
    /// Private link of every node.
    pub node_link: LinkSpec,
    /// Interconnect layout.
    pub topology: TopologySpec,
    /// Maximal TCP window size in bytes, for `β' = min(β, Wmax/RTT)`.
    pub wmax_bytes: f64,
}

/// Default maximal TCP window size (64 KiB — the Linux default of the
/// SimGrid v3.3 era the paper simulated with).
pub const DEFAULT_WMAX_BYTES: f64 = 65536.0;

impl ClusterSpec {
    /// A flat gigabit cluster with `num_procs` nodes of `gflops` GFlop/s.
    pub fn flat(name: impl Into<String>, num_procs: u32, gflops: f64) -> Self {
        Self {
            name: name.into(),
            num_procs,
            gflops,
            node_link: LinkSpec::gigabit(),
            topology: TopologySpec::Flat,
            wmax_bytes: DEFAULT_WMAX_BYTES,
        }
    }

    /// A star platform: `num_procs` nodes of `gflops` GFlop/s, gigabit
    /// spokes, the given central hub.
    pub fn star(name: impl Into<String>, num_procs: u32, gflops: f64, hub: LinkSpec) -> Self {
        Self {
            name: name.into(),
            num_procs,
            gflops,
            node_link: LinkSpec::gigabit(),
            topology: TopologySpec::Star { hub },
            wmax_bytes: DEFAULT_WMAX_BYTES,
        }
    }

    /// A bus platform: `num_procs` nodes of `gflops` GFlop/s sharing one
    /// medium.
    pub fn bus(name: impl Into<String>, num_procs: u32, gflops: f64, bus: LinkSpec) -> Self {
        Self {
            name: name.into(),
            num_procs,
            gflops,
            node_link: LinkSpec::gigabit(),
            topology: TopologySpec::Bus { bus },
            wmax_bytes: DEFAULT_WMAX_BYTES,
        }
    }

    /// The `chti` cluster (Lille): 20 processors at 4.311 GFlop/s, flat.
    pub fn chti() -> Self {
        Self::flat("chti", 20, 4.311)
    }

    /// The `grillon` cluster (Nancy): 47 processors at 3.379 GFlop/s, flat.
    pub fn grillon() -> Self {
        Self::flat("grillon", 47, 3.379)
    }

    /// The `grelon` cluster (Nancy): 120 processors at 3.185 GFlop/s,
    /// divided into five cabinets of 24 nodes each (hierarchical network).
    pub fn grelon() -> Self {
        Self {
            name: "grelon".into(),
            num_procs: 120,
            gflops: 3.185,
            node_link: LinkSpec::gigabit(),
            topology: TopologySpec::Hierarchical {
                cabinets: 5,
                nodes_per_cabinet: 24,
                uplink: LinkSpec::gigabit(),
            },
            wmax_bytes: DEFAULT_WMAX_BYTES,
        }
    }

    /// The three clusters of the paper's evaluation, in publication order.
    pub fn paper_clusters() -> Vec<Self> {
        vec![Self::chti(), Self::grillon(), Self::grelon()]
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any quantity is non-positive or the hierarchical layout
    /// cannot hold `num_procs` nodes.
    pub fn validate(&self) {
        assert!(self.num_procs > 0, "cluster must have at least one node");
        assert!(
            self.gflops > 0.0 && self.gflops.is_finite(),
            "node speed must be positive and finite"
        );
        assert!(
            self.node_link.is_valid(),
            "node link must have positive bandwidth and non-negative latency, both finite"
        );
        assert!(
            self.wmax_bytes > 0.0 && self.wmax_bytes.is_finite(),
            "TCP window must be positive and finite"
        );
        match &self.topology {
            TopologySpec::Flat => {}
            TopologySpec::Hierarchical {
                cabinets,
                nodes_per_cabinet,
                uplink,
            } => {
                assert!(*cabinets > 0 && *nodes_per_cabinet > 0, "empty cabinets");
                assert!(
                    cabinets * nodes_per_cabinet >= self.num_procs,
                    "cabinets ({cabinets} × {nodes_per_cabinet}) cannot hold {} nodes",
                    self.num_procs
                );
                assert!(
                    uplink.is_valid(),
                    "uplink must have positive bandwidth and non-negative latency, both finite"
                );
            }
            TopologySpec::Star { hub } => {
                assert!(
                    hub.is_valid(),
                    "hub must have positive bandwidth and non-negative latency, both finite"
                );
            }
            TopologySpec::Bus { bus } => {
                assert!(
                    bus.is_valid(),
                    "bus must have positive bandwidth and non-negative latency, both finite"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clusters_are_three() {
        let cs = ClusterSpec::paper_clusters();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].name, "chti");
        assert_eq!(cs[1].name, "grillon");
        assert_eq!(cs[2].name, "grelon");
        for c in &cs {
            c.validate();
        }
    }

    #[test]
    fn grelon_cabinets_hold_all_nodes() {
        let g = ClusterSpec::grelon();
        if let TopologySpec::Hierarchical {
            cabinets,
            nodes_per_cabinet,
            ..
        } = g.topology
        {
            assert_eq!(cabinets * nodes_per_cabinet, 120);
        } else {
            panic!("grelon must be hierarchical");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_cluster() {
        ClusterSpec::flat("x", 0, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "both finite")]
    fn rejects_infinite_latency() {
        let mut s = ClusterSpec::grillon();
        s.node_link.latency_s = f64::INFINITY;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "both finite")]
    fn rejects_infinite_hub_bandwidth() {
        let hub = LinkSpec {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        };
        ClusterSpec::star("s", 4, 1.0, hub).validate();
    }

    #[test]
    #[should_panic(expected = "TCP window must be positive and finite")]
    fn rejects_infinite_window() {
        let mut s = ClusterSpec::grillon();
        s.wmax_bytes = f64::INFINITY;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_overfull_cabinets() {
        let mut s = ClusterSpec::grelon();
        s.num_procs = 200;
        s.validate();
    }
}
