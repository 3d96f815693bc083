//! A minimal line-oriented text format for task graphs.
//!
//! The format is meant for fixtures, interchange with external tools and
//! reproducible bug reports:
//!
//! ```text
//! # comments and blank lines are ignored
//! task <name> <m_elements> <ops_per_element> <alpha>
//! edge <src_index> <dst_index> <bytes>
//! ```
//!
//! Tasks are numbered by order of appearance (matching [`TaskId::index`]).

use std::fmt::Write as _;

use rats_model::TaskCost;

use crate::graph::TaskGraph;
use crate::ids::TaskId;

/// Errors produced by [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph to the text format. Round-trips with [`from_text`].
pub fn to_text(g: &TaskGraph) -> String {
    let mut out = String::with_capacity(64 * (g.num_tasks() + g.num_edges()));
    let _ = writeln!(
        out,
        "# rats task graph: {} tasks, {} edges",
        g.num_tasks(),
        g.num_edges()
    );
    for t in g.task_ids() {
        let node = g.task(t);
        let _ = writeln!(
            out,
            "task {} {} {} {}",
            node.name.replace(char::is_whitespace, "_"),
            node.cost.m_elements(),
            node.cost.ops_per_element(),
            node.cost.alpha(),
        );
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let _ = writeln!(
            out,
            "edge {} {} {}",
            edge.src.index(),
            edge.dst.index(),
            edge.bytes
        );
    }
    out
}

/// Parses the text format produced by [`to_text`]. A graph whose edges close
/// a cycle is rejected (reported at the last line, where the graph is
/// complete), so every parsed graph can be scheduled.
pub fn from_text(text: &str) -> Result<TaskGraph, ParseError> {
    let mut g = TaskGraph::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first().copied() {
            Some("task") => {
                if fields.len() != 5 {
                    return Err(err(format!(
                        "task needs 4 fields (name m a alpha), got {}",
                        fields.len() - 1
                    )));
                }
                let m: u64 = fields[2].parse().map_err(|e| err(format!("bad m: {e}")))?;
                let a: f64 = fields[3]
                    .parse()
                    .map_err(|e| err(format!("bad ops/element: {e}")))?;
                let alpha: f64 = fields[4]
                    .parse()
                    .map_err(|e| err(format!("bad alpha: {e}")))?;
                if !(0.0..=1.0).contains(&alpha) || !a.is_finite() || a < 0.0 {
                    return Err(err("cost parameters out of range".into()));
                }
                g.add_task(fields[1], TaskCost::new(m, a, alpha));
            }
            Some("edge") => {
                if fields.len() != 4 {
                    return Err(err(format!(
                        "edge needs 3 fields (src dst bytes), got {}",
                        fields.len() - 1
                    )));
                }
                let src: usize = fields[1]
                    .parse()
                    .map_err(|e| err(format!("bad src: {e}")))?;
                let dst: usize = fields[2]
                    .parse()
                    .map_err(|e| err(format!("bad dst: {e}")))?;
                let bytes: f64 = fields[3]
                    .parse()
                    .map_err(|e| err(format!("bad bytes: {e}")))?;
                let n = g.num_tasks();
                if src >= n || dst >= n {
                    return Err(err(format!(
                        "edge {src}->{dst} references unknown task (have {n})"
                    )));
                }
                if src == dst || !bytes.is_finite() || bytes < 0.0 {
                    return Err(err("invalid edge".into()));
                }
                g.add_edge(TaskId::from_index(src), TaskId::from_index(dst), bytes);
            }
            Some(k) => return Err(err(format!("unknown record kind {k:?}"))),
            None => unreachable!("blank lines were skipped"),
        }
    }
    if let Err(e) = g.topo_order_cached() {
        return Err(ParseError {
            line: text.lines().count(),
            message: e.to_string(),
        });
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("load data", TaskCost::new(4_000_000, 64.0, 0.0));
        let b = g.add_task("solve", TaskCost::new(121_000_000, 512.0, 0.25));
        g.add_edge(a, b, 3.2e7);
        g
    }

    #[test]
    fn round_trip_sample() {
        let g = sample();
        let text = to_text(&g);
        let h = from_text(&text).unwrap();
        assert_eq!(h.num_tasks(), g.num_tasks());
        assert_eq!(h.num_edges(), g.num_edges());
        for (x, y) in g.task_ids().zip(h.task_ids()) {
            assert_eq!(g.task(x).cost, h.task(y).cost);
        }
        for (x, y) in g.edge_ids().zip(h.edge_ids()) {
            assert_eq!(g.edge(x).bytes, h.edge(y).bytes);
        }
    }

    #[test]
    fn whitespace_in_names_is_preserved_as_underscores() {
        let text = to_text(&sample());
        assert!(text.contains("task load_data"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = from_text("# hi\n\n  \ntask t 1 1 0\n").unwrap();
        assert_eq!(g.num_tasks(), 1);
    }

    #[test]
    fn rejects_unknown_record() {
        let e = from_text("node x").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown record"));
    }

    #[test]
    fn rejects_dangling_edge() {
        let e = from_text("task t 1 1 0\nedge 0 5 10").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown task"));
    }

    #[test]
    fn rejects_cycle() {
        let e = from_text("task a 1 1 0\ntask b 1 1 0\nedge 0 1 8\nedge 1 0 8\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("cycle"), "{e}");
        assert_eq!(
            from_text("").unwrap().num_tasks(),
            0,
            "empty graphs still parse"
        );
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert!(from_text("task t xyz 1 0").is_err());
        assert!(from_text("task t 1 1 2.0").is_err(), "alpha out of range");
    }

    proptest! {
        /// Arbitrary generated DAG-ish structures survive the round trip.
        #[test]
        fn round_trip_random(n in 1usize..30, extra_edges in 0usize..60, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = TaskGraph::new();
            for i in 0..n {
                g.add_task(
                    format!("t{i}"),
                    TaskCost::new(
                        rng.random_range(1..1_000_000u64),
                        rng.random_range(1.0..512.0),
                        rng.random_range(0.0..=0.25),
                    ),
                );
            }
            for _ in 0..extra_edges {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                if a < b {
                    g.add_edge(
                        TaskId::from_index(a),
                        TaskId::from_index(b),
                        rng.random_range(0.0..1e9),
                    );
                }
            }
            let h = from_text(&to_text(&g)).unwrap();
            prop_assert_eq!(h.num_tasks(), g.num_tasks());
            prop_assert_eq!(h.num_edges(), g.num_edges());
            for (x, y) in g.edge_ids().zip(h.edge_ids()) {
                prop_assert_eq!(g.edge(x).src, h.edge(y).src);
                prop_assert_eq!(g.edge(x).dst, h.edge(y).dst);
                prop_assert!((g.edge(x).bytes - h.edge(y).bytes).abs() < 1e-9 * g.edge(x).bytes.max(1.0));
            }
        }
    }
}
