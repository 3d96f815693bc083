//! Sparse communication matrices for block → block redistributions.

use rats_platform::ProcSet;

use crate::block::{block_interval, block_owner_range};

/// One point-to-point transfer of a redistribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Sending processor.
    pub src: u32,
    /// Receiving processor.
    pub dst: u32,
    /// Payload in bytes.
    pub bytes: f64,
}

/// The communication matrix of one redistribution, stored sparsely.
///
/// A 1-D block → 1-D block redistribution is *banded*: sender rank `i`'s
/// interval intersects a contiguous run of receiver ranks, so the matrix has
/// at most `p + q − 1` non-zero entries — never `p·q`.
#[derive(Debug, Clone, Default)]
pub struct Redistribution {
    /// Network transfers (sender ≠ receiver), in sender-rank order.
    pub transfers: Vec<Transfer>,
    /// Bytes that stay on their processor (self communication): free.
    pub self_bytes: f64,
}

impl Redistribution {
    /// Total bytes crossing the network.
    pub fn network_bytes(&self) -> f64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Total bytes of the redistribution (network + local).
    pub fn total_bytes(&self) -> f64 {
        self.network_bytes() + self.self_bytes
    }

    /// `true` if no data crosses the network.
    pub fn is_free(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Renders the dense `p × q` matrix (including diagonal self entries)
    /// for the given sender/receiver sets — the paper's Table I layout.
    pub fn dense_matrix(&self, src: &ProcSet, dst: &ProcSet, total_bytes: f64) -> Vec<Vec<f64>> {
        let (p, q) = (src.len() as usize, dst.len() as usize);
        let mut m = vec![vec![0.0; q]; p];
        for t in &self.transfers {
            let i = src.rank_of(t.src).expect("transfer src in source set");
            let j = dst.rank_of(t.dst).expect("transfer dst in destination set");
            m[i][j] += t.bytes;
        }
        // Self bytes sit on the overlap of the diagonal blocks; recompute
        // them exactly so the dense view matches the sparse one.
        for (i, sp) in src.iter().enumerate() {
            if let Some(j) = dst.rank_of(sp) {
                let (slo, shi) = block_interval(total_bytes, src.len(), i as u32);
                let (dlo, dhi) = block_interval(total_bytes, dst.len(), j as u32);
                let overlap = (shi.min(dhi) - slo.max(dlo)).max(0.0);
                m[i][j] += overlap;
            }
        }
        m
    }
}

/// Computes the redistribution of `total_bytes` bytes from the (ordered)
/// processor set `src` to the (ordered) set `dst`.
///
/// Sender rank `i` owns `[i·m/p, (i+1)·m/p)`; receiver rank `j` needs
/// `[j·m/q, (j+1)·m/q)`; each non-empty intersection becomes a transfer.
/// Transfers whose sender and receiver are the *same physical processor*
/// are counted as `self_bytes` instead (zero cost).
///
/// # Panics
///
/// Panics if either set is empty or `total_bytes` is negative/non-finite.
pub fn redistribute(total_bytes: f64, src: &ProcSet, dst: &ProcSet) -> Redistribution {
    assert!(!src.is_empty() && !dst.is_empty(), "empty processor set");
    assert!(
        total_bytes.is_finite() && total_bytes >= 0.0,
        "data size must be finite and non-negative, got {total_bytes}"
    );
    let mut out = Redistribution::default();
    if total_bytes == 0.0 {
        return out;
    }
    let (p, q) = (src.len(), dst.len());
    // Ignore slivers below one millionth of a block (fp boundary noise).
    let eps = total_bytes / f64::from(p.max(q)) * 1e-6;
    for i in 0..p {
        let (slo, shi) = block_interval(total_bytes, p, i);
        let Some((j0, j1)) = block_owner_range(total_bytes, q, slo, shi) else {
            continue;
        };
        for j in j0..=j1 {
            let (dlo, dhi) = block_interval(total_bytes, q, j);
            let overlap = shi.min(dhi) - slo.max(dlo);
            if overlap <= eps {
                continue;
            }
            let (sp, dp) = (src.proc_at(i as usize), dst.proc_at(j as usize));
            if sp == dp {
                out.self_bytes += overlap;
            } else {
                out.transfers.push(Transfer {
                    src: sp,
                    dst: dp,
                    bytes: overlap,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The paper's Table I: 10 units, 4 disjoint senders → 5 receivers.
    #[test]
    fn paper_table1() {
        let src = ProcSet::from_range(0, 4);
        let dst = ProcSet::from_range(4, 5);
        let r = redistribute(10.0, &src, &dst);
        let m = r.dense_matrix(&src, &dst, 10.0);
        let expected = [
            [2.0, 0.5, 0.0, 0.0, 0.0],
            [0.0, 1.5, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.5, 0.0],
            [0.0, 0.0, 0.0, 0.5, 2.0],
        ];
        for (i, row) in expected.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert!(
                    (m[i][j] - want).abs() < 1e-9,
                    "matrix[{i}][{j}] = {}, want {want}",
                    m[i][j]
                );
            }
        }
        assert_eq!(r.self_bytes, 0.0);
        assert!((r.network_bytes() - 10.0).abs() < 1e-9);
        // Banded: p + q − 1 = 8 non-zeros.
        assert_eq!(r.transfers.len(), 8);
    }

    #[test]
    fn identical_sets_are_free() {
        let s = ProcSet::new(vec![3, 7, 11]);
        let r = redistribute(1e6, &s, &s.clone());
        assert!(r.is_free());
        assert!((r.self_bytes - 1e6).abs() < 1e-6);
    }

    #[test]
    fn same_members_different_order_still_move_data() {
        let a = ProcSet::new(vec![0, 1]);
        let b = ProcSet::new(vec![1, 0]);
        let r = redistribute(10.0, &a, &b);
        // Both halves swap owners: all 10 bytes cross the network.
        assert!((r.network_bytes() - 10.0).abs() < 1e-9);
        assert_eq!(r.self_bytes, 0.0);
    }

    #[test]
    fn partial_overlap_keeps_shared_bytes_local() {
        // src {0,1} → dst {0,1,2}: rank 0 keeps [0, 10/3) of its [0,5).
        let src = ProcSet::new(vec![0, 1]);
        let dst = ProcSet::new(vec![0, 1, 2]);
        let r = redistribute(10.0, &src, &dst);
        // Proc 0: keeps 10/3. Proc 1: sender interval [5,10), receiver rank 1
        // interval [10/3, 20/3) → overlap [5, 20/3) = 5/3 stays local.
        assert!((r.self_bytes - 5.0).abs() < 1e-9, "self = {}", r.self_bytes);
        assert!((r.network_bytes() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_no_transfers() {
        let s = ProcSet::from_range(0, 3);
        let d = ProcSet::from_range(5, 4);
        let r = redistribute(0.0, &s, &d);
        assert!(r.is_free());
        assert_eq!(r.total_bytes(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty processor set")]
    fn rejects_empty_sets() {
        redistribute(1.0, &ProcSet::empty(), &ProcSet::from_range(0, 1));
    }

    proptest! {
        /// Conservation: network + self bytes always equal the dataset size,
        /// for arbitrary (even overlapping, shuffled) processor sets.
        #[test]
        fn conservation(
            total in 1.0f64..1e9,
            p in 1u32..64,
            q in 1u32..64,
            overlap_seed in 0u64..1000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(overlap_seed);
            let mut all: Vec<u32> = (0..128).collect();
            all.shuffle(&mut rng);
            let src = ProcSet::new(all[..p as usize].to_vec());
            let mut rest = all.clone();
            rest.shuffle(&mut rng);
            let dst = ProcSet::new(rest[..q as usize].to_vec());
            let r = redistribute(total, &src, &dst);
            prop_assert!((r.total_bytes() - total).abs() < total * 1e-6,
                "total {} != {}", r.total_bytes(), total);
        }

        /// Bandedness: at most p + q − 1 network transfers.
        #[test]
        fn banded(total in 1.0f64..1e9, p in 1u32..64, q in 1u32..64) {
            let src = ProcSet::from_range(0, p);
            let dst = ProcSet::from_range(p, q);
            let r = redistribute(total, &src, &dst);
            prop_assert!(r.transfers.len() <= (p + q - 1) as usize);
        }

        /// Every transfer is positive and between member processors.
        #[test]
        fn transfers_are_sane(total in 1.0f64..1e9, p in 1u32..32, q in 1u32..32) {
            let src = ProcSet::from_range(0, p);
            let dst = ProcSet::from_range(4, q); // may overlap src
            let r = redistribute(total, &src, &dst);
            for t in &r.transfers {
                prop_assert!(t.bytes > 0.0);
                prop_assert!(t.src != t.dst);
                prop_assert!(src.contains(t.src));
                prop_assert!(dst.contains(t.dst));
            }
        }
    }
}
