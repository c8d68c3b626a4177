//! Load balancing (§4.1.2).
//!
//! The rank barrier makes the slowest DPU of each rank the rank's finish
//! line, so the host minimizes the max-min gap with the classic LPT
//! (Longest Processing Time) greedy: sort items by decreasing workload and
//! repeatedly give the largest remaining item to the least-loaded bin. LPT
//! is a 4/3-approximation to makespan; the paper calls it "a simple and
//! well known heuristic ... fast to execute and a good approximation".
//!
//! Workload estimation follows eq. 6: `workload(m, n) = (m + n) × w`.

use nw_core::seq::PackedSeq;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// eq. 6 — the paper's workload estimate for one alignment.
pub fn workload(m: usize, n: usize, band: usize) -> u64 {
    ((m + n) as u64) * band as u64
}

/// eq.-6 workloads for a slice of packed pairs. Round grouping
/// ([`crate::dispatch::group_jobs`]) and intra-rank LPT
/// ([`crate::dispatch::plan_rank`]) both price jobs by [`workload`], so
/// "heavy" means the same thing at every planning level.
pub fn pair_workloads(pairs: &[(PackedSeq, PackedSeq)], band: usize) -> Vec<u64> {
    pairs
        .iter()
        .map(|(a, b)| workload(a.len(), b.len(), band))
        .collect()
}

/// LPT assignment of `workloads` into `bins`. Returns, per bin, the item
/// indices assigned to it (deterministic: ties broken by bin index).
pub fn lpt_assign(workloads: &[u64], bins: usize) -> Vec<Vec<usize>> {
    assert!(bins > 0, "need at least one bin");
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by_key(|&i| (Reverse(workloads[i]), i));
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..bins).map(|b| Reverse((0u64, b))).collect();
    let mut assignment = vec![Vec::new(); bins];
    for i in order {
        let Reverse((load, bin)) = heap.pop().expect("heap never empty");
        assignment[bin].push(i);
        heap.push(Reverse((load + workloads[i], bin)));
    }
    assignment
}

/// Naive round-robin assignment (the ablation baseline).
pub fn round_robin_assign(n_items: usize, bins: usize) -> Vec<Vec<usize>> {
    assert!(bins > 0, "need at least one bin");
    let mut assignment = vec![Vec::new(); bins];
    for i in 0..n_items {
        assignment[i % bins].push(i);
    }
    assignment
}

/// Per-bin total workloads for an assignment.
pub fn bin_loads(assignment: &[Vec<usize>], workloads: &[u64]) -> Vec<u64> {
    assignment
        .iter()
        .map(|items| items.iter().map(|&i| workloads[i]).sum())
        .collect()
}

/// `(max - min) / max` over bin loads — the balance gap the rank barrier
/// exposes (0 = perfect).
pub fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0);
    let min = loads.iter().copied().min().unwrap_or(0);
    if max == 0 {
        0.0
    } else {
        (max - min) as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_eq6() {
        assert_eq!(workload(1000, 1010, 128), 2010 * 128);
        assert_eq!(workload(0, 0, 128), 0);
    }

    #[test]
    fn lpt_covers_all_items_exactly_once() {
        let w: Vec<u64> = (0..100).map(|i| (i * 37 % 91) + 1).collect();
        let asg = lpt_assign(&w, 7);
        let mut seen = vec![false; w.len()];
        for bin in &asg {
            for &i in bin {
                assert!(!seen[i], "item {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_loads() {
        // Heavy items land on the same bin under round-robin (indices
        // congruent mod 8), which LPT avoids by construction.
        let w: Vec<u64> = (0..64)
            .map(|i| if i % 8 == 0 { 1000 } else { 50 + i })
            .collect();
        let lpt = bin_loads(&lpt_assign(&w, 8), &w);
        let rr = bin_loads(&round_robin_assign(w.len(), 8), &w);
        assert!(
            imbalance(&lpt) < imbalance(&rr),
            "LPT {} !< RR {}",
            imbalance(&lpt),
            imbalance(&rr)
        );
        assert!(imbalance(&lpt) < 0.15, "LPT imbalance {}", imbalance(&lpt));
    }

    #[test]
    fn lpt_is_optimal_for_equal_items() {
        let w = vec![10u64; 32];
        let loads = bin_loads(&lpt_assign(&w, 8), &w);
        assert!(loads.iter().all(|&l| l == 40));
        assert_eq!(imbalance(&loads), 0.0);
    }

    #[test]
    fn lpt_within_four_thirds_of_lower_bound() {
        // Classic LPT guarantee: makespan <= 4/3 OPT. Check against the
        // trivial lower bound max(mean, max_item) on random-ish loads.
        let w: Vec<u64> = (1..200u64).map(|i| (i * 7919) % 500 + 1).collect();
        for bins in [3usize, 8, 16] {
            let loads = bin_loads(&lpt_assign(&w, bins), &w);
            let makespan = *loads.iter().max().unwrap();
            let total: u64 = w.iter().sum();
            let lower = (total as f64 / bins as f64).max(*w.iter().max().unwrap() as f64);
            assert!(
                (makespan as f64) <= lower * 4.0 / 3.0 + 1.0,
                "bins {bins}: makespan {makespan} vs lower {lower}"
            );
        }
    }

    #[test]
    fn fewer_items_than_bins() {
        let w = vec![5u64, 7];
        let asg = lpt_assign(&w, 8);
        assert_eq!(asg.iter().filter(|b| !b.is_empty()).count(), 2);
        let loads = bin_loads(&asg, &w);
        assert_eq!(loads.iter().sum::<u64>(), 12);
    }

    #[test]
    fn deterministic_assignment() {
        let w: Vec<u64> = (0..50).map(|i| (i * 31) % 17 + 1).collect();
        assert_eq!(lpt_assign(&w, 5), lpt_assign(&w, 5));
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
        assert_eq!(imbalance(&[10, 10]), 0.0);
        assert!((imbalance(&[5, 10]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        lpt_assign(&[1], 0);
    }
}
