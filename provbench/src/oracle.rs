//! Independent answer oracles: plain graph algorithms that share no code
//! with the engine (no grounding, no semirings, no circuits). Every
//! workload checks its answers against these off the timed path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use graphgen::LabeledDigraph;

/// Hop distances from every node (`d[s][s] = 0`).
pub fn all_pairs_hops(g: &LabeledDigraph) -> Vec<Vec<Option<u64>>> {
    (0..g.num_nodes() as u32)
        .map(|s| g.bfs_distances(s))
        .collect()
}

/// The tropical value of `T(s, t)` under unit weights for transitive
/// closure: the fewest edges on a non-empty path from `s` to `t`. For
/// `s != t` that is the hop distance; for `s == t` it is the shortest
/// cycle through `s`, i.e. one edge `u -> s` after a path `s -> u`.
pub fn tc_unit_value(
    hops: &[Vec<Option<u64>>],
    in_edges: &[Vec<u32>],
    s: usize,
    t: usize,
) -> Option<u64> {
    if s != t {
        return hops[s][t];
    }
    in_edges[t]
        .iter()
        .filter_map(|&u| hops[s][u as usize].map(|d| d + 1))
        .min()
}

/// In-neighbours of every node.
pub fn in_edges(g: &LabeledDigraph) -> Vec<Vec<u32>> {
    let mut ins = vec![Vec::new(); g.num_nodes()];
    for &(u, v, _) in g.edges() {
        ins[v as usize].push(u);
    }
    ins
}

/// Dijkstra from `src` with edge weights `w[edge index]`; `d[src] = 0`.
pub fn dijkstra(g: &LabeledDigraph, w: &[u64], src: u32) -> Vec<Option<u64>> {
    let mut out: Vec<Vec<(u32, u64)>> = vec![Vec::new(); g.num_nodes()];
    for (i, &(u, v, _)) in g.edges().iter().enumerate() {
        out[u as usize].push((v, w[i]));
    }
    let mut dist: Vec<Option<u64>> = vec![None; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = Some(0);
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u as usize].is_some_and(|best| d > best) {
            continue;
        }
        for &(v, wt) in &out[u as usize] {
            let nd = d + wt;
            if dist[v as usize].is_none_or(|best| nd < best) {
                dist[v as usize] = Some(nd);
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Least weight of a walk of exactly `k` edges from `src` to each node
/// (min-plus dynamic programming over walk length).
pub fn exact_k_walk(g: &LabeledDigraph, w: &[u64], src: u32, k: usize) -> Vec<Option<u64>> {
    let mut cur: Vec<Option<u64>> = vec![None; g.num_nodes()];
    cur[src as usize] = Some(0);
    for _ in 0..k {
        let mut next: Vec<Option<u64>> = vec![None; g.num_nodes()];
        for (i, &(u, v, _)) in g.edges().iter().enumerate() {
            if let Some(d) = cur[u as usize] {
                let nd = d + w[i];
                if next[v as usize].is_none_or(|best| nd < best) {
                    next[v as usize] = Some(nd);
                }
            }
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> LabeledDigraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
        let mut g = LabeledDigraph::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v, "E");
        }
        g
    }

    #[test]
    fn unit_tc_counts_cycles_for_self_pairs() {
        let g = diamond();
        let hops = all_pairs_hops(&g);
        let ins = in_edges(&g);
        assert_eq!(tc_unit_value(&hops, &ins, 0, 3), Some(2));
        assert_eq!(tc_unit_value(&hops, &ins, 0, 0), Some(3));
        assert_eq!(tc_unit_value(&hops, &ins, 3, 1), Some(2));
    }

    #[test]
    fn dijkstra_and_walks_use_weights() {
        let g = diamond();
        let w = [1, 1, 5, 5, 2];
        assert_eq!(dijkstra(&g, &w, 0)[3], Some(2));
        assert_eq!(exact_k_walk(&g, &w, 0, 2)[3], Some(2));
        assert_eq!(exact_k_walk(&g, &w, 0, 3)[0], Some(4));
        assert_eq!(exact_k_walk(&g, &w, 0, 3)[3], None);
    }
}
