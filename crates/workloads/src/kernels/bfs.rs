//! `bfs` — level-synchronous breadth-first search over a CSR graph
//! (Rodinia's BFS, Table II: Graph Algorithm).
//!
//! Levels are expanded one frontier at a time for a fixed number of
//! rounds (the graph's diameter bound), exactly like Rodinia's
//! iteration-to-fixpoint structure.  Prints a weighted level checksum
//! and the number of unreached nodes.

use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::inst::ICmpPred;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

use crate::catalog::Scale;
use crate::dsl::{for_loop, if_then, load_elem, store_elem, Var};
use crate::kernels::rng_for;

/// Problem size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Node count.
    pub nodes: usize,
    /// Frontier rounds (diameter bound).
    pub rounds: usize,
}

/// Sizes per scale.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Test => Params {
            nodes: 16,
            rounds: 6,
        },
        Scale::Paper => Params {
            nodes: 72,
            rounds: 10,
        },
    }
}

struct Graph {
    row_off: Vec<i64>,
    col: Vec<i64>,
}

fn graph(p: Params) -> Graph {
    let mut rng = rng_for("bfs");
    let mut row_off = Vec::with_capacity(p.nodes + 1);
    let mut col = Vec::new();
    row_off.push(0);
    for u in 0..p.nodes {
        // Binary-tree backbone keeps the whole graph reachable from node
        // 0 within a logarithmic number of rounds...
        for child in [2 * u + 1, 2 * u + 2] {
            if child < p.nodes {
                col.push(child as i64);
            }
        }
        // ...plus random cross/back edges for irregular frontiers.
        let extra = rng.gen_range(0..3usize);
        for _ in 0..extra {
            col.push(rng.gen_range(0..p.nodes) as i64);
        }
        row_off.push(col.len() as i64);
    }
    Graph { row_off, col }
}

/// Builds the benchmark module.
pub fn build(scale: Scale) -> Module {
    let p = params(scale);
    let g = graph(p);
    let mut m = Module::new();
    let g_row = m.add_global(Global::new("bfs_row", g.row_off));
    let g_col = m.add_global(Global::new("bfs_col", g.col));
    let g_lvl = m.add_global(Global::new("bfs_level", vec![-1; p.nodes]));

    let mut b = FunctionBuilder::new("main", &[], None);
    let row = b.global(g_row);
    let col = b.global(g_col);
    let lvl = b.global(g_lvl);
    let n = b.iconst(Ty::I64, p.nodes as i64);
    let zero = b.iconst(Ty::I64, 0);
    let rounds = b.iconst(Ty::I64, p.rounds as i64);

    // level[0] = 0 (the source).
    store_elem(&mut b, lvl, zero, zero);

    for_loop(&mut b, zero, rounds, |b, cur| {
        let zero = b.iconst(Ty::I64, 0);
        for_loop(b, zero, n, |b, u| {
            let lu = load_elem(b, lvl, u);
            let on_frontier = b.icmp(ICmpPred::Eq, Ty::I64, lu, cur);
            if_then(b, on_frontier, |b| {
                let start = load_elem(b, row, u);
                let one = b.iconst(Ty::I64, 1);
                let u1 = b.add(Ty::I64, u, one);
                let end = load_elem(b, row, u1);
                for_loop(b, start, end, |b, e| {
                    let v = load_elem(b, col, e);
                    let lv = load_elem(b, lvl, v);
                    let zero = b.iconst(Ty::I64, 0);
                    let unseen = b.icmp(ICmpPred::Slt, Ty::I64, lv, zero);
                    if_then(b, unseen, |b| {
                        let one = b.iconst(Ty::I64, 1);
                        let nl = b.add(Ty::I64, cur, one);
                        store_elem(b, lvl, v, nl);
                    });
                });
            });
        });
    });

    // Weighted checksum + unreached count.
    let check = Var::zero(&mut b, Ty::I64);
    let unreached = Var::zero(&mut b, Ty::I64);
    let zero2 = b.iconst(Ty::I64, 0);
    for_loop(&mut b, zero2, n, |b, i| {
        let li = load_elem(b, lvl, i);
        let one = b.iconst(Ty::I64, 1);
        let i1 = b.add(Ty::I64, i, one);
        let t = b.mul(Ty::I64, li, i1);
        check.add_assign(b, t);
        let zero = b.iconst(Ty::I64, 0);
        let miss = b.icmp(ICmpPred::Slt, Ty::I64, li, zero);
        if_then(b, miss, |b| {
            let one = b.iconst(Ty::I64, 1);
            unreached.add_assign(b, one);
        });
    });
    let c = check.get(&mut b);
    b.print(c);
    let u = unreached.get(&mut b);
    b.print(u);
    b.ret(None);
    m.functions.push(b.finish());
    m
}

/// Native oracle.
pub fn oracle(scale: Scale) -> Vec<i64> {
    let p = params(scale);
    let g = graph(p);
    let mut level = vec![-1i64; p.nodes];
    level[0] = 0;
    for cur in 0..p.rounds as i64 {
        for u in 0..p.nodes {
            if level[u] == cur {
                let (s, e) = (g.row_off[u] as usize, g.row_off[u + 1] as usize);
                for &v in &g.col[s..e] {
                    let v = v as usize;
                    if level[v] < 0 {
                        level[v] = cur + 1;
                    }
                }
            }
        }
    }
    let check: i64 = level
        .iter()
        .enumerate()
        .map(|(i, &l)| l * (i as i64 + 1))
        .sum();
    let unreached = level.iter().filter(|&&l| l < 0).count() as i64;
    vec![check, unreached]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::interp::Interp;

    #[test]
    fn interpreter_matches_oracle() {
        for scale in [Scale::Test, Scale::Paper] {
            let m = build(scale);
            ferrum_mir::verify::verify_module(&m).expect("verifies");
            let out = Interp::new(&m).run().expect("runs").output;
            assert_eq!(out, oracle(scale), "{scale:?}");
        }
    }

    #[test]
    fn most_nodes_reached() {
        let out = oracle(Scale::Paper);
        let p = params(Scale::Paper);
        assert!(out[1] < p.nodes as i64 / 4, "unreached = {}", out[1]);
    }
}
