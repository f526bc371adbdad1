//! Intra-function control-flow graph over labelled blocks.

use std::collections::HashMap;

use crate::program::AsmFunction;

/// Successor/predecessor relation between a function's blocks.
///
/// Block indices refer to positions in [`AsmFunction::blocks`].  A
/// conditional jump mid-block contributes an edge to its target *and* the
/// block continues; the block's final fall-through or terminator decides
/// the remaining edges.  Edges to `exit_function` (the detector) are not
/// recorded — detection ends the program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `succs[b]` = indices of blocks reachable from block `b` in one step.
    pub succs: Vec<Vec<usize>>,
    /// `preds[b]` = indices of blocks from which `b` is reachable in one
    /// step.
    pub preds: Vec<Vec<usize>>,
}

/// The index of each block label of `f`; a duplicate label resolves to
/// its last block.
pub(crate) fn block_labels(f: &AsmFunction) -> HashMap<&str, usize> {
    f.blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.label.as_str(), i))
        .collect()
}

impl Cfg {
    /// Builds the CFG of `f`.
    pub fn build(f: &AsmFunction) -> Cfg {
        Cfg::with_labels(f, &block_labels(f))
    }

    /// Builds the CFG of `f`, whose [`block_labels`] are `labels`.
    pub(crate) fn with_labels(f: &AsmFunction, labels: &HashMap<&str, usize>) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut falls_through = true;
            for ai in &b.insts {
                match &ai.inst {
                    crate::inst::Inst::Jmp { target } | crate::inst::Inst::Jcc { target, .. } => {
                        if let Some(&t) = labels.get(target.as_str()) {
                            if !succs[bi].contains(&t) {
                                succs[bi].push(t);
                            }
                        }
                        // Only a conditional jump lets the block go on.
                        falls_through = matches!(ai.inst, crate::inst::Inst::Jcc { .. });
                    }
                    crate::inst::Inst::Ret => {
                        falls_through = false;
                    }
                    _ => {}
                }
                // Instructions after an unconditional terminator are dead
                // code: they can neither add edges nor re-enable
                // fall-through.
                if !falls_through {
                    break;
                }
            }
            if falls_through && bi + 1 < n && !succs[bi].contains(&(bi + 1)) {
                succs[bi].push(bi + 1);
            }
        }
        let mut preds = vec![Vec::new(); n];
        for (bi, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(bi);
            }
        }
        Cfg { succs, preds }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True if the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Blocks in reverse post-order from the entry (useful for dataflow).
    ///
    /// Contract: only blocks *reachable from the entry block* (index 0)
    /// appear in the order.  Blocks with no path from the entry are
    /// omitted — dataflow clients that must visit every block should
    /// append [`Cfg::unreachable_blocks`], which is disjoint from this
    /// order and together with it covers all block indices.
    pub fn reverse_post_order(&self) -> Vec<usize> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack = vec![(0usize, 0usize)];
        visited[0] = true;
        while let Some(frame) = stack.last_mut() {
            let node = frame.0;
            if frame.1 < self.succs[node].len() {
                let s = self.succs[node][frame.1];
                frame.1 += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Blocks with no path from the entry block, in ascending index
    /// order.  Complements [`Cfg::reverse_post_order`]: every block index
    /// is in exactly one of the two sequences.
    pub fn unreachable_blocks(&self) -> Vec<usize> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut reachable = vec![false; n];
        for b in self.reverse_post_order() {
            reachable[b] = true;
        }
        (0..n).filter(|&b| !reachable[b]).collect()
    }

    /// Immediate dominators, computed with the iterative
    /// Cooper–Harvey–Kennedy algorithm over the reverse post-order.
    ///
    /// `idom[b]` is the immediate dominator of block `b`; the entry block
    /// dominates itself (`idom[0] == Some(0)`), and unreachable blocks
    /// have `idom[b] == None`.
    pub fn dominators(&self) -> Dominators {
        let n = self.len();
        let mut idom: Vec<Option<usize>> = vec![None; n];
        if n == 0 {
            return Dominators { idom };
        }
        let rpo = self.reverse_post_order();
        // Position of each block in the RPO; unreachable blocks keep
        // usize::MAX and are never consulted.
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        idom[0] = Some(0);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &self.preds[b] {
                    if idom[p].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(cur, p, &idom, &rpo_pos),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }
}

/// Walks two dominator-tree ancestries up to their common ancestor.
fn intersect(a: usize, b: usize, idom: &[Option<usize>], rpo_pos: &[usize]) -> usize {
    let (mut x, mut y) = (a, b);
    while x != y {
        while rpo_pos[x] > rpo_pos[y] {
            x = idom[x].expect("reachable block has an idom");
        }
        while rpo_pos[y] > rpo_pos[x] {
            y = idom[y].expect("reachable block has an idom");
        }
    }
    x
}

/// Dominator tree of a [`Cfg`] (see [`Cfg::dominators`]).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of block `b` (`None` when `b` is
    /// unreachable from the entry; the entry maps to itself).
    pub idom: Vec<Option<usize>>,
}

impl Dominators {
    /// True if block `a` dominates block `b` (every path from the entry
    /// to `b` passes through `a`).  Reflexive; for an unreachable `b` the
    /// only dominator reported is `b` itself.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cc;
    use crate::inst::Inst;
    use crate::program::{AsmBlock, AsmFunction};
    use crate::provenance::Provenance;

    fn block(label: &str, insts: Vec<Inst>) -> AsmBlock {
        let mut b = AsmBlock::new(label);
        for i in insts {
            b.push(i, Provenance::Synthetic);
        }
        b
    }

    fn diamond() -> AsmFunction {
        // entry -> (then | else) -> join
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "entry",
            vec![Inst::Jcc {
                cc: Cc::E,
                target: "then".into(),
            }],
        ));
        f.blocks.push(block(
            "else",
            vec![Inst::Jmp {
                target: "join".into(),
            }],
        ));
        f.blocks.push(block("then", vec![Inst::Nop]));
        f.blocks.push(block("join", vec![Inst::Ret]));
        f
    }

    #[test]
    fn diamond_edges() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        // entry (0) -> then (2) via jcc, -> else (1) via fall-through
        assert_eq!(cfg.succs[0], vec![2, 1]);
        // else (1) -> join (3)
        assert_eq!(cfg.succs[1], vec![3]);
        // then (2) falls through to join (3)
        assert_eq!(cfg.succs[2], vec![3]);
        // join (3) returns
        assert!(cfg.succs[3].is_empty());
        assert_eq!(cfg.preds[3], vec![1, 2]);
    }

    #[test]
    fn jcc_and_jmp_to_one_target_make_one_edge() {
        // a: jne c; jmp c   b: ret   c: ret
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                Inst::Jcc {
                    cc: Cc::Ne,
                    target: "c".into(),
                },
                Inst::Jmp { target: "c".into() },
            ],
        ));
        f.blocks.push(block("b", vec![Inst::Ret]));
        f.blocks.push(block("c", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.succs, vec![vec![2], vec![], vec![]]);
        assert_eq!(cfg.preds[2], vec![0]);
    }

    #[test]
    fn ret_has_no_fallthrough() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![Inst::Ret]));
        f.blocks.push(block("b", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        assert!(cfg.succs[0].is_empty());
    }

    #[test]
    fn jump_to_exit_function_is_not_an_edge() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                Inst::Jcc {
                    cc: Cc::Ne,
                    target: "exit_function".into(),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        assert!(cfg.succs[0].is_empty());
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 4);
        // join must come after both then and else.
        let pos = |b: usize| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![Inst::Ret]));
        f.blocks.push(block("dead", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.reverse_post_order(), vec![0]);
    }

    #[test]
    fn dead_tail_after_jmp_adds_no_edges() {
        // Garbage after an unconditional jmp must not create edges or
        // re-enable fall-through.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                Inst::Jmp { target: "c".into() },
                // Dead tail: a conditional jump and plain instructions.
                Inst::Jcc {
                    cc: Cc::E,
                    target: "b".into(),
                },
                Inst::Nop,
            ],
        ));
        f.blocks.push(block("b", vec![Inst::Ret]));
        f.blocks.push(block("c", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        // Only the jmp edge; no edge to "b", no fall-through to "b".
        assert_eq!(cfg.succs[0], vec![2]);
        assert!(cfg.preds[1].is_empty());
    }

    #[test]
    fn dead_tail_after_ret_does_not_fall_through() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![Inst::Ret, Inst::Nop]));
        f.blocks.push(block("b", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        assert!(cfg.succs[0].is_empty());
    }

    #[test]
    fn orphan_block_reported_by_unreachable_blocks() {
        let mut f = AsmFunction::new("main");
        f.blocks
            .push(block("a", vec![Inst::Jmp { target: "c".into() }]));
        f.blocks.push(block("orphan", vec![Inst::Ret]));
        f.blocks.push(block("c", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let rpo = cfg.reverse_post_order();
        let unreachable = cfg.unreachable_blocks();
        assert_eq!(rpo, vec![0, 2]);
        assert_eq!(unreachable, vec![1]);
        // Together they partition the block indices.
        let mut all: Vec<usize> = rpo.iter().chain(&unreachable).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_blocks_empty_for_fully_connected_cfg() {
        let cfg = Cfg::build(&diamond());
        assert!(cfg.unreachable_blocks().is_empty());
    }

    #[test]
    fn dominators_of_diamond() {
        // entry (0) -> then (2) | else (1) -> join (3)
        let cfg = Cfg::build(&diamond());
        let dom = cfg.dominators();
        assert_eq!(dom.idom[0], Some(0));
        assert_eq!(dom.idom[1], Some(0));
        assert_eq!(dom.idom[2], Some(0));
        // join is reached from both arms: its idom is the entry.
        assert_eq!(dom.idom[3], Some(0));
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        assert!(!dom.dominates(2, 3));
        assert!(dom.dominates(3, 3));
    }

    #[test]
    fn dominators_of_chain_and_loop() {
        // a -> b -> c, with a back-edge c -> b.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![Inst::Nop]));
        f.blocks.push(block("b", vec![Inst::Nop]));
        f.blocks.push(block(
            "c",
            vec![
                Inst::Jcc {
                    cc: Cc::Ne,
                    target: "b".into(),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        let dom = cfg.dominators();
        assert_eq!(dom.idom[1], Some(0));
        assert_eq!(dom.idom[2], Some(1));
        assert!(dom.dominates(1, 2));
        assert!(!dom.dominates(2, 1));
    }

    #[test]
    fn dominators_unreachable_block_has_none() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![Inst::Ret]));
        f.blocks.push(block("dead", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let dom = cfg.dominators();
        assert_eq!(dom.idom[1], None);
        assert!(!dom.dominates(0, 1));
    }

    #[test]
    fn empty_function() {
        let f = AsmFunction::new("main");
        let cfg = Cfg::build(&f);
        assert!(cfg.is_empty());
        assert_eq!(cfg.len(), 0);
        assert!(cfg.reverse_post_order().is_empty());
    }
}
