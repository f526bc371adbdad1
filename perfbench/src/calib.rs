//! Host-speed correction.
//!
//! On a shared host the same code runs up to 1.7× slower for minutes at
//! a time: other tenants contend for the caches and memory of the cores
//! it runs on.  Process CPU time grows with wall time and steal time
//! stays near zero, so no clock this side of the hypervisor sees it.
//! The benchmark therefore times a fixed reference kernel right before
//! and after every measured stretch, and reports the stretch scaled by
//! [`NOMINAL_S`] over the reference's time: seconds as they would read
//! on a host where the reference takes [`NOMINAL_S`].
//!
//! The kernel uses the standard library only, so no change to the
//! workspace crates moves it.  It is an allocation-heavy fixpoint over
//! ordered sets, like the analyses and passes the workloads run, so
//! contention slows it about as much as them.

use std::collections::BTreeSet;
use std::time::Instant;

/// About the reference kernel's time on an uncontended 2-vCPU Xeon
/// host.  Corrected times are in seconds of that host; the constant only
/// sets the scale, never the spread.
pub const NOMINAL_S: f64 = 0.005;

/// Nodes of the reference kernel's graph: about 5 ms of work.
const NODES: usize = 200;

/// Wall seconds of one run of the reference kernel on this thread.
///
/// One thread even for `fig10`, whose campaigns keep every core busy:
/// timing the kernel on all cores at once reads the slowest of them,
/// which tracked the campaigns worse than one core's speed does (see
/// `README.md`, *Host-speed correction*).
pub fn reference_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(NODES));
    t.elapsed().as_secs_f64()
}

/// The factor that turns a time measured between two reference runs of
/// `before` and `after` seconds into nominal-host seconds.
pub fn speed(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

/// A backward may-dataflow fixpoint (liveness-like) over a fixed random
/// graph of `n` nodes, each with an ordered set of facts.
fn kernel(n: usize) -> u64 {
    let mut x = 0x1234_5678_9abc_def0_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let k = 1 + (next() % 2) as usize;
            (0..k)
                .map(|_| (i + 1 + (next() % 8) as usize) % n)
                .collect()
        })
        .collect();
    let gen: Vec<BTreeSet<u64>> = (0..n)
        .map(|_| (0..3).map(|_| next() % 256).collect())
        .collect();
    let mut live: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for _ in 0..6 {
        let mut changed = false;
        for i in (0..n).rev() {
            let mut s = gen[i].clone();
            for &j in &succ[i] {
                s.extend(live[j].iter().filter(|&&v| v % 7 != (i % 7) as u64));
            }
            if s != live[i] {
                live[i] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    live.iter().map(|s| s.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_does_work() {
        assert_eq!(kernel(NODES), kernel(NODES));
        assert!(kernel(NODES) > NODES as u64);
    }

    #[test]
    fn speed_is_one_at_the_nominal_time() {
        assert!((speed(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((speed(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }
}
