//! `particlefilter` — 2-D particle filter with LCG noise and systematic
//! resampling (Rodinia's ParticleFilter, Table II: Noise estimator).
//!
//! Tracks an object moving diagonally across a plane from noisy
//! measurements: per step, particles propagate with pseudo-random noise
//! in both coordinates, weights follow an inverse-Manhattan-distance
//! likelihood (fixed point), and resampling scans the cumulative weight
//! array.  The largest and most instruction-diverse kernel — in the
//! paper, ParticleFilter has the most static instructions and the
//! longest FERRUM transformation time (§IV-B3).

use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::inst::ICmpPred;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;

use crate::catalog::Scale;
use crate::dsl::{abs_branch, for_loop, if_then, load_elem, store_elem, Var, FX_ONE};
use crate::kernels::rng_for;

/// Problem size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Particle count.
    pub particles: usize,
    /// Time steps.
    pub steps: usize,
}

/// Sizes per scale.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Test => Params {
            particles: 8,
            steps: 3,
        },
        Scale::Paper => Params {
            particles: 20,
            steps: 5,
        },
    }
}

/// LCG constants (Numerical Recipes flavour, wrapping 64-bit).
const LCG_A: i64 = 6364136223846793005;
const LCG_C: i64 = 1442695040888963407;

fn lcg_next(state: i64) -> i64 {
    state.wrapping_mul(LCG_A).wrapping_add(LCG_C)
}

/// Extracts a small noise value in `[-4, 3]` from an LCG state.
fn lcg_noise(state: i64) -> i64 {
    ((state >> 33) & 7) - 4
}

/// True per-step object motion.
const VEL_X: i64 = 3;
const VEL_Y: i64 = 2;

struct Inputs {
    init_x: Vec<i64>,
    init_y: Vec<i64>,
    meas_x: Vec<i64>,
    meas_y: Vec<i64>,
    seed0: i64,
}

fn inputs(p: Params) -> Inputs {
    let mut rng = rng_for("particlefilter");
    let (mut x, mut y) = (10i64, 20i64);
    let mut meas_x = Vec::with_capacity(p.steps);
    let mut meas_y = Vec::with_capacity(p.steps);
    for _ in 0..p.steps {
        x += VEL_X;
        y += VEL_Y;
        meas_x.push(x + rng.gen_range(-2i64..3));
        meas_y.push(y + rng.gen_range(-2i64..3));
    }
    Inputs {
        init_x: (0..p.particles).map(|i| 8 + (i as i64 % 5)).collect(),
        init_y: (0..p.particles).map(|i| 18 + (i as i64 % 4)).collect(),
        meas_x,
        meas_y,
        seed0: rng.gen_range(1..i64::MAX / 2),
    }
}

/// Builds the benchmark module.
pub fn build(scale: Scale) -> Module {
    let p = params(scale);
    let inp = inputs(p);
    let n = p.particles;
    let mut m = Module::new();
    let g_px = m.add_global(Global::new("pf_px", inp.init_x));
    let g_py = m.add_global(Global::new("pf_py", inp.init_y));
    let g_mx = m.add_global(Global::new("pf_mx", inp.meas_x));
    let g_my = m.add_global(Global::new("pf_my", inp.meas_y));
    let g_cum = m.add_global(Global::zeroed("pf_cum", n));
    let g_nx = m.add_global(Global::zeroed("pf_nx", n));
    let g_ny = m.add_global(Global::zeroed("pf_ny", n));

    let mut b = FunctionBuilder::new("main", &[], None);
    let px = b.global(g_px);
    let py = b.global(g_py);
    let mx = b.global(g_mx);
    let my = b.global(g_my);
    let cum = b.global(g_cum);
    let nx = b.global(g_nx);
    let ny = b.global(g_ny);
    let nv = b.iconst(Ty::I64, n as i64);
    let zero = b.iconst(Ty::I64, 0);
    let steps = b.iconst(Ty::I64, p.steps as i64);
    let seed0 = b.iconst(Ty::I64, inp.seed0);
    let lcg_state = Var::new(&mut b, Ty::I64, seed0);

    let lcg_step = |b: &mut FunctionBuilder, st: Var| -> Value {
        let cur = st.get(b);
        let a = b.iconst(Ty::I64, LCG_A);
        let c = b.iconst(Ty::I64, LCG_C);
        let mul = b.mul(Ty::I64, cur, a);
        let next = b.add(Ty::I64, mul, c);
        st.set(b, next);
        // Noise in [-4, 3].
        let sh = b.iconst(Ty::I64, 33);
        let hi = b.ashr(Ty::I64, next, sh);
        let seven = b.iconst(Ty::I64, 7);
        let masked = b.and(Ty::I64, hi, seven);
        let four = b.iconst(Ty::I64, 4);
        b.sub(Ty::I64, masked, four)
    };

    for_loop(&mut b, zero, steps, |b, t| {
        // Propagate both coordinates with independent noise.
        let zero = b.iconst(Ty::I64, 0);
        for_loop(b, zero, nv, |b, i| {
            let noise_x = lcg_step(b, lcg_state);
            let cur = load_elem(b, px, i);
            let vx = b.iconst(Ty::I64, VEL_X);
            let moved = b.add(Ty::I64, cur, vx);
            let next = b.add(Ty::I64, moved, noise_x);
            store_elem(b, px, i, next);
            let noise_y = lcg_step(b, lcg_state);
            let cur = load_elem(b, py, i);
            let vy = b.iconst(Ty::I64, VEL_Y);
            let moved = b.add(Ty::I64, cur, vy);
            let next = b.add(Ty::I64, moved, noise_y);
            store_elem(b, py, i, next);
        });
        // Weights: w[i] = FX_ONE / (1 + |zx-px| + |zy-py|), cumulative.
        let zx = load_elem(b, mx, t);
        let zy = load_elem(b, my, t);
        let total = Var::zero(b, Ty::I64);
        let zero = b.iconst(Ty::I64, 0);
        for_loop(b, zero, nv, |b, i| {
            let pxi = load_elem(b, px, i);
            let dx = b.sub(Ty::I64, zx, pxi);
            let ax = abs_branch(b, dx);
            let pyi = load_elem(b, py, i);
            let dy = b.sub(Ty::I64, zy, pyi);
            let ay = abs_branch(b, dy);
            let dist = b.add(Ty::I64, ax, ay);
            let one = b.iconst(Ty::I64, 1);
            let denom = b.add(Ty::I64, dist, one);
            let fx = b.iconst(Ty::I64, FX_ONE);
            let wi = b.sdiv(Ty::I64, fx, denom);
            total.add_assign(b, wi);
            let tv = total.get(b);
            store_elem(b, cum, i, tv);
        });
        // Systematic resampling over both coordinate arrays.
        let tv = total.get(b);
        let zero = b.iconst(Ty::I64, 0);
        for_loop(b, zero, nv, |b, j| {
            // u_j = (j * total + total/2) / n  — evenly spaced.
            let jt = b.mul(Ty::I64, j, tv);
            let two = b.iconst(Ty::I64, 2);
            let half = b.sdiv(Ty::I64, tv, two);
            let num = b.add(Ty::I64, jt, half);
            let u = b.sdiv(Ty::I64, num, nv);
            let m1 = b.iconst(Ty::I64, -1);
            let picked = Var::new(b, Ty::I64, m1);
            let zero = b.iconst(Ty::I64, 0);
            for_loop(b, zero, nv, |b, i| {
                let not_yet = picked.get(b);
                let zero = b.iconst(Ty::I64, 0);
                let none = b.icmp(ICmpPred::Slt, Ty::I64, not_yet, zero);
                if_then(b, none, |b| {
                    let ci = load_elem(b, cum, i);
                    let reached = b.icmp(ICmpPred::Sge, Ty::I64, ci, u);
                    if_then(b, reached, |b| picked.set(b, i));
                });
            });
            // Fall back to the last particle on rounding shortfall.
            let pk = picked.get(b);
            let zero = b.iconst(Ty::I64, 0);
            let none = b.icmp(ICmpPred::Slt, Ty::I64, pk, zero);
            if_then(b, none, |b| {
                let last = b.iconst(Ty::I64, (n - 1) as i64);
                picked.set(b, last);
            });
            let pk = picked.get(b);
            let vx = load_elem(b, px, pk);
            store_elem(b, nx, j, vx);
            let vy = load_elem(b, py, pk);
            store_elem(b, ny, j, vy);
        });
        for_loop(b, zero, nv, |b, i| {
            let vx = load_elem(b, nx, i);
            store_elem(b, px, i, vx);
            let vy = load_elem(b, ny, i);
            store_elem(b, py, i, vy);
        });
        // Estimates: mean particle position per coordinate.
        let est_x = Var::zero(b, Ty::I64);
        let est_y = Var::zero(b, Ty::I64);
        for_loop(b, zero, nv, |b, i| {
            let vx = load_elem(b, px, i);
            est_x.add_assign(b, vx);
            let vy = load_elem(b, py, i);
            est_y.add_assign(b, vy);
        });
        let sx = est_x.get(b);
        let mean_x = b.sdiv(Ty::I64, sx, nv);
        b.print(mean_x);
        let sy = est_y.get(b);
        let mean_y = b.sdiv(Ty::I64, sy, nv);
        b.print(mean_y);
    });
    b.ret(None);
    m.functions.push(b.finish());
    m
}

/// Native oracle.
pub fn oracle(scale: Scale) -> Vec<i64> {
    let p = params(scale);
    let inp = inputs(p);
    let n = p.particles;
    let mut px = inp.init_x.clone();
    let mut py = inp.init_y.clone();
    let mut state = inp.seed0;
    let mut out = Vec::new();
    for t in 0..p.steps {
        for i in 0..n {
            state = lcg_next(state);
            px[i] += VEL_X + lcg_noise(state);
            state = lcg_next(state);
            py[i] += VEL_Y + lcg_noise(state);
        }
        let (zx, zy) = (inp.meas_x[t], inp.meas_y[t]);
        let mut cum = vec![0i64; n];
        let mut total = 0i64;
        for i in 0..n {
            let wi = FX_ONE / (1 + (zx - px[i]).abs() + (zy - py[i]).abs());
            total += wi;
            cum[i] = total;
        }
        let mut nx = vec![0i64; n];
        let mut ny = vec![0i64; n];
        for j in 0..n {
            let u = (j as i64 * total + total / 2) / n as i64;
            let mut picked = -1i64;
            for (i, &c) in cum.iter().enumerate() {
                if picked < 0 && c >= u {
                    picked = i as i64;
                }
            }
            if picked < 0 {
                picked = n as i64 - 1;
            }
            nx[j] = px[picked as usize];
            ny[j] = py[picked as usize];
        }
        px = nx;
        py = ny;
        out.push(px.iter().sum::<i64>() / n as i64);
        out.push(py.iter().sum::<i64>() / n as i64);
    }
    out
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
    fn estimate_tracks_the_object_in_both_axes() {
        let p = params(Scale::Paper);
        let out = oracle(Scale::Paper);
        let expect_x = 10 + VEL_X * p.steps as i64;
        let expect_y = 20 + VEL_Y * p.steps as i64;
        let got_x = out[out.len() - 2];
        let got_y = out[out.len() - 1];
        assert!(
            (got_x - expect_x).abs() < 12,
            "x estimate {got_x} vs {expect_x}"
        );
        assert!(
            (got_y - expect_y).abs() < 12,
            "y estimate {got_y} vs {expect_y}"
        );
    }

    #[test]
    fn is_the_static_largest_benchmark() {
        // Matches the paper's §IV-B3 observation: ParticleFilter has the
        // most static instructions of the suite.
        let sizes: Vec<(String, usize)> = crate::all_workloads()
            .iter()
            .map(|w| {
                let asm = ferrum_backend::compile(&w.build(Scale::Paper)).expect("compiles");
                (w.name.to_owned(), asm.static_inst_count())
            })
            .collect();
        let pf = sizes
            .iter()
            .find(|(n, _)| n == "particlefilter")
            .expect("exists")
            .1;
        for (name, size) in &sizes {
            assert!(
                pf >= *size,
                "particlefilter ({pf}) should be >= {name} ({size})"
            );
        }
    }
}
