//! A fixed reference job that tells how fast the host runs right now.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants, and a fixed single-threaded loop can run at nearly half speed
//! for minutes at a time. The benchmark times this job before and after
//! every repetition and scales the repetition's times by how much slower
//! than [`NOMINAL_S`] the job ran. The job is integer hashing in registers:
//! it touches no memory, so it follows the speed of the core and little
//! else, and it uses no workspace code, so no change to the repository can
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// Hash rounds in one job.
const ROUNDS: u64 = 1 << 20;

/// How often the job runs per measurement; the median counts.
const REPS: usize = 15;

/// The job's median time on a quiet 2-vCPU Xeon build machine. A slowdown
/// of 1 means the job took this long; times are reported at slowdown 1.
pub const NOMINAL_S: f64 = 0.0038;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn job(seed: u64) -> u64 {
    let mut h = seed;
    for i in 0..ROUNDS {
        h = mix(h ^ i);
    }
    h
}

/// How slow the host runs now: the job's median time over [`NOMINAL_S`].
/// Above 1 is slower than nominal.
pub fn slowdown() -> f64 {
    let mut times: Vec<f64> = (0..REPS as u64)
        .map(|rep| {
            let t = Instant::now();
            black_box(job(black_box(rep)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2] / NOMINAL_S
}
