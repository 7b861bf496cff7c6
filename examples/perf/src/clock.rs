//! The children's clock: elapsed time rescaled by the speed of the CPU
//! the child runs on.
//!
//! On the shared two-core host the baseline was recorded on, a busy CPU
//! runs at one of two speeds for tens of seconds at a time, up to 1.9
//! times apart on the same code, and each CPU switches on its own. A
//! timer on the other CPU, or one that only runs between requests, does
//! not see it. So every child is pinned to one CPU (see
//! `parent::pinned_cpu`), and a sampler thread on that CPU times a small
//! reference kernel every [`TICK`]. The clock advances by elapsed time ×
//! the CPU's speed, ([`REFERENCE`] / the kernel's latest time) to the
//! power [`EXPONENT`]: seconds at the speed where the kernel takes
//! [`REFERENCE`], the fastest it ran on that host.
//!
//! The kernel is a 32 × 32 matrix product in `f64`. Over passes in both
//! speed states, rescaling by it cut the spread of the `regen` pass from
//! 0.28 to 0.02 and of a dense-search repetition from 0.39 to 0.06;
//! sort- and hash-based kernels slowed down less than the workloads and
//! left 0.07–0.15. The product slows down a little more than the
//! workloads do, hence the exponent.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between speed samples.
const TICK: Duration = Duration::from_millis(10);
/// Side of the reference kernel's matrices.
const SIDE: usize = 32;
/// Runs of the kernel per sample; the fastest counts, so a sample the
/// scheduler interrupted does not.
const RUNS: usize = 3;
/// The kernel's time at the speed the clock reads in: the fastest it ran
/// on the two-core host the baseline was recorded on.
const REFERENCE: f64 = 13.0e-6;
/// How the workloads' slowdown follows the kernel's: over twenty runs of
/// `regen` and of `search_dense` at kernel slowdowns from 1.1 to 2.3,
/// the workloads' raw time grew as the kernel's slowdown to the power
/// 0.87 and 0.84. With the plain ratio, runs on a slow CPU read 6–10%
/// fast.
const EXPONENT: f64 = 0.85;

struct State {
    /// When the clock last advanced.
    at: Instant,
    /// Rescaled seconds at `at`.
    seconds: f64,
    /// Current speed relative to the reference.
    speed: f64,
}

/// A reading: raw seconds and rescaled seconds since the clock started.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub raw: f64,
    pub scaled: f64,
}

/// A running clock. [`Clock::stop`] joins its sampler thread.
pub struct Clock {
    origin: Instant,
    state: Arc<Mutex<State>>,
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<()>,
}

impl Clock {
    /// Takes a first speed sample on this thread, then starts the sampler.
    pub fn start() -> Clock {
        let origin = Instant::now();
        let state = Arc::new(Mutex::new(State {
            at: origin,
            seconds: 0.0,
            speed: speed(kernel_time()),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(TICK);
                    let sampled = speed(kernel_time());
                    let mut s = state.lock().expect("clock sampler never panics");
                    let now = Instant::now();
                    // The state between two samples is unknown; take the
                    // mean of their speeds.
                    s.seconds += (now - s.at).as_secs_f64() * f64::midpoint(s.speed, sampled);
                    s.at = now;
                    s.speed = sampled;
                }
            })
        };
        Clock {
            origin,
            state,
            stop,
            sampler,
        }
    }

    pub fn now(&self) -> Reading {
        let s = self.state.lock().expect("clock sampler never panics");
        let now = Instant::now();
        Reading {
            raw: (now - self.origin).as_secs_f64(),
            scaled: s.seconds + (now - s.at).as_secs_f64() * s.speed,
        }
    }

    /// Rescaled seconds per call of `f` over `calls` calls.
    pub fn mean_secs(&self, calls: usize, mut f: impl FnMut(usize)) -> f64 {
        let start = self.now().scaled;
        for i in 0..calls {
            f(i);
        }
        (self.now().scaled - start) / calls as f64
    }

    /// Stops and joins the sampler thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().expect("clock sampler never panics");
    }
}

/// The CPU's speed relative to the reference, from the kernel's time.
fn speed(kernel_secs: f64) -> f64 {
    (REFERENCE / kernel_secs).powf(EXPONENT)
}

/// The fastest of [`RUNS`] reference products, in seconds.
fn kernel_time() -> f64 {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(product(black_box(SIDE)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The reference kernel: a `side` × `side` matrix product in `f64`,
/// buffers included.
fn product(side: usize) -> f64 {
    let a: Vec<f64> = (0..side * side).map(|i| (i % 17) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..side * side).map(|i| (i % 13) as f64 * 0.25).collect();
    let mut c = vec![0.0; side * side];
    for i in 0..side {
        for k in 0..side {
            let aik = a[i * side + k];
            for j in 0..side {
                c[i * side + j] += aik * b[k * side + j];
            }
        }
    }
    c[side + 1]
}
