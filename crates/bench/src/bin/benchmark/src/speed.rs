//! Machine speed, measured next to the work it scales.
//!
//! On the shared host the benchmark is sized for, the same code takes up
//! to 1.8 times as long from one second to the next, and all kinds of
//! work slow down together. So the benchmark runs a fixed reference
//! computation, which calls no repository code, next to the work it times.
//! It reports every timing at the speed at which the reference takes
//! [`REFERENCE_S`]: a span of `t` seconds during which the reference took
//! `r` is reported as `t · REFERENCE_S / r`. Over two and a half minutes
//! of a fixed pass pipeline, its time per one-second window spread 20.5%
//! (quartile distance over median), and its ratio to the reference 3.7%.
//!
//! The reference has to run on the CPU the work runs on. A sampler on the
//! other CPU of a two-CPU machine tracks one busy thread no better than
//! no scaling at all. Serving therefore [`pin`]s its timed phase to one
//! CPU and samples between requests. Training keeps both CPUs busy and
//! samples on a thread of its own ([`Speed::during`]).

use crate::stats::median;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time of one reference run at the speed every timing is scaled to,
/// seconds. The baseline machine took 0.9 to 1.5 ms.
pub const REFERENCE_S: f64 = 1e-3;

/// Least time between two reference samples.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Half-width of the window of samples that sets a span's speed, seconds.
const WINDOW_S: f64 = 0.5;

/// Fewest samples a span's speed rests on; when its window holds fewer,
/// the samples nearest to the span are used.
const MIN_SAMPLES: usize = 5;

/// Samples taken on each side of a [`Speed::bracket`]ed span.
const BRACKET: usize = 3;

/// The reference computation: hash-map inserts and look-ups and a sort
/// over a xorshift stream, then a small floating-point matrix product.
/// About as much integer and floating-point work as a short pass run.
fn reference(seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut keys = Vec::with_capacity(20_000);
    for i in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 5_000, i);
        keys.push(x);
    }
    keys.sort_unstable();
    let found: u64 = (0..5_000).filter_map(|k| map.get(&k)).sum();
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i as u64 ^ seed) % 97) as f64)
        .collect();
    let mut c = vec![0.0; N * N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * a[k * N + j];
            }
        }
    }
    c.iter().sum::<f64>() + (found ^ keys[keys.len() / 2]) as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, seconds. It leaves out time the thread
/// waited for a CPU, so a sampler that shares a CPU with busy workers
/// still reads that CPU's speed.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec of the C layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One reference run, timed: `(end on the clock of `start` s, CPU time s)`.
fn sample_at(start: Instant, seed: u64) -> (f64, f64) {
    let t = thread_cpu_s();
    black_box(reference(black_box(seed)));
    let took = thread_cpu_s() - t;
    (start.elapsed().as_secs_f64(), took)
}

/// A stretch of the run on the [`Speed`] clock, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub from: f64,
    pub to: f64,
}

impl Span {
    /// Its length at the machine's own speed.
    pub fn seconds(self) -> f64 {
        self.to - self.from
    }
}

/// Reference samples over a run, and the clock they share with the spans
/// they scale.
pub struct Speed {
    start: Instant,
    /// `(end s, reference CPU time s)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            start: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the run's clock started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the reference once on the calling thread.
    pub fn sample(&mut self) {
        let s = sample_at(self.start, self.samples.len() as u64);
        self.samples.push(s);
    }

    /// Samples unless the last sample is less than [`SAMPLE_EVERY`] old.
    pub fn sample_if_due(&mut self) {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.now() - last >= SAMPLE_EVERY.as_secs_f64() {
            self.sample();
        }
    }

    /// Runs `f` between [`BRACKET`] samples on each side; returns its
    /// result and span.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, Span) {
        (0..BRACKET).for_each(|_| self.sample());
        let from = self.now();
        let out = f();
        let span = Span {
            from,
            to: self.now(),
        };
        (0..BRACKET).for_each(|_| self.sample());
        (out, span)
    }

    /// Runs `f` while a thread of its own samples every [`SAMPLE_EVERY`];
    /// returns its result and span.
    pub fn during<T>(&mut self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = self.start;
        let first = self.samples.len() as u64;
        let from = self.now();
        let (out, taken) = std::thread::scope(|s| {
            let (stop, stopped) = std::sync::mpsc::channel::<()>();
            let sampler = s.spawn(move || {
                let mut taken = Vec::new();
                loop {
                    taken.push(sample_at(start, first + taken.len() as u64));
                    match stopped.recv_timeout(SAMPLE_EVERY) {
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                        _ => return taken,
                    }
                }
            });
            let out = f();
            drop(stop);
            (out, sampler.join().expect("speed sampler panicked"))
        });
        let span = Span {
            from,
            to: self.now(),
        };
        self.samples.extend(taken);
        self.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        (out, span)
    }

    /// `span`'s length at reference speed, seconds: its wall time scaled
    /// by [`REFERENCE_S`] over the median reference time of the samples
    /// within [`WINDOW_S`] of it.
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn scaled(&self, span: Span) -> f64 {
        assert!(!self.samples.is_empty(), "no reference samples");
        let lo = self.samples.partition_point(|s| s.0 < span.from - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= span.to + WINDOW_S);
        let near: Vec<f64> = if hi - lo >= MIN_SAMPLES {
            self.samples[lo..hi].iter().map(|s| s.1).collect()
        } else {
            let mid = (span.from + span.to) / 2.0;
            let mut by_distance = self.samples.clone();
            by_distance.sort_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()));
            by_distance.iter().take(MIN_SAMPLES).map(|s| s.1).collect()
        };
        span.seconds() * REFERENCE_S / median(&near)
    }

    /// The details line's account of the samples: how many, and the
    /// median reference time in milliseconds.
    pub fn detail(&self) -> [(String, Value); 2] {
        let times: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        [
            ("reference_samples".into(), json!(times.len())),
            ("reference_ms".into(), json!(median(&times) * 1e3)),
        ]
    }
}

/// A CPU set as the kernel's affinity calls take it (1024 CPUs).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

/// Confines the calling thread, and every thread it starts from now on,
/// to the CPU it is running on. Returns the set it could run on before,
/// for [`unpin`], or `None` when the kernel refuses.
pub fn pin() -> Option<CpuSet> {
    let size = std::mem::size_of::<CpuSet>();
    let mut before = CpuSet([0; 16]);
    // SAFETY: both masks are live `CpuSet`s of `size` bytes; pid 0 is the
    // calling thread.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok().filter(|&c| c < 1024)?;
        if sched_getaffinity(0, size, &mut before) != 0 {
            return None;
        }
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] |= 1 << (cpu % 64);
        (sched_setaffinity(0, size, &one) == 0).then_some(before)
    }
}

/// Lets the calling thread run where it could before [`pin`].
pub fn unpin(before: Option<CpuSet>) {
    if let Some(set) = before {
        // SAFETY: `set` is a live `CpuSet`; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(samples: &[(f64, f64)]) -> Speed {
        Speed {
            start: Instant::now(),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_span_is_scaled_by_the_reference_around_it() {
        let r = REFERENCE_S;
        // the machine runs at half speed from t = 10 s on
        let mut samples: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i) * 0.1, r)).collect();
        samples.extend((100..200).map(|i| (f64::from(i) * 0.1, 2.0 * r)));
        let speed = with_samples(&samples);
        let at = |from: f64| {
            speed.scaled(Span {
                from,
                to: from + 0.2,
            })
        };
        assert!((at(3.0) - 0.2).abs() < 1e-12, "full speed: unchanged");
        assert!((at(15.0) - 0.1).abs() < 1e-12, "half speed: halved");
    }

    #[test]
    fn a_sparse_window_takes_the_nearest_samples() {
        let r = REFERENCE_S;
        let speed = with_samples(&[
            (0.0, r),
            (0.1, r),
            (5.0, 2.0 * r),
            (9.0, 4.0 * r),
            (9.5, 4.0 * r),
            (9.6, r),
        ]);
        let far = speed.scaled(Span {
            from: 20.0,
            to: 21.0,
        });
        // the five nearest are r, 4r, 4r, 2r, r: median 2r
        assert!((far - 0.5).abs() < 1e-12, "{far}");
    }

    #[test]
    fn sampling_during_work_records_samples_in_time_order() {
        let mut speed = Speed::new();
        speed.sample();
        let (v, span) = speed.during(|| {
            std::thread::sleep(Duration::from_millis(120));
            7
        });
        assert_eq!(v, 7);
        assert!(speed.samples.len() >= 3, "{} samples", speed.samples.len());
        assert!(speed.samples.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(span.seconds() >= 0.12 && speed.scaled(span) > 0.0);
    }
}
