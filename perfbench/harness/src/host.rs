//! Host speed, sampled next to the measured phase.
//!
//! The benchmark runs on a few cores of a shared machine whose CPU
//! throughput drifts by tens of percent over minutes, as other guests load
//! it. To compare runs made at different host speeds, the harness times a
//! fixed calibration kernel right before and right after the measured
//! phase, and `run.py` scales the phase's times by the kernel's speed
//! relative to a reference (`REFERENCE_UNIT_MS` there). The kernel is the
//! benchmark's own frozen code and calls nothing in the program, so a
//! change to the program never moves it; changing the kernel would move
//! every normalized metric.

use std::hint::black_box;
use std::time::Instant;

/// Kernel units per sample (about 50 ms in all); a sample reports their
/// medians, so a burst of contention during a few units does not move it.
const UNITS: usize = 10;
/// Steps per unit: 4–6 ms on a 2-vCPU x86-64 VM.
const STEPS: u64 = 400_000;
/// Entries in the kernel's table (32 KiB).
const TABLE: usize = 4096;

/// One calibration sample: the median wall and thread-CPU milliseconds
/// of one kernel unit.
#[derive(Clone, Copy)]
pub struct Sample {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// The measured phase: its clocks, bracketed by calibration samples.
pub struct Phase {
    pub started: Instant,
    cpu_start: f64,
    threads: usize,
    before: Sample,
}

/// What [`Phase::end`] measured.
pub struct Measured {
    pub ended: Instant,
    pub wall_s: f64,
    /// CPU seconds of every thread of the process during the phase.
    pub cpu_s: f64,
    pub host: [Sample; 2],
}

impl Phase {
    /// Samples the host speed on `threads` threads at once — as many as
    /// the phase computes on, since the vCPUs slow each other down when
    /// both are busy — then starts the phase's clocks.
    pub fn begin(threads: usize) -> Self {
        let before = sample(threads);
        Self {
            cpu_start: process_cpu_s(),
            started: Instant::now(),
            threads,
            before,
        }
    }

    /// Stops the phase's clocks, then samples the host speed again.
    pub fn end(self) -> Measured {
        let ended = Instant::now();
        let cpu_s = process_cpu_s() - self.cpu_start;
        Measured {
            ended,
            wall_s: (ended - self.started).as_secs_f64(),
            cpu_s,
            host: [self.before, sample(self.threads)],
        }
    }
}

/// One kernel unit: random draws and logarithms (Monte-Carlo stepping),
/// rotate/xor/add rounds (SHA-256 grinding) and scattered updates of a
/// 32 KiB table (ledgers, value-iteration sweeps).
fn unit(table: &mut [u64]) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc += (u + 1e-12).ln();
        let h = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
        let j = (h as usize) % TABLE;
        table[j] = table[j].wrapping_add(h ^ i);
    }
    acc + table[black_box(7)] as f64
}

/// Times `UNITS` kernel units on each of `threads` threads running at
/// once; returns the mean over the threads of each thread's medians.
fn sample(threads: usize) -> Sample {
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let running: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(sample_thread))
            .collect();
        running
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .collect()
    });
    let mean = |f: fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>() / samples.len() as f64;
    Sample {
        wall_ms: mean(|s| s.wall_ms),
        cpu_ms: mean(|s| s.cpu_ms),
    }
}

/// Times `UNITS` kernel units on the calling thread.
fn sample_thread() -> Sample {
    let mut table = vec![0u64; TABLE];
    let mut wall = Vec::with_capacity(UNITS);
    let mut cpu = Vec::with_capacity(UNITS);
    for _ in 0..UNITS {
        let (t, c) = (Instant::now(), thread_cpu_s());
        black_box(unit(black_box(&mut table)));
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        cpu.push((thread_cpu_s() - c) * 1e3);
    }
    Sample {
        wall_ms: crate::ops::median(&wall),
        cpu_ms: crate::ops::median(&cpu),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process (all its threads, live or ended) has used.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}
