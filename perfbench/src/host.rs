//! Process CPU time and peak memory, and the host roofline probe.

use std::hint::black_box;
use std::time::Instant;

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, in nanoseconds.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib / 1024.0
}

/// Size of the largest cache level sysfs reports for CPU 0, bytes.
pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1 << 10),
            Some('M') => (&text[..text.len() - 1], 1 << 20),
            Some('G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * scale);
        }
    }
    // No sysfs cache data: assume a generous 64 MiB.
    if best == 0 {
        64 << 20
    } else {
        best
    }
}

/// The host roofline measured in this run.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Last-level cache size, bytes.
    pub llc_bytes: u64,
    /// Bytes of each array the copy streams.
    pub array_bytes: u64,
    /// Sustained single-thread copy bandwidth, GB/s (read + write bytes).
    pub copy_gbps: f64,
    /// Single-thread multiply-add rate, GFLOP/s.
    pub fma_gflops: f64,
}

impl Roofline {
    /// Measures a STREAM-style copy over two arrays of four times the
    /// last-level cache each, and an independent multiply-add loop.
    /// Both run single-threaded, like the kernels placed against them.
    pub fn measure() -> Roofline {
        let llc = llc_bytes();
        let array_bytes = 4 * llc;
        let n = (array_bytes / 8) as usize;
        let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; n];
        dst.copy_from_slice(&src); // fault in the destination pages
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let copy_gbps = 2.0 * array_bytes as f64 / best / 1e9;
        drop((src, dst));

        const LANES: usize = 32;
        const ITERS: usize = 4_000_000;
        let mut acc = [1.0f64; LANES];
        let (m, a) = black_box((0.999_999_9, 1e-7));
        let t = Instant::now();
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * m + a;
            }
        }
        black_box(&acc);
        let fma_gflops = (2 * LANES * ITERS) as f64 / t.elapsed().as_secs_f64() / 1e9;
        Roofline {
            llc_bytes: llc,
            array_bytes,
            copy_gbps,
            fma_gflops,
        }
    }

    /// Share of the roofline bound (the lower of peak rate and bandwidth
    /// times operations per byte) that `gflops` reaches at arithmetic
    /// intensity `flops_per_byte`.
    pub fn fraction(&self, gflops: f64, flops_per_byte: f64) -> f64 {
        gflops / self.fma_gflops.min(self.copy_gbps * flops_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_positive() {
        let before = cpu_seconds();
        let spin: f64 = (0..2_000_000).map(|i| (i as f64).sqrt()).sum();
        black_box(spin);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(llc_bytes() > 0);
    }

    #[test]
    fn roofline_bound_is_the_lower_ceiling() {
        let r = Roofline {
            llc_bytes: 1,
            array_bytes: 4,
            copy_gbps: 10.0,
            fma_gflops: 40.0,
        };
        // Memory-bound at 1 flop/byte: bound 10 GFLOP/s.
        assert_eq!(r.fraction(5.0, 1.0), 0.5);
        // Compute-bound at 100 flops/byte: bound 40 GFLOP/s.
        assert_eq!(r.fraction(20.0, 100.0), 0.5);
    }
}
