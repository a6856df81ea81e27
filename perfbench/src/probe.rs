//! Host facts every report carries: core count, effective cores, and a
//! STREAM-like triad bandwidth with arrays larger than the last-level
//! cache.

use crate::report::Metrics;
use std::hint::black_box;
use std::time::Instant;

/// A fixed amount of dependent floating-point work.
fn spin(iters: u64) -> f64 {
    let mut x = black_box(1.0f64);
    for _ in 0..iters {
        x = black_box(x * 1.000_000_1 + 1e-9);
    }
    x
}

/// Wall seconds for `threads` threads each running `spin(iters)`.
fn spin_wall(threads: usize, iters: u64) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(iters));
        }
    });
    t.elapsed().as_secs_f64()
}

/// `nproc` spinning threads against one: nproc × t(1) / t(nproc), the
/// median of five tries. 1.0 means extra threads bring no extra speed.
fn effective_cores(nproc: usize) -> f64 {
    let mut iters = 1_000_000u64;
    while spin_wall(1, iters) < 0.05 {
        iters *= 2;
    }
    let mut tries: Vec<f64> = (0..5)
        .map(|_| nproc as f64 * spin_wall(1, iters) / spin_wall(nproc, iters))
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[2]
}

/// The largest cache the kernel reports for cpu0, in bytes.
fn llc_bytes() -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1u64 << 10),
            Some('M') => (&text[..text.len() - 1], 1 << 20),
            Some('G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    best
}

/// `MemAvailable` from `/proc/meminfo`, in bytes.
fn mem_available() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// `a = b + s·c` over three `f64` arrays of `bytes` each; best of three
/// passes after first touch, counting 24 bytes moved per element.
fn triad_gbs(bytes: u64) -> f64 {
    let n = (bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    24.0 * n as f64 / best / 1e9
}

/// Probes the host. Triad arrays are 4× the last-level cache each,
/// shrunk only when the machine has too little memory available for
/// the three of them twice over (the report states the size used).
pub fn probe() -> Metrics {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = llc_bytes().max(1 << 20);
    let mut array = 4 * llc;
    if let Some(avail) = mem_available() {
        while array > llc && 6 * array > avail {
            array /= 2;
        }
    }
    let mut m = Metrics::default();
    m.measured("host.nproc", nproc as f64, "cores");
    m.measured("host.effective_cores", effective_cores(nproc), "cores");
    m.measured("host.llc_mib", (llc >> 20) as f64, "MiB");
    m.measured("host.triad_array_mib", (array >> 20) as f64, "MiB");
    m.measured("host.triad_gbs", triad_gbs(array), "GB/s");
    m
}
