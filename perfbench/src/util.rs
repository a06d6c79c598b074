//! Small helpers: order statistics, process counters from `/proc`, the
//! host-speed probe, and a JSON writer for flat objects.

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB of 10^6 bytes, like every
/// other MB figure of the benchmark (`VmHWM` is in KiB).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// User plus system CPU seconds of this process, all threads.
///
/// `/proc` reports these in `USER_HZ` ticks. The count is divided by
/// 100, the `USER_HZ` of Linux on x86 and ARM; reading it through
/// `sysconf` would need a libc binding the workspace does not have.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Host-speed probe: a fixed piece of work (a hash chain and a
/// squared-difference sweep over 2 MiB per thread) run on every engine
/// thread at once, in 256 chunks with a barrier after each. The host
/// this benchmark was tuned on changes speed by a third over minutes,
/// with no steal time to show for it, so a run probes before and after
/// every timed group and scales its timings by [`PROBE_REFERENCE_S`]
/// over the median probe (see `LAYERS.md`). The barriers make the probe
/// feel a busy host the way the engine's parallel phases do, which wait
/// for their slowest thread many times per call.
pub struct HostProbe {
    bufs: Vec<Vec<f64>>,
}

/// Probe time at the reference host speed: the fast end of the probe on
/// a 2-vCPU x86 VM. A timing scaled by it reads in seconds at that speed.
pub const PROBE_REFERENCE_S: f64 = 0.0065;

impl HostProbe {
    pub fn new(threads: usize) -> Self {
        let bufs = (0..threads.max(1))
            .map(|t| (0..1 << 18).map(|i| (i ^ t) as f64).collect())
            .collect();
        HostProbe { bufs }
    }

    /// Wall seconds of one probe on every thread.
    pub fn time(&mut self) -> f64 {
        let barrier = Barrier::new(self.bufs.len());
        let t = Instant::now();
        std::thread::scope(|s| {
            for buf in self.bufs.iter_mut() {
                let barrier = &barrier;
                s.spawn(move || {
                    for chunk in buf.chunks_mut(1 << 10) {
                        std::hint::black_box(probe_work(chunk));
                        barrier.wait();
                    }
                });
            }
        });
        secs(t)
    }
}

fn probe_work(buf: &mut [f64]) -> f64 {
    let (mut acc, mut h) = (0.0f64, 0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..8 {
        for x in buf.iter_mut() {
            h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let d = *x - (h >> 44) as f64;
            acc += d * d;
            *x = d * 0.5;
        }
    }
    acc
}

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) {
        self.0.push_str(if self.0.is_empty() { "{" } else { ", " });
        let _ = write!(self.0, "\"{k}\": ");
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v:?}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn list(mut self, k: &str, v: &[f64]) -> Self {
        self.key(k);
        self.0.push('[');
        for (i, x) in v.iter().enumerate() {
            let _ = write!(self.0, "{}{x:?}", if i == 0 { "" } else { ", " });
        }
        self.0.push(']');
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(
            self.0,
            "\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.0.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            self.0 + "}"
        }
    }
}
