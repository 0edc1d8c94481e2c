//! Order statistics, the host fingerprint, and the few `/proc` and
//! filesystem reads the result record needs.

use std::path::Path;

/// Median of a sample (mean of the middle two for even sizes); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an already sorted sample; 0 when empty.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A registry counter's value; 0 when it was never registered.
pub fn counter(registry: &swag_obs::Registry, name: &str) -> u64 {
    match registry.get(name) {
        Some(swag_obs::Metric::Counter(c)) => c.get(),
        _ => 0,
    }
}

/// Latency samples of one class, nanoseconds saturated into `u32`
/// (4.29 s), in a buffer allocated up front so recording never allocates;
/// samples beyond the buffer are dropped (the percentiles then describe
/// the first `capacity` operations).
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u32>,
}

impl Latencies {
    pub fn with_capacity(cap: usize) -> Latencies {
        Latencies {
            ns: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        if self.ns.len() < self.ns.capacity() {
            self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sorted(&self) -> Vec<u32> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Where a result was measured: enough to tell two hosts apart.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            kernel,
            git_rev: git_rev(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// HEAD of the enclosing checkout, read from `.git` directly (the
/// driver's checkout is not a repository: then "unknown").
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Minimal JSON string escaping for the host strings.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
    }

    #[test]
    fn latencies_never_grow_past_their_buffer() {
        let mut l = Latencies::with_capacity(2);
        for ns in [5, 7, 9] {
            l.push(ns);
        }
        assert_eq!(l.len(), 2);
        assert_eq!(l.sorted(), vec![5, 7]);
    }
}
