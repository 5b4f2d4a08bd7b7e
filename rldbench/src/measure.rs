//! Timing, order statistics, memory and environment helpers.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run `f` and return its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Least repetitions of every timed loop, however short its time budget.
const MIN_REPS: usize = 3;

/// Run `step` at least three times and until `min_secs` have passed.
pub fn repeat_for(
    min_secs: f64,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < min_secs {
        step()?;
        reps += 1;
    }
    Ok(())
}

/// The median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of the samples (`p` in `(0, 100]`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median wall milliseconds of the calibration kernel on the 2-core box the
/// benchmark was built on, at its usual load. Only sets the scale of the
/// calibrated values; see [`Calibration`].
pub const REFERENCE_KERNEL_MS: f64 = 1.7;

/// Tracks how fast the machine runs now, with a fixed kernel that belongs to
/// the benchmark, not to the program: sorting 2^16 pseudo-random `u64`s
/// (512 KiB, allocated only while the kernel runs, so that it stays out of
/// `peak_rss_mb`). On a shared box the machine switches between a slow and
/// a fast state (up to 1.5x apart) that last from seconds to about a
/// minute, so a run's share of fast time, and with it any median of raw
/// times, depends on when the run happens. The kernel is timed right before
/// and right after every timed piece of work, and each sample of that work
/// is scaled by `REFERENCE_KERNEL_MS` over the mean of the two kernel times
/// around it; the run's medians are taken over the scaled samples. No
/// program code runs in the kernel.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Time the kernel now (median of five sorts) and return its
    /// milliseconds.
    pub fn sample(&mut self) -> f64 {
        let mut v = vec![0u64; 1 << 16];
        let sorts: Vec<f64> = (0..5)
            .map(|_| {
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                for x in v.iter_mut() {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    *x = state >> 11;
                }
                timed(|| {
                    v.sort_unstable();
                    std::hint::black_box(&v);
                })
                .1
            })
            .collect();
        let ms = median(&sorts);
        self.samples.push(ms);
        ms
    }

    /// Kernel samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The median kernel time of the run, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples)
    }
}

/// The kernel time that stands for a piece of work timed between two kernel
/// samples: their mean.
pub fn mean_kernel_ms(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

/// The factor that turns a wall time measured while the kernel took
/// `kernel_ms` into one on the reference box: below 1 while the machine runs
/// slow. Rates are divided by it.
pub fn time_factor(kernel_ms: f64) -> f64 {
    REFERENCE_KERNEL_MS / kernel_ms
}

/// Peak resident memory of this process in MiB (`VmHWM`), which includes
/// compile-time structures and the dataplane's window state.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The commit checked out at the repository root, read from `.git` without
/// running git; `None` outside a git checkout.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the relative paths and contents of the sources the benchmark
/// builds from (`Cargo.*`, `crates/`, `vendor/`, `rldbench/`), so a result
/// names the code it measured even where there is no git history.
fn source_hash(root: &Path) -> u64 {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "rldbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    files.iter().fold(0xcbf2_9ce4_8422_2325, |h, path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let h = fnv(h, rel.to_string_lossy().as_bytes());
        fnv(h, &std::fs::read(path).unwrap_or_default())
    })
}

/// The environment a result was measured in, as one JSON line.
pub fn environment_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let root = repo_root();
    let commit = git_head(&root).unwrap_or_else(|| "none".into());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"shards\": {}, \"commit\": \"{commit}\", \
         \"source_fnv64\": \"{:016x}\"}}",
        u8::from(trace),
        crate::workloads::PINNED_SHARDS,
        source_hash(&root),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn time_factor_scales_to_the_reference_kernel() {
        assert_eq!(time_factor(REFERENCE_KERNEL_MS), 1.0);
        assert_eq!(
            mean_kernel_ms(2.0 * REFERENCE_KERNEL_MS, 0.0),
            REFERENCE_KERNEL_MS
        );
        assert!(time_factor(mean_kernel_ms(3.0, 3.4)) < 1.0);
    }
}
