//! End-to-end runs (`--trace 0`): what a user of the system sees.
//!
//! A run is a closed loop for the requested seconds: one caller, the next
//! step starting when the previous one returns. Each step sets the workload
//! up from its definition (timed: `setup_s`, and the compile inside it:
//! `compile_p*_ms`) and then runs the stream once on that set-up. Set-ups
//! are spread over the whole run rather than done up front, so a slow moment
//! of the machine lands on a few samples of every metric instead of on all
//! of one. The calibration kernel is timed between the set-ups and the
//! stream run and after the run, and every sample is scaled by the kernel
//! times on either side of it before the medians are taken.

use crate::checks::{conservation, repeats, same_compile, RunSignature};
use crate::measure::{
    mean_kernel_ms, median, peak_rss_mb, percentile, repeat_for, time_factor, timed, Calibration,
    REFERENCE_KERNEL_MS,
};
use crate::workloads::{set_up, Setup, WorkloadName};
use crate::{metric, Outcome};
use rld_core::prelude::*;
use std::result::Result;

/// Set-ups per step; the compile samples come from these. The cheap Q1
/// compile gets more of them; Q2 gets about 200 a run, so that twenty lie
/// beyond p90.
fn setups_per_step(name: WorkloadName) -> usize {
    match name {
        WorkloadName::StreamQ1 => 40,
        WorkloadName::StreamQ2 => 8,
    }
}

/// The percentile `p` of a columnar run's tuple-weighted batch latency.
pub fn batch_latency_ms(report: &ExecReport, p: f64) -> Result<f64, String> {
    report
        .latency_percentiles_ms
        .iter()
        .find(|(q, _)| *q == p)
        .map(|&(_, ms)| ms)
        .ok_or_else(|| format!("the executor reported no p{p} latency"))
}

/// One stream run on a set-up, timed.
fn run_stream(setup: &Setup) -> Result<(ExecReport, f64), String> {
    let stream = &setup.stream;
    let mut strategy = stream.deploy(&setup.deployment);
    let (report, ms) = timed(|| {
        stream
            .executor
            .run_report(stream.workload.as_ref(), strategy.as_mut(), false)
    });
    report
        .map(|r| (r, ms / 1e3))
        .map_err(|e| format!("stream run: {e}"))
}

/// Run one workload end to end.
pub fn run(name: WorkloadName, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set_up = || set_up(name, seed).map_err(|e| format!("set-up of {}: {e}", name.name()));
    let mut calibration = Calibration::default();

    // Warm-up: caches fill and lazy initialisation finishes; its outputs
    // are the reference every measured step must repeat.
    let warm = set_up()?;
    let first_compile = warm.deployment.solver_stats;
    let (report, _) = run_stream(&warm)?;
    out.checks.record(conservation(&report.metrics));
    let first_run = RunSignature::of(&report);
    drop(warm);

    // Raw wall-clock samples, and the same scaled by the calibration kernel
    // timed around them (see `Calibration`).
    let (mut setup_s, mut compile_ms) = (Scaled::time(), Scaled::time());
    let (mut tps, mut p50, mut p99) = (Scaled::rate(), Scaled::time(), Scaled::time());
    let mut kernel_before = calibration.sample();
    repeat_for(seconds, || {
        let mut setup = None;
        let mut setups = Vec::with_capacity(setups_per_step(name));
        for _ in 0..setups_per_step(name) {
            let (built, ms) = timed(set_up);
            let built = built?;
            setups.push((ms / 1e3, built.compile_ms));
            out.checks
                .record(same_compile(&first_compile, &built.deployment.solver_stats));
            setup = Some(built);
        }
        let setup = setup.expect("at least one set-up per step");
        let kernel_between = calibration.sample();
        let k = mean_kernel_ms(kernel_before, kernel_between);
        for (s, c) in setups {
            setup_s.push(s, k);
            compile_ms.push(c, k);
        }

        let (report, wall_s) = run_stream(&setup)?;
        let kernel_after = calibration.sample();
        let k = mean_kernel_ms(kernel_between, kernel_after);
        kernel_before = kernel_after;
        let m = &report.metrics;
        out.checks.record(conservation(m));
        out.checks
            .record(repeats(&first_run, &RunSignature::of(&report)));
        out.attempted += m.tuples_arrived;
        out.failed += m.tuples_lost;
        let rate = m.tuples_processed as f64 / wall_s;
        tps.push(rate, k);
        let (l50, l99) = (
            batch_latency_ms(&report, 50.0)?,
            batch_latency_ms(&report, 99.0)?,
        );
        p50.push(l50, k);
        p99.push(l99, k);
        Ok(())
    })?;

    out.notes.push(format!(
        "stream runs: {} of {} batches, {} driving tuples, {} produced, {} plan switches, \
         {} migrations, {} lost",
        tps.raw.len(),
        first_run.batches,
        first_run.arrived,
        first_run.produced,
        first_run.plan_switches,
        first_run.migrations,
        first_run.lost
    ));
    out.notes.push(format!(
        "set-ups: {}; calibration kernel median {:.4} ms over {} samples (reference {:.4} ms)",
        setup_s.raw.len(),
        calibration.kernel_ms(),
        calibration.samples(),
        REFERENCE_KERNEL_MS,
    ));
    let reported = [
        ("setup_s", &setup_s, median as fn(&[f64]) -> f64, "s"),
        ("compile_p50_ms", &compile_ms, |v| percentile(v, 50.0), "ms"),
        ("compile_p90_ms", &compile_ms, |v| percentile(v, 90.0), "ms"),
        ("throughput_tps", &tps, median, "1/s"),
        ("batch_p50_ms", &p50, median, "ms"),
        ("batch_p99_ms", &p99, median, "ms"),
    ];
    for &(name, samples, stat, unit) in &reported {
        out.notes.push(format!(
            "  raw {name:<30} {:>16.6} {unit}",
            stat(&samples.raw)
        ));
        out.metrics
            .push(metric(name, stat(&samples.scaled()), unit));
    }
    out.metrics
        .push(metric("peak_rss_mb", peak_rss_mb()?, "MB"));
    Ok(out)
}

/// The samples of one metric as measured, each with the mean kernel time of
/// the two calibration samples around it.
#[derive(Debug)]
struct Scaled {
    raw: Vec<f64>,
    kernel_ms: Vec<f64>,
    /// Whether the metric is a rate, which grows as times shrink.
    rate: bool,
}

impl Scaled {
    fn time() -> Self {
        Scaled {
            raw: Vec::new(),
            kernel_ms: Vec::new(),
            rate: false,
        }
    }

    fn rate() -> Self {
        Scaled {
            rate: true,
            ..Scaled::time()
        }
    }

    fn push(&mut self, raw: f64, kernel_ms: f64) {
        self.raw.push(raw);
        self.kernel_ms.push(kernel_ms);
    }

    /// Every sample scaled to the reference kernel time.
    fn scaled(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.kernel_ms)
            .map(|(&v, &k)| {
                let f = time_factor(k);
                if self.rate {
                    v / f
                } else {
                    v * f
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_by_the_kernel_time_around_them() {
        let mut t = Scaled::time();
        let mut r = Scaled::rate();
        for (v, k) in [(1.0, REFERENCE_KERNEL_MS), (2.0, 2.0 * REFERENCE_KERNEL_MS)] {
            t.push(v, k);
            r.push(v, k);
        }
        assert_eq!(t.scaled(), vec![1.0, 1.0]);
        assert_eq!(r.scaled(), vec![1.0, 4.0]);
        assert_eq!(t.raw, vec![1.0, 2.0]);
    }
}
