//! The RLD benchmark: one workload per run, measured end to end or, with
//! `--trace 1`, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path rldbench/Cargo.toml -- \
//!     --workload <stream-q1|stream-q2> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Standard output carries the environment as a JSON line, a readable
//! table, and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check prints that object with
//! `"correct": false` and exits 1; an error before any result exits 1
//! without one; bad arguments exit 2. See `rldbench/README.md`.

mod checks;
mod endtoend;
mod measure;
mod trace;
mod workloads;

use workloads::WorkloadName;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        match key {
            "--workload" => workload = Some(WorkloadName::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: driving tuples arrived.
    pub attempted: u64,
    /// Operations failed: driving tuples lost.
    pub failed: u64,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: checks::Checks,
    /// Readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.passed() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rldbench --workload <stream-q1|stream-q2> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        measure::environment_json(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let seconds = args.seconds as f64;
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, seconds)
    } else {
        endtoend::run(args.workload, args.seed, seconds)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in outcome.checks.failures() {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload stream-q2 --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, WorkloadName::StreamQ2);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10, true));
        let a = parse_args(&argv("--workload=stream-q1 --seed=1 --seconds=3")).unwrap();
        assert!(!a.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload compile-q2 --seed 1 --seconds 1",
            "--workload stream-q1 --seconds 1",
            "--workload stream-q1 --seed 1 --seconds 0",
            "--workload stream-q1 --seed 1 --seconds 1 --trace 2",
            "--workload stream-q1 --seed 1 --seconds 1 --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            metrics: vec![metric("setup_s", 0.25, "s")],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.checks.record(Err("mismatch".into()));
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
