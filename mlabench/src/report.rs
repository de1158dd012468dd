//! Metric collection and the result line.

use crate::trace;

/// Operations attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
    /// Sample counts of percentile metrics, printed beside them.
    pub samples: Vec<(String, usize)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Pushes `<prefix>_p50_us` and `<prefix>_p99_us` of `samples_us`
    /// and records their sample count.
    pub fn push_percentiles(&mut self, prefix: &str, samples_us: &mut [f64]) {
        let (p50, p99) = if samples_us.is_empty() {
            (0.0, 0.0)
        } else {
            (
                trace::percentile(samples_us, 50.0),
                trace::percentile(samples_us, 99.0),
            )
        };
        for (q, value) in [("p50", p50), ("p99", p99)] {
            let name = format!("{prefix}_{q}_us");
            self.samples.push((name.clone(), samples_us.len()));
            self.push(&name, value, "us");
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Run {
    pub outcome: Outcome,
    pub metrics: Metrics,
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer that is not on a workload's traced path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.apply.self_s", "s"),
    ("graph.apply.calls", "count"),
    ("graph.check.self_s", "s"),
    ("graph.check.touched", "count"),
    ("core.serve.self_s", "s"),
    ("core.locate.self_s", "s"),
    ("core.decide.self_s", "s"),
    ("core.plan.self_s", "s"),
    ("permutation.merge_move.self_s", "s"),
    ("permutation.merge_move.moved", "count"),
    ("permutation.merge_move.swaps", "count"),
    ("permutation.segments", "count"),
    ("sim.step.self_s", "s"),
    ("runner.wire.parse.self_s", "s"),
    ("runner.wire.render.self_s", "s"),
    ("runner.wire.bytes_in", "bytes"),
    ("runner.wire.bytes_out", "bytes"),
    ("serve.handle.reveals.self_s", "s"),
    ("serve.handle.query.self_s", "s"),
    ("sim.checkpoint.encode.self_s", "s"),
    ("sim.checkpoint.decode.self_s", "s"),
    ("sim.checkpoint.bytes", "bytes"),
    ("serve.checkpoint.io.self_s", "s"),
    ("serve.frame.self_s", "s"),
    ("transport.frame_overhead_us", "us"),
    ("serve.errors", "count"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("checkpoint_ms", "ms"),
    ("restore_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every end-to-end metric, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reveals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
];

/// Prints the metrics for humans (with sample counts beside the
/// percentiles), then the one-line JSON result, last, on stdout. The
/// JSON carries exactly the metrics of `wanted`, in its order; a wanted
/// metric the run did not produce reads 0.
pub fn print(run: &Run, correct: bool, wanted: &[(&str, &str)]) {
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = run.metrics.get(name).unwrap_or(0.0);
        let samples = run
            .metrics
            .samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, count)| format!("  ({count} samples)"))
            .unwrap_or_default();
        println!("{name:<32} {value:>16.6} {unit}{samples}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.outcome.attempted,
        run.outcome.failed,
        fields.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_owned()
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(&path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_runner::Json;

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Json::as_str).expect("string field");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json_and_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("valid JSON");
        assert_eq!(names(bench.get("end_to_end").unwrap()), owned(END_TO_END));
        assert_eq!(names(bench.get("per_layer").unwrap()), owned(PER_LAYER));
        let spec = Json::parse(crate::SPEC).expect("spec.json is valid JSON");
        for &(name, _) in PER_LAYER {
            assert!(
                spec.get("per_layer").and_then(|p| p.get(name)).is_some(),
                "spec.json predicts nothing for {name}"
            );
        }
        for workload in crate::WORKLOADS {
            assert!(spec
                .get("workloads")
                .and_then(|w| w.get(workload))
                .is_some());
        }
    }

    #[test]
    fn percentiles_report_their_sample_count() {
        let mut metrics = Metrics::default();
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        metrics.push_percentiles("frame", &mut samples);
        assert_eq!(metrics.get("frame_p50_us"), Some(500.5));
        assert!((metrics.get("frame_p99_us").unwrap() - 990.01).abs() < 1e-9);
        assert_eq!(
            metrics.samples,
            vec![
                ("frame_p50_us".to_owned(), 1000),
                ("frame_p99_us".to_owned(), 1000)
            ]
        );
    }
}
