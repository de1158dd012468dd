//! `mlabench`: runs one workload from a seed, verifies its outputs, and
//! prints every metric by name and unit; the last stdout line is the
//! JSON result.
//!
//! ```text
//! mlabench --workload NAME --seed N --seconds S --trace 0|1
//! mlabench --fingerprints COUNT
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced replay and reports the per-layer metrics, writing its spans to
//! `mlabench-out/trace-<workload>.bin` beside the executable.
//! `--fingerprints` prints the input fingerprints of seeds
//! `0..COUNT` for `spec.json`.

mod gen;
mod inproc;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mla_runner::Json;

const WORKLOADS: &[&str] = &["uniform-checked", "whale-unchecked", "serve-zipf"];

/// Workload descriptions, layer predictions and input fingerprints.
const SPEC: &str = include_str!("../spec.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Fingerprints(u64),
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|err| format!("{what} {value:?}: {err}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")? as f64),
            "--trace" => trace = Some(number("--trace")? != 0),
            "--fingerprints" => return Ok(Command::Fingerprints(number("--fingerprints")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// The generated inputs of one workload.
enum Inputs {
    InProcess(inproc::Workload),
    Serve(serve::Workload),
}

impl Inputs {
    fn new(workload: &str, seed: u64, out_dir: &Path) -> Self {
        match workload {
            "uniform-checked" => Inputs::InProcess(inproc::Workload::uniform_checked(seed)),
            "whale-unchecked" => Inputs::InProcess(inproc::Workload::whale_unchecked(seed)),
            _ => Inputs::Serve(serve::Workload::new(seed, out_dir)),
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            Inputs::InProcess(w) => w.fingerprint(),
            Inputs::Serve(w) => w.fingerprint(),
        }
    }
}

/// The fingerprint `spec.json` records for this workload and seed (the
/// `"*"` entry covers every seed of a workload that ignores its seed).
fn recorded_fingerprint(workload: &str, seed: u64) -> Result<Option<String>, String> {
    let spec = Json::parse(SPEC).map_err(|err| format!("spec.json: {err}"))?;
    let table = spec.get("fingerprints").and_then(|f| f.get(workload));
    Ok(table
        .and_then(|t| t.get(&seed.to_string()).or_else(|| t.get("*")))
        .and_then(Json::as_str)
        .map(str::to_owned))
}

fn run(args: &Args, exe_dir: &Path) -> Result<(report::Run, bool), String> {
    let out_dir = exe_dir.join("mlabench-out");
    std::fs::create_dir_all(&out_dir).map_err(|err| format!("{}: {err}", out_dir.display()))?;
    let out_dir = out_dir
        .canonicalize()
        .map_err(|err| format!("{}: {err}", out_dir.display()))?;
    let inputs = Inputs::new(&args.workload, args.seed, &out_dir);
    let fingerprint = format!("{:016x}", inputs.fingerprint());
    let fingerprint_ok = match recorded_fingerprint(&args.workload, args.seed)? {
        Some(recorded) if recorded == fingerprint => true,
        Some(recorded) => {
            eprintln!("mlabench: input fingerprint {fingerprint} != recorded {recorded}");
            false
        }
        None => {
            eprintln!("mlabench: no fingerprint recorded for seed {}", args.seed);
            true
        }
    };
    println!(
        "workload {} seed {} input {fingerprint}",
        args.workload, args.seed
    );
    let trace_path = out_dir.join(format!("trace-{}.bin", args.workload));
    let serve_binary: PathBuf = exe_dir.join("mla-serve");
    let run = match (&inputs, args.trace) {
        (Inputs::InProcess(w), false) => inproc::run_untraced(w, args.seconds),
        (Inputs::InProcess(w), true) => inproc::run_traced(w, args.seconds, &trace_path),
        (Inputs::Serve(w), false) => serve::run_untraced(w, args.seconds, &serve_binary)
            .map_err(|err| format!("driving {}: {err}", serve_binary.display()))?,
        (Inputs::Serve(w), true) => serve::run_traced(w, args.seconds, &serve_binary, &trace_path)
            .map_err(|err| format!("driving {}: {err}", serve_binary.display()))?,
    };
    Ok((run, fingerprint_ok))
}

fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(command) => command,
        Err(message) => {
            eprintln!("mlabench: {message}");
            return ExitCode::from(2);
        }
    };
    let exe_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(err) => {
            eprintln!("mlabench: locating the executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        Command::Fingerprints(count) => {
            let out_dir = exe_dir.join("mlabench-out");
            for workload in WORKLOADS {
                let entries: Vec<String> = (0..count)
                    .map(|seed| {
                        let inputs = Inputs::new(workload, seed, &out_dir);
                        format!("\"{seed}\": \"{:016x}\"", inputs.fingerprint())
                    })
                    .collect();
                println!("\"{workload}\": {{{}}}", entries.join(", "));
            }
            ExitCode::SUCCESS
        }
        Command::Run(args) => match run(&args, &exe_dir) {
            Ok((run, fingerprint_ok)) => {
                let correct = fingerprint_ok && run.outcome.failed == 0;
                let wanted = if args.trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                report::print(&run, correct, wanted);
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("mlabench: {message}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_looked_up_per_seed_with_a_wildcard() {
        let whale = inproc::Workload::whale_unchecked(0).fingerprint();
        for seed in [0, 7, 1 << 40] {
            assert_eq!(
                recorded_fingerprint("whale-unchecked", seed).unwrap(),
                Some(format!("{whale:016x}"))
            );
        }
        assert!(recorded_fingerprint("uniform-checked", 3)
            .unwrap()
            .is_some());
        assert_eq!(
            recorded_fingerprint("uniform-checked", 1 << 40).unwrap(),
            None
        );
    }
}
