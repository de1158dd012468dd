//! The `serve-zipf` workload: one closed-loop client driving the
//! `mla-serve` daemon over its stdin/stdout, and the traced in-process
//! replay of the same frame script through `mla_serve::Server`.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use mla_runner::{read_frame, write_frame, Json};
use mla_serve::{Reply, Server};
use mla_sim::{open_session, BackendKind, PolicyKind, RecordMode, SessionSpec};

use crate::gen::{self, Frame, Rng, Tenant};
use crate::report::{self, Metrics, Outcome, Run};
use crate::trace::{self, NoTrace, Spans, Tracer};

const TENANTS: usize = 64;
const TOTAL_NODES: usize = 1 << 18;

/// Daemon start-ups timed after each pass, besides the one that opens
/// the pass, so that set-up samples spread over the run.
const EXTRA_SETUPS: usize = 2;

/// The generated inputs: tenants, the frame script, and every request
/// pre-rendered as wire bytes.
pub struct Workload {
    tenants: Vec<Tenant>,
    script: Vec<Frame>,
    /// Wire bytes of each script frame (empty for checkpoint pairs).
    requests: Vec<Vec<u8>>,
    opens: Vec<Vec<u8>>,
    costs: Vec<Vec<u8>>,
    outcomes: Vec<Vec<u8>>,
    checkpoint: Vec<u8>,
    restore: Vec<u8>,
    shutdown: Vec<u8>,
    checkpoint_path: PathBuf,
}

fn frame_bytes(message: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, message).expect("writing to a Vec cannot fail");
    out
}

fn events_json(events: &[mla_graph::RevealEvent]) -> Json {
    Json::Array(
        events
            .iter()
            .map(|e| Json::Array(vec![Json::from(e.a().index()), Json::from(e.b().index())]))
            .collect(),
    )
}

fn topology_name(t: mla_graph::Topology) -> &'static str {
    match t {
        mla_graph::Topology::Cliques => "cliques",
        mla_graph::Topology::Lines => "lines",
    }
}

impl Workload {
    pub fn new(seed: u64, out_dir: &Path) -> Self {
        Self::sized(seed, out_dir, TENANTS, TOTAL_NODES)
    }

    fn sized(seed: u64, out_dir: &Path, tenants: usize, total_nodes: usize) -> Self {
        let mut rng = Rng::new(seed);
        let tenants = gen::tenants(tenants, total_nodes, &mut rng);
        let script = gen::frame_script(&tenants, &mut rng);
        let op = |name: &str, tenant: &Tenant| {
            Json::object()
                .field("op", name)
                .field("tenant", tenant.name.as_str())
        };
        let requests = script
            .iter()
            .map(|frame| match *frame {
                Frame::Reveal { tenant, index } => {
                    let t = &tenants[tenant];
                    let e = t.events[index];
                    frame_bytes(
                        &op("reveal", t)
                            .field("a", e.a().index())
                            .field("b", e.b().index()),
                    )
                }
                Frame::Reveals { tenant, start, end } => {
                    let t = &tenants[tenant];
                    frame_bytes(
                        &op("reveals", t).field("events", events_json(&t.events[start..end])),
                    )
                }
                Frame::Position { tenant, node } => {
                    frame_bytes(&op("position", &tenants[tenant]).field("node", node))
                }
                Frame::Cost { tenant } => frame_bytes(&op("cost", &tenants[tenant])),
                Frame::CheckpointRestore => Vec::new(),
            })
            .collect();
        let opens = tenants
            .iter()
            .map(|t| {
                frame_bytes(
                    &op("open", t)
                        .field("topology", topology_name(t.topology))
                        .field("n", t.n)
                        .field("policy", "rand")
                        .field("backend", "segment")
                        .field("seed", t.seed)
                        .field("record", "off")
                        .field("check_feasibility", t.check_feasibility),
                )
            })
            .collect();
        let checkpoint_path = out_dir.join("serve-zipf.ckpt");
        let path = checkpoint_path.display().to_string();
        Workload {
            costs: tenants
                .iter()
                .map(|t| frame_bytes(&op("cost", t)))
                .collect(),
            outcomes: tenants
                .iter()
                .map(|t| frame_bytes(&op("outcome", t)))
                .collect(),
            checkpoint: frame_bytes(
                &Json::object()
                    .field("op", "checkpoint")
                    .field("path", path.as_str()),
            ),
            restore: frame_bytes(
                &Json::object()
                    .field("op", "restore")
                    .field("path", path.as_str()),
            ),
            shutdown: frame_bytes(&Json::object().field("op", "shutdown")),
            tenants,
            script,
            requests,
            opens,
            checkpoint_path,
        }
    }

    /// Fingerprint of every tenant's events and the rendered script.
    pub fn fingerprint(&self) -> u64 {
        let lists: Vec<&[mla_graph::RevealEvent]> =
            self.tenants.iter().map(|t| t.events.as_slice()).collect();
        let requests: Vec<u8> = self
            .opens
            .iter()
            .chain(&self.requests)
            .flatten()
            .copied()
            .collect();
        gen::fingerprint(&lists, &requests)
    }

    fn spec(t: &Tenant) -> SessionSpec {
        SessionSpec::new(
            t.topology,
            t.n,
            PolicyKind::Rand,
            BackendKind::Segment,
            t.seed,
        )
        .record(RecordMode::Off)
        .check_feasibility(t.check_feasibility)
    }
}

/// A tenant's final state as the `outcome` op reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TenantOutcome {
    steps: u64,
    moving_cost: u128,
    rearranging_cost: u128,
    perm: Vec<usize>,
}

fn parse_outcome(payload: &[u8]) -> Option<TenantOutcome> {
    let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
    if json.get("ok")?.as_bool()? {
        Some(TenantOutcome {
            steps: json.get("steps")?.as_u64()?,
            moving_cost: json.get("moving_cost")?.as_u128()?,
            rearranging_cost: json.get("rearranging_cost")?.as_u128()?,
            perm: json
                .get("perm")?
                .as_array()?
                .iter()
                .map(Json::as_usize)
                .collect::<Option<_>>()?,
        })
    } else {
        None
    }
}

/// Each tenant's outcome from an in-process session fed all its events.
fn reference_outcomes(w: &Workload) -> Vec<Option<TenantOutcome>> {
    w.tenants
        .iter()
        .map(|t| {
            // Frame-sized chunks: one call with a whole stream is far
            // slower, and any partition must give the same outcome.
            let mut session = open_session(Workload::spec(t)).ok()?;
            for chunk in t.events.chunks(gen::MAX_FRAME_EVENTS) {
                session.apply_events(chunk).ok()?;
            }
            let outcome = session.outcome();
            Some(TenantOutcome {
                steps: session.steps() as u64,
                moving_cost: session.moving_cost(),
                rearranging_cost: session.rearranging_cost(),
                perm: outcome.final_perm.iter().map(|node| node.index()).collect(),
            })
        })
        .collect()
}

fn is_ok(payload: &[u8]) -> bool {
    payload.starts_with(b"{\"ok\":true")
}

/// A running daemon and the client's ends of its pipes.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    header: String,
}

impl Daemon {
    fn spawn(binary: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(binary)
            .args(["--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            header: String::new(),
        })
    }

    /// Sends one request frame and reads the reply's payload.
    fn round_trip(&mut self, request: &[u8], payload: &mut Vec<u8>) -> std::io::Result<()> {
        self.stdin.write_all(request)?;
        self.header.clear();
        self.stdout.read_line(&mut self.header)?;
        let len: usize = self.header.trim().parse().map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad reply header")
        })?;
        payload.resize(len + 1, 0);
        self.stdout.read_exact(payload)?;
        payload.truncate(len);
        Ok(())
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self, request: &[u8]) -> std::io::Result<bool> {
        let mut payload = Vec::new();
        self.round_trip(request, &mut payload)?;
        let status = self.child.wait()?;
        Ok(status.success() && is_ok(&payload))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reaps the child after `shutdown`; on an error path, stops it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts a daemon and opens every tenant; returns it with the set-up
/// time and the number of failed opens.
fn start(w: &Workload, binary: &Path) -> std::io::Result<(Daemon, f64, u64)> {
    let begin = Instant::now();
    let mut daemon = Daemon::spawn(binary)?;
    let mut payload = Vec::new();
    let mut failed = 0;
    for open in &w.opens {
        daemon.round_trip(open, &mut payload)?;
        failed += u64::from(!is_ok(&payload));
    }
    Ok((daemon, begin.elapsed().as_secs_f64(), failed))
}

/// What one daemon pass measured.
#[derive(Default)]
struct Pass {
    outcome: Outcome,
    setup_s: f64,
    serve_s: f64,
    reveals: usize,
    frame_us: Vec<f64>,
    query_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    peak_rss_mb: f64,
    /// Raw `outcome` replies, for comparing runs byte for byte.
    outcome_replies: Vec<Vec<u8>>,
}

fn daemon_pass(
    w: &Workload,
    binary: &Path,
    reference: &[Option<TenantOutcome>],
) -> std::io::Result<Pass> {
    let (mut daemon, setup_s, open_failures) = start(w, binary)?;
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    pass.outcome.attempted += w.opens.len() as u64;
    pass.outcome.failed += open_failures;
    let mut payload = Vec::new();
    let mut before = Vec::new();
    for (frame, request) in w.script.iter().zip(&w.requests) {
        if *frame == Frame::CheckpointRestore {
            // The cost of every tenant before and after the pair (not
            // timed) must be unchanged by restoring what was written.
            before.clear();
            for cost in &w.costs {
                daemon.round_trip(cost, &mut payload)?;
                before.push(payload.clone());
            }
            let begin = Instant::now();
            daemon.round_trip(&w.checkpoint, &mut payload)?;
            pass.checkpoint_ms.push(begin.elapsed().as_secs_f64() * 1e3);
            let ok_checkpoint = is_ok(&payload);
            let begin = Instant::now();
            daemon.round_trip(&w.restore, &mut payload)?;
            pass.restore_ms.push(begin.elapsed().as_secs_f64() * 1e3);
            let ok_restore = is_ok(&payload);
            let mut unchanged = true;
            for (cost, seen) in w.costs.iter().zip(&before) {
                daemon.round_trip(cost, &mut payload)?;
                unchanged &= is_ok(&payload) && payload == *seen;
            }
            pass.outcome.attempted += 2;
            pass.outcome.failed +=
                u64::from(!ok_checkpoint) + u64::from(!ok_restore) + u64::from(!unchanged);
            continue;
        }
        let begin = Instant::now();
        daemon.round_trip(request, &mut payload)?;
        let elapsed = begin.elapsed().as_secs_f64();
        pass.serve_s += elapsed;
        pass.outcome.attempted += 1;
        pass.outcome.failed += u64::from(!is_ok(&payload));
        match *frame {
            Frame::Reveal { .. } => {
                pass.reveals += 1;
                pass.frame_us.push(elapsed * 1e6);
            }
            Frame::Reveals { start, end, .. } => {
                pass.reveals += end - start;
                pass.frame_us.push(elapsed * 1e6);
            }
            _ => pass.query_us.push(elapsed * 1e6),
        }
    }
    pass.peak_rss_mb = report::peak_rss_mb(Some(daemon.child.id()));
    for (request, expected) in w.outcomes.iter().zip(reference) {
        daemon.round_trip(request, &mut payload)?;
        let got = parse_outcome(&payload);
        if got.is_none() || got != *expected {
            pass.outcome.failed += 1;
        }
        pass.outcome_replies.push(payload.clone());
    }
    // The outcome reads and the shutdown.
    pass.outcome.attempted += w.outcomes.len() as u64 + 1;
    if !daemon.shutdown(&w.shutdown)? {
        pass.outcome.failed += 1;
    }
    Ok(pass)
}

/// Untraced run: daemon passes until `seconds` have elapsed.
pub fn run_untraced(w: &Workload, seconds: f64, binary: &Path) -> std::io::Result<Run> {
    let reference = reference_outcomes(w);
    let mut setups = Vec::new();
    let mut extra = Outcome::default();
    let begin = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        passes.push(daemon_pass(w, binary, &reference)?);
        for _ in 0..EXTRA_SETUPS {
            let (daemon, setup_s, open_failures) = start(w, binary)?;
            setups.push(setup_s);
            let stopped = daemon.shutdown(&w.shutdown)?;
            extra.attempted += w.opens.len() as u64 + 1;
            extra.failed += open_failures + u64::from(!stopped);
        }
    }
    let mut outcome = extra;
    let (mut frame_us, mut serve_s, mut reveals, mut rss) = (Vec::new(), 0.0, 0, Vec::new());
    for pass in &passes {
        outcome.attempted += pass.outcome.attempted;
        outcome.failed += pass.outcome.failed;
        setups.push(pass.setup_s);
        serve_s += pass.serve_s;
        reveals += pass.reveals;
        frame_us.extend_from_slice(&pass.frame_us);
        rss.push(pass.peak_rss_mb);
    }
    let mut metrics = Metrics::default();
    metrics.push("setup_s", trace::median(&mut setups), "s");
    metrics.push("reveals_per_s", reveals as f64 / serve_s, "1/s");
    metrics.push("peak_rss_mb", trace::median(&mut rss), "MB");
    metrics.push_percentiles("frame", &mut frame_us);
    Ok(Run { outcome, metrics })
}

/// Span names of the in-process server replay, indexed by `S_*`.
const SPAN_NAMES: &[&str] = &[
    "serve.frame",
    "runner.wire.parse",
    "serve.handle.reveals",
    "serve.handle.query",
    "runner.wire.render",
    "sim.checkpoint.encode",
    "sim.checkpoint.decode",
    "serve.checkpoint.io",
];
const S_FRAME: usize = 0;
const S_PARSE: usize = 1;
const S_HANDLE_REVEALS: usize = 2;
const S_HANDLE_QUERY: usize = 3;
const S_RENDER: usize = 4;
const S_ENCODE: usize = 5;
const S_DECODE: usize = 6;
const S_IO: usize = 7;

/// Deterministic counts of a server replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    bytes_in: u64,
    bytes_out: u64,
    checkpoint_bytes: u64,
    errors: u64,
}

/// What one in-process replay produced.
struct Replayed {
    counts: Counts,
    wall_s: f64,
    outcome_replies: Vec<Vec<u8>>,
}

fn handle(server: &mut Server, request: &Json) -> Json {
    match server.handle(request) {
        Reply::Continue(response) | Reply::Shutdown(response) => response,
    }
}

fn parse(bytes: &[u8]) -> Json {
    read_frame(&mut Cursor::new(bytes))
        .ok()
        .flatten()
        .unwrap_or(Json::Null)
}

/// Sends the frame script through an in-process `Server`, with the
/// daemon's settings (one shard, one thread): `read_frame`, `handle`
/// and `write_frame` per frame, and for each checkpoint pair the calls
/// `checkpoint`/`restore` make: encode, file write, file read, decode.
fn replay_server<T: Tracer>(w: &Workload, tracer: &mut T) -> Replayed {
    let mut server = Server::new(1, 1);
    let mut counts = Counts::default();
    let mut out = Vec::new();
    for open in &w.opens {
        let response = handle(&mut server, &parse(open));
        counts.errors += u64::from(response.get("ok").and_then(Json::as_bool) != Some(true));
    }
    let begin = Instant::now();
    for (k, (frame, request)) in w.script.iter().zip(&w.requests).enumerate() {
        let id = k as u32;
        tracer.begin(S_FRAME, id);
        if *frame == Frame::CheckpointRestore {
            tracer.begin(S_ENCODE, id);
            let bytes = server.checkpoint_bytes();
            tracer.end();
            tracer.begin(S_IO, id);
            let restored = std::fs::write(&w.checkpoint_path, &bytes)
                .and_then(|()| std::fs::read(&w.checkpoint_path));
            tracer.end();
            tracer.begin(S_DECODE, id);
            let decoded = restored.map(|back| server.restore_bytes(&back));
            tracer.end();
            counts.checkpoint_bytes += bytes.len() as u64;
            counts.errors += u64::from(!matches!(decoded, Ok(Ok(_))));
        } else {
            tracer.begin(S_PARSE, id);
            let parsed = read_frame(&mut Cursor::new(request.as_slice()));
            tracer.end();
            let class = match frame {
                Frame::Reveal { .. } | Frame::Reveals { .. } => S_HANDLE_REVEALS,
                _ => S_HANDLE_QUERY,
            };
            let response = match parsed {
                Ok(Some(json)) => {
                    tracer.begin(class, id);
                    let response = handle(&mut server, &json);
                    tracer.end();
                    response
                }
                _ => Json::Null,
            };
            out.clear();
            tracer.begin(S_RENDER, id);
            let rendered = write_frame(&mut out, &response);
            tracer.end();
            counts.bytes_in += request.len() as u64;
            counts.bytes_out += out.len() as u64;
            counts.errors += u64::from(rendered.is_err() || !is_ok(payload_of(&out)));
        }
        tracer.end();
    }
    let wall_s = begin.elapsed().as_secs_f64();
    let outcome_replies = w
        .outcomes
        .iter()
        .map(|request| {
            out.clear();
            let response = handle(&mut server, &parse(request));
            write_frame(&mut out, &response).expect("writing to a Vec cannot fail");
            payload_of(&out).to_vec()
        })
        .collect();
    Replayed {
        counts,
        wall_s,
        outcome_replies,
    }
}

/// The payload of a rendered frame (header and trailing newline cut).
fn payload_of(frame: &[u8]) -> &[u8] {
    let start = frame.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
    &frame[start..frame.len().saturating_sub(1).max(start)]
}

/// Per reveal frame, the summed duration of its parse, handle and render
/// spans, in µs.
fn traced_frame_us(spans: &Spans, w: &Workload) -> Vec<f64> {
    let mut sums: Vec<f64> = Vec::new();
    let mut current = u32::MAX;
    for s in &spans.spans {
        let frame = &w.script[s.id as usize];
        if s.parent == trace::NO_PARENT
            || !matches!(frame, Frame::Reveal { .. } | Frame::Reveals { .. })
        {
            continue;
        }
        if s.parent != current {
            current = s.parent;
            sums.push(0.0);
        }
        *sums.last_mut().expect("pushed above") += (s.end_ns - s.start_ns) as f64 * 1e-3;
    }
    sums
}

/// Traced run: each round runs one daemon pass (end-to-end frame times,
/// query and checkpoint round trips), one untraced and one traced
/// in-process replay, until `seconds` have elapsed.
pub fn run_traced(
    w: &Workload,
    seconds: f64,
    binary: &Path,
    trace_path: &Path,
) -> std::io::Result<Run> {
    let reference = reference_outcomes(w);
    let begin = Instant::now();
    let mut outcome = Outcome::default();
    let mut self_s: Vec<Vec<f64>> = vec![Vec::new(); SPAN_NAMES.len()];
    let (mut ratios, mut frame_us, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_us, mut checkpoint_ms, mut restore_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: Option<Counts> = None;
    let mut last_spans = None;
    while ratios.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        let pass = daemon_pass(w, binary, &reference)?;
        outcome.attempted += pass.outcome.attempted;
        outcome.failed += pass.outcome.failed;
        frame_us.extend_from_slice(&pass.frame_us);
        query_us.extend_from_slice(&pass.query_us);
        checkpoint_ms.extend_from_slice(&pass.checkpoint_ms);
        restore_ms.extend_from_slice(&pass.restore_ms);

        let untraced = replay_server(w, &mut NoTrace);
        let mut spans = Spans::new(SPAN_NAMES);
        let traced = replay_server(w, &mut spans);
        for replay in [&untraced, &traced] {
            outcome.attempted += w.script.len() as u64;
            outcome.failed += replay.counts.errors;
            if replay.outcome_replies != pass.outcome_replies {
                eprintln!("mlabench: in-process replay outcome differs from the daemon's");
                outcome.failed += 1;
            }
        }
        if *counts.get_or_insert(traced.counts) != traced.counts || untraced.counts != traced.counts
        {
            eprintln!("mlabench: replay counts differ between identical replays");
            outcome.failed += 1;
        }
        ratios.push(traced.wall_s / untraced.wall_s);
        for (name, s) in spans.self_seconds().into_iter().enumerate() {
            self_s[name].push(s);
        }
        traced_us.extend(traced_frame_us(&spans, w));
        last_spans = Some(spans);
    }
    if let Some(spans) = &last_spans {
        if let Err(err) = spans.write_to(trace_path) {
            eprintln!("mlabench: writing {}: {err}", trace_path.display());
            outcome.failed += 1;
        }
    }
    let counts = counts.unwrap_or_default();
    let mut self_median = |name: usize| trace::median(&mut self_s[name]);
    let mut metrics = Metrics::default();
    metrics.push("runner.wire.parse.self_s", self_median(S_PARSE), "s");
    metrics.push("runner.wire.render.self_s", self_median(S_RENDER), "s");
    metrics.push("runner.wire.bytes_in", counts.bytes_in as f64, "bytes");
    metrics.push("runner.wire.bytes_out", counts.bytes_out as f64, "bytes");
    metrics.push(
        "serve.handle.reveals.self_s",
        self_median(S_HANDLE_REVEALS),
        "s",
    );
    metrics.push(
        "serve.handle.query.self_s",
        self_median(S_HANDLE_QUERY),
        "s",
    );
    metrics.push("sim.checkpoint.encode.self_s", self_median(S_ENCODE), "s");
    metrics.push("sim.checkpoint.decode.self_s", self_median(S_DECODE), "s");
    metrics.push(
        "sim.checkpoint.bytes",
        counts.checkpoint_bytes as f64,
        "bytes",
    );
    metrics.push("serve.checkpoint.io.self_s", self_median(S_IO), "s");
    metrics.push("serve.frame.self_s", self_median(S_FRAME), "s");
    let e2e_p50 = trace::median(&mut frame_us);
    let traced_p50 = if traced_us.is_empty() {
        0.0
    } else {
        trace::median(&mut traced_us)
    };
    metrics.push("transport.frame_overhead_us", e2e_p50 - traced_p50, "us");
    metrics.push("serve.errors", counts.errors as f64, "count");
    metrics.push_percentiles("query", &mut query_us);
    metrics.push("checkpoint_ms", trace::median(&mut checkpoint_ms), "ms");
    metrics.push("restore_ms", trace::median(&mut restore_ms), "ms");
    metrics
        .samples
        .push(("checkpoint_ms".to_owned(), checkpoint_ms.len()));
    metrics
        .samples
        .push(("restore_ms".to_owned(), restore_ms.len()));
    metrics.push("trace.overhead_ratio", trace::median(&mut ratios), "ratio");
    Ok(Run { outcome, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_reference_and_repeats_with_spans() {
        let w = Workload::sized(3, &std::env::temp_dir(), 8, 2000);
        let reference = reference_outcomes(&w);
        let untraced = replay_server(&w, &mut NoTrace);
        let mut spans = Spans::new(SPAN_NAMES);
        let traced = replay_server(&w, &mut spans);
        assert_eq!(untraced.counts.errors, 0);
        assert!(untraced.counts.checkpoint_bytes > 0);
        assert_eq!(untraced.counts, traced.counts);
        assert_eq!(untraced.outcome_replies, traced.outcome_replies);
        for (reply, expected) in untraced.outcome_replies.iter().zip(&reference) {
            assert!(expected.is_some());
            assert_eq!(parse_outcome(reply), *expected);
        }
        let reveal_frames = w
            .script
            .iter()
            .filter(|f| matches!(f, Frame::Reveal { .. } | Frame::Reveals { .. }))
            .count();
        assert_eq!(traced_frame_us(&spans, &w).len(), reveal_frames);
        let _ = std::fs::remove_file(&w.checkpoint_path);
    }
}
