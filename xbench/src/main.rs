//! xbench: the repository's one benchmark. Four workloads drive the real
//! `xmorph_server::Server` over loopback TCP and the real `Engine`; each
//! checks every output, reports the end-to-end metrics a client sees and,
//! with `--trace 1`, the per-layer metrics behind them. See `README.md`.

mod heap;
mod inputs;
mod load;
mod metrics;
mod mixed;
mod serve;
mod stats;
mod trace;

use metrics::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Meter = heap::Meter;

pub const WORKLOADS: &[&str] = &["serve.point", "serve.full", "load.stream", "mixed.rw"];

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// One short window, one set-up, sample floors ÷ 20: a smoke run
    /// whose numbers are never compared with a full run's.
    pub quick: bool,
    /// Client connections of the capacity phase: the machine's cores.
    pub clients: usize,
    /// `xbench-<pid>` under the working directory; removed on exit.
    pub scratch: PathBuf,
}

impl Config {
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Slices of the measured window; a metric is the median of its
    /// per-lap values.
    pub fn laps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// A full run's sample floor, scaled down for `--quick`.
    pub fn floor(&self, full: usize) -> usize {
        if self.quick {
            full.div_ceil(20)
        } else {
            full
        }
    }
}

/// One workload: built from the seed, measured, traced, torn down. A
/// workload owns its engines and files; nothing survives into the next.
pub trait Workload: Sized {
    /// The measured run, tracing off: every end-to-end metric but `setup_s`.
    fn measure(&mut self, cfg: &Config, report: &mut Report) -> Result<(), String>;
    /// The traced run: every per-layer metric this workload exercises.
    fn trace(
        &mut self,
        cfg: &Config,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<(), String>;
    fn teardown(self) -> Result<(), String>;
}

fn drive<W: Workload>(
    name: &str,
    cfg: &Config,
    setup: impl Fn(&Config) -> Result<W, String>,
) -> Result<Report, String> {
    let setups = if cfg.trace || cfg.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    for _ in 0..setups {
        if let Some(previous) = workload.take() {
            previous.teardown()?;
        }
        let t0 = Instant::now();
        workload = Some(setup(cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let mut report = Report::new(cfg.trace);
    let outcome = if cfg.trace {
        let mut tracer = Tracer::new();
        let outcome = workload.trace(cfg, &mut report, &mut tracer);
        let path = PathBuf::from(format!(".xbench_out/trace-{name}-seed{}.jsonl", cfg.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{} spans written to {}", tracer.len(), path.display());
        println!("self time (a span minus its children), median per span name:");
        for (name, count, ms) in tracer.self_medians() {
            println!("  {name:<16} n {count:>6}  {ms:>10.4} ms");
        }
        outcome
    } else {
        println!("{setups} set-ups took {setup_s:.3?} s; setup_s is their median");
        report.set("setup_s", stats::median(&setup_s));
        workload.measure(cfg, &mut report)
    };
    // Tear down even after a failed run, so servers stop and files go.
    let torn = workload.teardown();
    outcome.and(torn)?;
    Ok(report)
}

fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    println!(
        "== {name}  seed {}  window {} s  trace {}  cores {}{}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.clients,
        if cfg.quick { "  \"quick\": true" } else { "" }
    );
    match name {
        "serve.point" => drive(name, cfg, |c| serve::Serve::setup(&serve::POINT, c)),
        "serve.full" => drive(name, cfg, |c| serve::Serve::setup(&serve::FULL, c)),
        "load.stream" => drive(name, cfg, load::LoadStream::setup),
        "mixed.rw" => drive(name, cfg, mixed::MixedRw::setup),
        _ => Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}")),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: xbench [--workload <name>] [--seed <n>] \
                 [--seconds <s>] [--trace <0|1>] [--quick]\nworkloads: {WORKLOADS:?}"
                ))
            }
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// Removes the scratch directory when `main` returns or unwinds.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    stats::check_tail_table(stats::TAIL_TABLE)?;
    let scratch = PathBuf::from(format!(".xbench_tmp/xbench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let _cleanup = Scratch(scratch.clone());
    let cfg = Config {
        seed: args.seed,
        seconds: if args.quick { 1.0 } else { args.seconds },
        trace: args.trace,
        quick: args.quick,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch,
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let report = run_workload(name, &cfg)?;
        all_correct &= report.correct();
        println!("{}", report.json()?);
    }
    Ok(all_correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("xbench: an output check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("xbench: {e}");
            std::process::exit(2);
        }
    }
}
