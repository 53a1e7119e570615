//! Observability CLI: run one STAMP workload on one Table-II system with
//! the recorder attached and write the artifacts to disk.
//!
//! ```text
//! tmtrace [run]  [--workload NAME] [--system NAME] [--threads N]
//!                [--scale tiny|small|full] [--seed HEX] [--sample CYCLES]
//!                [--out DIR] [--timeline] [--validate] [-v]
//! tmtrace blame  [same options] [--top N]
//! tmtrace flame  [same options]
//! tmtrace diff   A.json B.json [--threshold PCT]
//! tmtrace perf-diff BASELINE.json CURRENT.json [--tolerance PCT]
//!                [--host-tolerance PCT] [--top-phases K]
//! tmtrace witness FILE.json [...]
//! ```
//!
//! Defaults: intruder on LockillerTM, 4 threads, tiny scale, artifacts
//! under `tmtrace-out/`. `--validate` re-parses the written Chrome trace
//! and checks its structural invariants (exit status 1 on failure, so CI
//! can gate on it). Load the `.trace.json` in <https://ui.perfetto.dev>.
//! An output directory or artifact that cannot be created, written or
//! read back exits 2 with the path and the OS error.
//!
//! `blame` additionally renders the conflict forensics (attacker/victim
//! matrix, per-line hotspots, recovery ledger), writes `<stem>.blame.json`,
//! and fails (exit 1) if the matrix's wasted-cycle total does not
//! reconcile with the run's aborted-cycle statistics. Both `run` and
//! `blame` write `<stem>.stats.json` so a later `tmtrace diff` can gate
//! on run-to-run regressions: `diff` exits 0 when no numeric leaf differs
//! beyond the threshold (default 0%: any change), 1 otherwise.
//!
//! `flame` runs the session with `tmprof` engine profiling enabled and
//! additionally writes `<stem>.flame.txt` (collapsed-stack flamegraph,
//! self-time in microseconds) and `<stem>.prof.trace.json` (the phase
//! tree as nested Chrome-trace slices); the `selfprof.json` gains the
//! schema-v2 `"prof"` block, and the command fails (exit 1) if the
//! flamegraph totals do not reconcile with it to the millisecond.
//!
//! `perf-diff` refuses (exit 2) to compare documents whose top-level
//! `"schema"` tags differ — the error names the path and both
//! versions — and, when host metrics moved, prints the top-K phase
//! shares that moved most (`--top-phases`, default 5): the phase
//! attribution of a host regression.
//!
//! `witness` renders `tmverify` schedule-witness files (see
//! `tmobs::witness`) without re-executing them; use `tmverify replay`
//! to re-run one.
//!
//! Built with `--features alloc-count`, `tmtrace` registers the counting
//! allocator, so `flame` also attributes heap allocations to phases (the
//! `allocs` column and field); without it they read 0.

use lockiller::system::SystemKind;
use stamp::{Scale, WorkloadKind};
use std::path::{Path, PathBuf};
use tmobs::{diff_docs, run_trace, validate_chrome, TraceArtifacts, TraceConfig};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: tmprof_alloc::CountingAlloc = tmprof_alloc::CountingAlloc;

enum Cmd {
    Run,
    Blame,
    Flame,
}

struct Args {
    cmd: Cmd,
    cfg: TraceConfig,
    out: PathBuf,
    timeline: bool,
    validate: bool,
    verbose: bool,
    top: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: tmtrace [run]  [--workload NAME] [--system NAME] [--threads N]\n\
         \x20              [--scale tiny|small|full] [--seed HEX] [--sample CYCLES]\n\
         \x20              [--out DIR] [--timeline] [--validate] [-v]\n\
         \x20      tmtrace blame [same options] [--top N]\n\
         \x20      tmtrace flame [same options]\n\
         \x20      tmtrace diff  A.json B.json [--threshold PCT]\n\
         \x20      tmtrace perf-diff BASELINE.json CURRENT.json [--tolerance PCT]\n\
         \x20              [--host-tolerance PCT] [--top-phases K]\n\
         \x20      tmtrace witness FILE.json [...]"
    );
    std::process::exit(2);
}

fn parse_args(mut it: std::env::Args) -> Args {
    let mut args = Args {
        cmd: Cmd::Run,
        cfg: TraceConfig::new(WorkloadKind::Intruder, SystemKind::LockillerTm),
        out: PathBuf::from("tmtrace-out"),
        timeline: false,
        validate: false,
        verbose: false,
        top: 10,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "run" => args.cmd = Cmd::Run,
            "blame" => args.cmd = Cmd::Blame,
            "flame" => {
                args.cmd = Cmd::Flame;
                args.cfg.profile = true;
            }
            "--workload" | "-w" => {
                let v = val();
                let Some(k) = WorkloadKind::from_name(&v) else {
                    eprintln!("unknown workload {v:?}");
                    usage();
                };
                args.cfg.workload = k;
            }
            "--system" | "-s" => {
                let v = val();
                let Some(k) = SystemKind::from_name(&v) else {
                    eprintln!("unknown system {v:?}");
                    usage();
                };
                args.cfg.system = k;
            }
            "--threads" | "-t" => {
                args.cfg.threads = val().parse().unwrap_or_else(|_| usage());
            }
            "--scale" => {
                args.cfg.scale = match val().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => usage(),
                };
            }
            "--seed" => {
                let v = val();
                let v = v.trim_start_matches("0x");
                args.cfg.seed = u64::from_str_radix(v, 16).unwrap_or_else(|_| usage());
            }
            "--sample" => {
                args.cfg.sample_every = val().parse().unwrap_or_else(|_| usage());
            }
            "--top" => args.top = val().parse().unwrap_or_else(|_| usage()),
            "--out" | "-o" => args.out = val().into(),
            "--timeline" => args.timeline = true,
            "--validate" => args.validate = true,
            "-v" | "--verbose" => args.verbose = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

/// `tmtrace diff A.json B.json [--threshold PCT]`: exit 0 when every
/// numeric leaf agrees within the threshold, 1 when any delta is flagged.
fn cmd_diff(mut it: std::env::Args) -> ! {
    let mut files: Vec<String> = Vec::new();
    let mut threshold = 0.0f64;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("diff needs exactly two JSON files");
        usage();
    }
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (read(&files[0]), read(&files[1]));
    match diff_docs(&a, &b, threshold) {
        Ok(deltas) if deltas.is_empty() => {
            println!(
                "no deltas beyond {threshold}% between {} and {}",
                files[0], files[1]
            );
            std::process::exit(0);
        }
        Ok(deltas) => {
            println!(
                "{} delta(s) beyond {threshold}% between {} and {}:",
                deltas.len(),
                files[0],
                files[1]
            );
            for d in &deltas {
                println!("  {}", d.render());
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("diff FAILED: {e}");
            std::process::exit(2);
        }
    }
}

/// `tmtrace perf-diff BASELINE.json CURRENT.json`: the CI perf gate.
/// Numeric leaves are split into two classes by path: anything under a
/// `host` object (wall-clock, cycles/sec, ns/cycle) is machine-dependent
/// and only gated when `--host-tolerance` is given — otherwise it is
/// reported but never fails the gate. Everything else is deterministic
/// simulator output (simulated cycles, commit counts, latency
/// percentiles) and is gated at `--tolerance` (default 0%: any change
/// fails). Exit 0 on pass, 1 on regression, 2 on usage/parse errors.
fn cmd_perf_diff(mut it: std::env::Args) -> ! {
    let mut files: Vec<String> = Vec::new();
    let mut tolerance = 0.0f64;
    let mut host_tolerance: Option<f64> = None;
    let mut top_phases = 5usize;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--host-tolerance" => {
                host_tolerance = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--top-phases" => {
                top_phases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("perf-diff needs exactly two JSON files (baseline, current)");
        usage();
    }
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (read(&files[0]), read(&files[1]));
    // Refuse to gate across schema versions: the error names the
    // offending path and both versions so the fix is self-evident.
    let parse = |name: &str, text: &str| {
        tmobs::json::parse(text).unwrap_or_else(|e| {
            eprintln!("perf-diff FAILED: {name}: {e}");
            std::process::exit(2);
        })
    };
    let (va, vb) = (parse(&files[0], &a), parse(&files[1], &b));
    if let Err(e) = tmobs::check_schema_match(&va, &vb, &files[0], &files[1]) {
        eprintln!("perf-diff FAILED: {e}");
        std::process::exit(2);
    }
    // Collect every changed leaf, then apply per-class tolerances.
    let deltas = tmobs::diff_values(&va, &vb, 0.0);
    let is_host = |path: &str| {
        path.split('.').any(|seg| {
            seg == "host"
                || seg
                    .strip_suffix(']')
                    .is_some_and(|s| s.starts_with("host["))
        })
    };
    let (host, det): (Vec<_>, Vec<_>) = deltas.into_iter().partition(|d| is_host(&d.path));
    let det_fail: Vec<_> = det.iter().filter(|d| d.rel_pct() > tolerance).collect();
    let host_fail: Vec<_> = match host_tolerance {
        Some(t) => host.iter().filter(|d| d.rel_pct() > t).collect(),
        None => Vec::new(),
    };
    println!(
        "perf-diff {} vs {}: {} deterministic delta(s), {} host delta(s)",
        files[0],
        files[1],
        det.len(),
        host.len()
    );
    if !host.is_empty() {
        match host_tolerance {
            Some(t) => println!("host metrics (gated at {t}%):"),
            None => println!("host metrics (report-only; pass --host-tolerance to gate):"),
        }
        for d in &host {
            println!("  {}", d.render());
        }
        // Attribution: which engine phases account for the host movement.
        let movers = tmobs::top_phase_movers(&host, top_phases);
        if !movers.is_empty() {
            println!(
                "top {} phase mover(s) (by absolute share change):",
                movers.len()
            );
            for d in movers {
                println!("  {}", d.render());
            }
        }
    }
    if !det_fail.is_empty() {
        println!("deterministic metrics beyond {tolerance}%:");
        for d in &det_fail {
            println!("  {}", d.render());
        }
    }
    if det_fail.is_empty() && host_fail.is_empty() {
        println!("perf gate PASSED");
        std::process::exit(0);
    }
    eprintln!(
        "perf gate FAILED: {} deterministic + {} host regression(s)",
        det_fail.len(),
        host_fail.len()
    );
    std::process::exit(1);
}

/// `tmtrace witness FILE.json [...]`: render witness files. Exit 0 when
/// every file parses, 2 otherwise.
fn cmd_witness(it: std::env::Args) -> ! {
    let mut any = false;
    for path in it {
        match path.as_str() {
            "-h" | "--help" => usage(),
            _ => {}
        }
        any = true;
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match tmobs::Witness::parse(&text) {
            Ok(w) => {
                println!("{path}:");
                print!("{}", w.render());
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        eprintln!("witness needs at least one file");
        usage();
    }
    std::process::exit(0);
}

fn main() {
    let mut it = std::env::args();
    it.next(); // argv[0]
               // `diff`, `perf-diff`, and `witness` have their own grammars
               // (positional files); dispatch before the flag parser sees
               // them.
    let args = match std::env::args().nth(1).as_deref() {
        Some("diff") => {
            it.next();
            cmd_diff(it)
        }
        Some("perf-diff") => {
            it.next();
            cmd_perf_diff(it)
        }
        Some("witness") => {
            it.next();
            cmd_witness(it)
        }
        _ => parse_args(it),
    };

    let art = run_trace(&args.cfg);

    if let Err(e) = &art.validation {
        eprintln!("workload validation FAILED: {e}");
        std::process::exit(1);
    }
    if let Err(e) = write_artifacts(&args, &art) {
        eprintln!("tmtrace: {e}");
        std::process::exit(2);
    }
}

/// An artifact that could not be written or read back. `tmtrace` exits 2
/// on it, naming the file.
#[derive(Debug)]
struct ArtifactError {
    action: &'static str,
    path: PathBuf,
    err: std::io::Error,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot {} {}: {}",
            self.action,
            self.path.display(),
            self.err
        )
    }
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), ArtifactError> {
    std::fs::write(path, contents).map_err(|err| ArtifactError {
        action: "write",
        path: path.to_path_buf(),
        err,
    })
}

/// Write the session's artifacts under `args.out` and run the
/// subcommand's checks over them (a failed check exits 1).
fn write_artifacts(args: &Args, art: &TraceArtifacts) -> Result<(), ArtifactError> {
    std::fs::create_dir_all(&args.out).map_err(|err| ArtifactError {
        action: "create directory",
        path: args.out.clone(),
        err,
    })?;
    let stem = format!(
        "{}-{}",
        args.cfg.workload.name(),
        args.cfg.system.name().to_lowercase()
    );
    let trace_path = args.out.join(format!("{stem}.trace.json"));
    let jsonl_path = args.out.join(format!("{stem}.metrics.jsonl"));
    let summary_path = args.out.join(format!("{stem}.summary.txt"));
    let stats_path = args.out.join(format!("{stem}.stats.json"));
    let selfprof_path = args.out.join(format!("{stem}.selfprof.json"));
    write_file(&trace_path, &art.chrome_json)?;
    write_file(&jsonl_path, &art.metrics_jsonl)?;
    write_file(&summary_path, &art.summary)?;
    write_file(&stats_path, art.stats.to_json())?;
    write_file(&selfprof_path, &art.selfprof_json)?;

    if matches!(args.cmd, Cmd::Flame) {
        let Some(report) = art.host_prof.as_ref() else {
            eprintln!("flame FAILED: the session ran without the profiler");
            std::process::exit(1);
        };
        let flame_text = tmobs::flame(report);
        let flame_path = args.out.join(format!("{stem}.flame.txt"));
        let prof_trace_path = args.out.join(format!("{stem}.prof.trace.json"));
        write_file(&flame_path, &flame_text)?;
        write_file(&prof_trace_path, tmobs::chrome_prof(report))?;
        print!("{}", tmobs::render_prof(report));
        // The acceptance bar: collapsed-stack totals reconcile with the
        // archived selfprof.json to the millisecond.
        let Some(flame_us) = tmobs::flame_total_us(&flame_text) else {
            eprintln!("flame reconciliation FAILED: malformed collapsed-stack line");
            std::process::exit(1);
        };
        let flame_ms = flame_us as f64 / 1e3;
        let prof_ms = report.total_ns as f64 / 1e6;
        if (flame_ms - prof_ms).abs() >= 1.0 {
            eprintln!(
                "flame reconciliation FAILED: flame {flame_ms:.3} ms vs profile {prof_ms:.3} ms"
            );
            std::process::exit(1);
        }
        println!("reconciled: flame {flame_ms:.3} ms == profile {prof_ms:.3} ms (< 1 ms apart)");
        println!("wrote {}", flame_path.display());
        println!("wrote {}", prof_trace_path.display());
    }

    if matches!(args.cmd, Cmd::Blame) {
        let blame_path = args.out.join(format!("{stem}.blame.json"));
        let doc = art.forensics.to_json(args.top);
        if let Err(e) = tmobs::json::parse(&doc) {
            eprintln!("blame JSON validation FAILED: {e}");
            std::process::exit(1);
        }
        write_file(&blame_path, &doc)?;
        print!("{}", art.forensics.render(args.top));
        match art.forensics.reconcile(&art.stats) {
            Ok(()) => println!(
                "\nreconciled: matrix wasted cycles == RunStats aborted cycles ({})",
                art.stats.aborted_cycles()
            ),
            Err(e) => {
                eprintln!("\nblame reconciliation FAILED: {e}");
                std::process::exit(1);
            }
        }
        println!("wrote {}", blame_path.display());
    } else {
        print!("{}", art.summary);
    }
    if args.timeline {
        print!("{}", art.timeline);
    }
    if args.verbose {
        print!("{}", art.profile);
    }
    println!(
        "wrote {} ({} spans, {} sample rows, {} conflict edges)",
        trace_path.display(),
        art.recorder.spans().len(),
        art.recorder.samples().len(),
        art.recorder.conflicts().len()
    );
    println!("wrote {}", jsonl_path.display());
    println!("wrote {}", summary_path.display());
    println!("wrote {}", stats_path.display());
    println!("wrote {}", selfprof_path.display());
    println!("open the trace at https://ui.perfetto.dev");

    if args.validate {
        let written = std::fs::read_to_string(&trace_path).map_err(|err| ArtifactError {
            action: "read back",
            path: trace_path.clone(),
            err,
        })?;
        match validate_chrome(&written) {
            Ok(s) => println!(
                "validated: {} spans on {} tracks, {} counter samples in {} series, {} instants",
                s.spans, s.tracks, s.counters, s.counter_series, s.instants
            ),
            Err(e) => {
                eprintln!("trace validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    Ok(())
}
