//! Schedule-exploration CLI: exhaustively check small configurations,
//! or replay a recorded witness.
//!
//! ```text
//! tmverify [explore] [--system NAME] [--prog SPEC | --cores N --lines N]
//!          [--inject FAULT]... [--no-safety-net] [--tiny-l1]
//!          [--retries N] [--depth-bound N] [--max-schedules N]
//!          [--max-cycles N] [--jobs N] [--no-state-dedup]
//!          [--backend threads|vm] [--random-prog SEED]
//!          [--out FILE] [--bench-json FILE] [-v]
//! tmverify replay WITNESS.json
//! ```
//!
//! Defaults: the 2-core/2-line conflict-ring kernel (`2/c:L0,S1/c:L1,S0`)
//! on LockillerRwi with the wake-up safety net *disabled* (exploration
//! wants lost wake-ups to surface as deadlocks, not 200k-cycle stalls).
//! `--prog` takes the DSL documented in `tmverify::progs`;
//! `--random-prog SEED` generates a deterministic random kernel instead.
//! Injections: ignore-conflicts, drop-nack, drop-wakeups, double-grant,
//! prio-decay.
//!
//! Exit codes — `explore`: 0 clean and complete, 1 violation found
//! (witness written to `--out`, default `tmverify-witness.json`),
//! 2 budget exhausted before the space was covered (or bad usage, or
//! more simulated threads than the exploration geometry supports).
//! `replay`: 0 witness reproduces its violation, 1 it does not,
//! 2 unreadable witness.

use lockiller::SystemKind;
use tmverify::dpor::{inject_by_name, Explorer, INJECT_NAMES};
use tmverify::progs::ProgSpec;

fn usage() -> ! {
    eprintln!(
        "usage: tmverify [explore] [--system NAME] [--prog SPEC | --cores N --lines N]\n\
         \x20               [--inject FAULT]... [--no-safety-net] [--tiny-l1]\n\
         \x20               [--retries N] [--depth-bound N] [--max-schedules N]\n\
         \x20               [--max-cycles N] [--jobs N] [--no-state-dedup]\n\
         \x20               [--backend threads|vm] [--random-prog SEED]\n\
         \x20               [--out FILE] [--bench-json FILE] [-v]\n\
         \x20      tmverify replay WITNESS.json\n\
         injections: {}",
        INJECT_NAMES.join(", ")
    );
    std::process::exit(2);
}

struct Args {
    explorer: Explorer,
    out: std::path::PathBuf,
    bench_json: Option<std::path::PathBuf>,
    verbose: bool,
}

fn parse_args(mut it: std::env::Args) -> Args {
    let mut system = SystemKind::LockillerRwi;
    let mut prog: Option<String> = None;
    let mut random_seed: Option<u64> = None;
    let mut cores: usize = 2;
    let mut lines: u64 = 2;
    let mut ex = Explorer::new(system, ProgSpec::conflict_ring(cores, lines));
    // Exploration defaults differ from simulation defaults: lost
    // wake-ups should deadlock, not ride the safety-net timeout.
    ex.no_safety_net = true;
    let mut out = std::path::PathBuf::from("tmverify-witness.json");
    let mut bench_json = None;
    let mut verbose = false;
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "explore" => {}
            "--system" | "-s" => {
                let v = val();
                let Some(k) = SystemKind::from_name(&v) else {
                    eprintln!("unknown system {v:?}");
                    usage();
                };
                system = k;
            }
            "--prog" | "-p" => prog = Some(val()),
            "--random-prog" => random_seed = Some(val().parse().unwrap_or_else(|_| usage())),
            "--cores" | "-c" => cores = val().parse().unwrap_or_else(|_| usage()),
            "--lines" | "-l" => lines = val().parse().unwrap_or_else(|_| usage()),
            "--inject" => {
                let v = val();
                if !inject_by_name(&mut ex.inject, &v) {
                    eprintln!("unknown injection {v:?}");
                    usage();
                }
            }
            "--no-safety-net" => ex.no_safety_net = true,
            "--safety-net" => ex.no_safety_net = false,
            "--tiny-l1" => ex.tiny_l1 = true,
            "--retries" => ex.retries = Some(val().parse().unwrap_or_else(|_| usage())),
            "--depth-bound" => ex.depth_bound = val().parse().unwrap_or_else(|_| usage()),
            "--max-schedules" => ex.max_schedules = val().parse().unwrap_or_else(|_| usage()),
            "--max-cycles" => ex.max_cycles = val().parse().unwrap_or_else(|_| usage()),
            "--jobs" | "-j" => ex.jobs = val().parse().unwrap_or_else(|_| usage()),
            "--no-state-dedup" => ex.state_dedup = false,
            "--backend" => {
                let v = val();
                let Some(b) = lockiller::Backend::from_name(&v) else {
                    eprintln!("unknown backend {v:?} (threads|vm)");
                    usage();
                };
                ex.backend = b;
            }
            "--out" | "-o" => out = val().into(),
            "--bench-json" => bench_json = Some(val().into()),
            "-v" | "--verbose" => verbose = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    ex.system = system;
    ex.spec = if let Some(seed) = random_seed {
        ProgSpec::random(&mut proptest::Rng::new(seed), cores, lines.max(1))
    } else if let Some(p) = &prog {
        ProgSpec::parse(p).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        })
    } else {
        if cores == 0 || lines == 0 {
            eprintln!("tmverify: --cores and --lines must be at least 1");
            usage();
        }
        ProgSpec::conflict_ring(cores, lines)
    };
    if let Err(e) = tmverify::dpor::check_threads(ex.spec.num_threads()) {
        eprintln!("tmverify: {e}");
        std::process::exit(2);
    }
    Args {
        explorer: ex,
        out,
        bench_json,
        verbose,
    }
}

fn cmd_replay(mut it: std::env::Args) -> ! {
    let Some(path) = it.next() else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tmverify: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let w = match tmobs::Witness::parse(&text) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tmverify: {path}: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", w.render());
    let ex = match Explorer::from_witness(&w) {
        Ok(ex) => ex,
        Err(e) => {
            eprintln!("tmverify: {path}: {e}");
            std::process::exit(2);
        }
    };
    let violations = ex.replay(&w.decisions);
    let reproduced = violations
        .iter()
        .any(|v| v.check.name() == w.violation_kind);
    if reproduced {
        println!(
            "reproduced: {} violation under the recorded schedule",
            w.violation_kind
        );
        std::process::exit(0);
    }
    if violations.is_empty() {
        println!("NOT reproduced: schedule ran clean");
    } else {
        println!(
            "NOT reproduced: expected {}, observed {}",
            w.violation_kind,
            violations
                .iter()
                .map(|v| v.check.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    std::process::exit(1);
}

fn main() {
    let mut raw = std::env::args();
    let _argv0 = raw.next();
    if let Some("replay") = std::env::args().nth(1).as_deref() {
        raw.next();
        cmd_replay(raw);
    }
    let args = parse_args(raw);
    let ex = &args.explorer;
    println!(
        "tmverify: exploring {} on {} (inject: [{}], safety net {}, dedup {}, jobs {}, \
         backend {})",
        ex.spec.render(),
        ex.system.name(),
        tmverify::dpor::inject_names(&ex.inject).join(", "),
        if ex.no_safety_net { "off" } else { "on" },
        if ex.state_dedup { "on" } else { "off" },
        ex.jobs.max(1),
        ex.backend.name(),
    );
    let rep = ex.explore();
    print!("{}", rep.render());
    if args.verbose {
        println!("{}", rep.to_json());
    }
    if let Some(path) = &args.bench_json {
        if let Err(e) = std::fs::write(path, rep.to_json() + "\n") {
            eprintln!("tmverify: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("wrote {}", path.display());
    }
    if let Some(w) = &rep.witness {
        match std::fs::write(&args.out, w.to_json() + "\n") {
            Ok(()) => println!("witness written to {}", args.out.display()),
            Err(e) => eprintln!("tmverify: cannot write {}: {e}", args.out.display()),
        }
    }
    std::process::exit(rep.exit_code());
}
