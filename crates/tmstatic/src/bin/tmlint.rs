//! Static lint CLI for `ProgSpec` kernels and compiled VM bytecode.
//!
//! ```text
//! tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]
//!        [--baseline FILE] [--table]
//! tmlint kernel (--prog SPEC | --stamp NAME) [--threads N]
//!        [--system NAME] [--tiny-l1] [--json] [--baseline FILE] [--table]
//! ```
//!
//! Both modes run the same analysis: the kernels `tmverify` executes
//! (the spec compiled under the standard runner arena layout) through
//! the abstract interpreter (`tmstatic::vmabs`). They differ in what
//! they report against. The default mode reports spec positions
//! (`tmstatic::lint`): (thread, segment, op) and spec line indices. The
//! `kernel` mode reports kernel positions (`tmstatic::vmlint`):
//! (thread, critical-region ordinal, instruction pc) and physical line
//! numbers; besides `--prog` it takes a STAMP VM workload by name
//! (`--stamp kmeans|kmeans-low|intruder-flow`, `--threads N` of them).
//! Both modes share the simulator geometry `tmverify` explores
//! (`--tiny-l1` matches the explorer's shrunk L1), the stable
//! one-JSON-object-per-line schema, and the `--baseline` diff protocol.
//! `--table` reports the DPOR pruning table the analysis would hand the
//! explorer; for a spec both modes report the same table.
//!
//! `--baseline FILE` compares against a checked-in baseline (the
//! `--json` output of a blessed run): only diagnostics *not* present in
//! the baseline count. CI uses this to fail on new diagnostics without
//! re-litigating known ones.
//!
//! Exit codes: 0 no (new) error-severity diagnostics, 1 at least one
//! (new) error, 2 bad usage, unreadable input, or more simulated
//! threads than the explorer's geometry supports.

use lockiller::SystemKind;
use tmstatic::{lint, lint_kernels, Analysis, Diag, Severity, VmAnalysis};
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

fn usage() -> ! {
    eprintln!(
        "usage: tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]\n\
         \x20             [--baseline FILE] [--table]\n\
         \x20      tmlint kernel (--prog SPEC | --stamp NAME) [--threads N]\n\
         \x20             [--system NAME] [--tiny-l1] [--json] [--baseline FILE] [--table]"
    );
    std::process::exit(2);
}

struct Opts {
    kernel_mode: bool,
    prog: Option<String>,
    stamp: Option<String>,
    threads: usize,
    system: SystemKind,
    tiny_l1: bool,
    json: bool,
    table: bool,
    baseline: Option<std::path::PathBuf>,
}

fn parse_args() -> Opts {
    let mut it = std::env::args().skip(1).peekable();
    let kernel_mode = it.peek().is_some_and(|a| a == "kernel");
    if kernel_mode {
        it.next();
    }
    let mut o = Opts {
        kernel_mode,
        prog: None,
        stamp: None,
        threads: 2,
        system: SystemKind::LockillerRwi,
        tiny_l1: false,
        json: false,
        table: false,
        baseline: None,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--prog" | "-p" => o.prog = Some(val()),
            "--stamp" if kernel_mode => o.stamp = Some(val()),
            "--threads" if kernel_mode => {
                let v = val();
                let Ok(n) = v.parse::<usize>() else {
                    eprintln!("tmlint: bad --threads {v:?}");
                    usage();
                };
                o.threads = n.max(1);
            }
            "--system" | "-s" => {
                let v = val();
                let Some(k) = SystemKind::from_name(&v) else {
                    eprintln!("tmlint: unknown system {v:?}");
                    usage();
                };
                o.system = k;
            }
            "--tiny-l1" => o.tiny_l1 = true,
            "--json" => o.json = true,
            "--table" => o.table = true,
            "--baseline" => o.baseline = Some(val().into()),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("tmlint: unknown argument {other:?}");
                usage();
            }
        }
    }
    o
}

/// Report diagnostics against the optional baseline; returns the exit
/// code. Shared verbatim by both modes so the JSON / baseline / exit
/// contract cannot drift between them.
fn report(diags: &[Diag], o: &Opts, subject: &str) -> i32 {
    let known: Vec<String> = match &o.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text.lines().map(str::to_string).collect(),
            Err(e) => {
                eprintln!("tmlint: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => Vec::new(),
    };
    let mut new_errors = 0usize;
    let mut new_any = 0usize;
    for d in diags {
        let row = d.to_json();
        let is_new = !known.contains(&row);
        if is_new {
            new_any += 1;
            if d.severity == Severity::Error {
                new_errors += 1;
            }
        }
        if o.json {
            println!("{row}");
        } else {
            let tag = if o.baseline.is_some() && !is_new {
                " (baseline)"
            } else {
                ""
            };
            println!("{}{tag}", d.render());
        }
    }
    if !o.json {
        eprintln!(
            "tmlint: {} diagnostic(s){} on {} ({})",
            diags.len(),
            if o.baseline.is_some() {
                format!(", {new_any} new vs baseline")
            } else {
                String::new()
            },
            subject,
            o.system.name(),
        );
    }
    i32::from(new_errors > 0)
}

fn print_table(t: Option<lockiller::StaticIndependence>) {
    match t {
        Some(t) => {
            let foot: Vec<String> = t.bank_foot.iter().map(|f| format!("{f:#b}")).collect();
            eprintln!(
                "tmlint: pruning table: pure={:#b} bank_foot=[{}]",
                t.pure,
                foot.join(", ")
            );
        }
        None => eprintln!("tmlint: pruning table unavailable (premises not provable)"),
    }
}

/// Explorer-identical geometry for `threads` simulated threads; exits 2
/// when they do not fit it.
fn geometry(threads: usize, tiny_l1: bool) -> sim_core::config::SystemConfig {
    if let Err(e) = tmverify::dpor::check_threads(threads) {
        eprintln!("tmlint: {e}");
        std::process::exit(2);
    }
    // Reuse Explorer::config so neither mode can drift from what
    // `tmverify` simulates; the spec itself is irrelevant beyond its
    // thread count.
    let mut ex = Explorer::new(
        SystemKind::LockillerRwi,
        ProgSpec::parse(&format!("1{}", "/p:C1".repeat(threads))).expect("trivial spec"),
    );
    ex.tiny_l1 = tiny_l1;
    ex.config()
}

fn parse_spec(prog: &str) -> ProgSpec {
    ProgSpec::parse(prog).unwrap_or_else(|e| {
        eprintln!("tmlint: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let o = parse_args();
    let (diags, table, subject) = if o.kernel_mode {
        let (kernels, subject) = match (&o.prog, &o.stamp) {
            (Some(p), None) => {
                let spec = parse_spec(p);
                let subject = format!("kernels of {}", spec.render());
                (tmverify::progs::SpecProgram::compile_all(&spec), subject)
            }
            (None, Some(name)) => {
                let kernels = match name.as_str() {
                    "kmeans" => stamp::kmeans::Kmeans::new(stamp::Scale::Tiny, o.threads, true)
                        .compile_standalone(),
                    "kmeans-low" => {
                        stamp::kmeans::Kmeans::new(stamp::Scale::Tiny, o.threads, false)
                            .compile_standalone()
                    }
                    "intruder-flow" => stamp::vm::IntruderFlow::new(stamp::Scale::Tiny, o.threads)
                        .compile_standalone(),
                    other => {
                        eprintln!("tmlint: unknown stamp workload {other:?}");
                        usage();
                    }
                };
                (kernels, format!("stamp {name} x{}", o.threads))
            }
            _ => {
                eprintln!("tmlint: kernel mode needs exactly one of --prog / --stamp");
                usage();
            }
        };
        let a = VmAnalysis::new(o.system, geometry(kernels.len(), o.tiny_l1), &kernels);
        (lint_kernels(&a), a.independence(), subject)
    } else {
        let Some(prog) = &o.prog else {
            eprintln!("tmlint: --prog is required");
            usage();
        };
        let spec = parse_spec(prog);
        let cfg = geometry(spec.num_threads(), o.tiny_l1);
        let a = Analysis::new(o.system, spec, cfg);
        (lint(&a), a.independence(), a.spec.render())
    };
    let code = report(&diags, &o, &subject);
    if o.table {
        print_table(table);
    }
    std::process::exit(code);
}
