//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--verbose] [--jobs N] [--no-cache]
//!             [--cache FILE] [--csv FILE] [--bench-json FILE]
//!             [--backend threads|vm] [--no-profile]
//!             [table1|table2|fig1|fig7..fig13|headline|ablation|characterize|forensics|verify|engine|all]
//! ```
//!
//! `--quick` runs the reduced thread sweep {2, 8, 32} at Small workload
//! scale; the default runs {2,4,8,16,32} at Full scale (the numbers
//! recorded in EXPERIMENTS.md).
//!
//! `--backend vm` runs the `engine` battery's VM-capable points on the
//! bytecode guest VM instead of their native async bodies; simulated
//! results are bit-identical, only host metrics move (the CI
//! `guestvm-smoke` job relies on this).
//!
//! `--no-profile` drops the `tmprof` engine scope profiler from the
//! `engine` battery: points lose their `host.phases` attribution block
//! but simulate identically — another leaves-must-not-move axis the CI
//! `engine-perf-smoke` gate checks at 0% tolerance.
//!
//! `--jobs N` (or `LOCKILLER_JOBS=N`) fans simulation points across N
//! host threads; results are byte-identical for every N. Completed
//! points persist in a run cache (default `target/tmlab/cache.jsonl`,
//! override with `--cache FILE`, disable with `--no-cache`), so repeated
//! invocations only simulate what changed. `--bench-json FILE` writes
//! the host-side accounting (per-point wall-clock, cache hit rate,
//! parallel efficiency) as JSON; default `BENCH_lab.json`.

use lockiller_bench::experiments as ex;
use lockiller_bench::lab::Lab;
use stamp::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let verbose = args.iter().any(|a| a == "--verbose");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let profile = !args.iter().any(|a| a == "--no-profile");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let csv_path = flag_value("--csv");
    let cache_path = flag_value("--cache").unwrap_or_else(|| "target/tmlab/cache.jsonl".into());
    let bench_json = flag_value("--bench-json").unwrap_or_else(|| "BENCH_lab.json".into());
    let jobs = flag_value("--jobs")
        .or_else(|| std::env::var("LOCKILLER_JOBS").ok())
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let backend = match flag_value("--backend") {
        None => lockiller::Backend::Threads,
        Some(v) => lockiller::Backend::from_name(&v).unwrap_or_else(|| {
            eprintln!("unknown backend {v:?} (threads|vm)");
            std::process::exit(2);
        }),
    };

    let value_flags = ["--csv", "--cache", "--bench-json", "--jobs", "--backend"];
    let mut skip_next = false;
    let what: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if value_flags.contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(std::string::String::as_str)
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };

    let scale = if quick { Scale::Small } else { Scale::Full };
    let mut lab = Lab::new(scale);
    lab.verbose = verbose;
    lab.jobs(jobs);
    if !no_cache {
        match lab.with_cache(std::path::Path::new(&cache_path)) {
            Ok(l) => {
                if let Some(n) = l.disk_cached() {
                    eprintln!("[run cache: {cache_path}, {n} points on disk]");
                }
            }
            Err(e) => eprintln!("[run cache disabled: {cache_path}: {e}]"),
        }
    }

    for w in &what {
        match *w {
            "table1" => {
                ex::table1();
            }
            "table2" => {
                ex::table2();
            }
            "fig1" => {
                ex::fig1(&mut lab);
            }
            "fig7" => {
                ex::fig7(&mut lab, quick);
            }
            "fig8" => {
                ex::fig8(&mut lab, quick);
            }
            "fig9" => {
                ex::fig9(&mut lab, quick);
            }
            "fig10" => {
                ex::fig10(&mut lab);
            }
            "fig11" => {
                ex::fig11(&mut lab);
            }
            "fig12" => {
                ex::fig12(&mut lab, quick);
            }
            "fig13" => {
                ex::fig13(&mut lab, quick);
            }
            "headline" => {
                ex::headline(&mut lab, quick);
            }
            "ablation" => {
                lockiller_bench::ablation::run_all(scale);
            }
            "characterize" => {
                ex::characterize(&mut lab);
            }
            "plots" => {
                ex::plots(&mut lab, quick, std::path::Path::new("figures")).expect("write plots");
            }
            "forensics" => {
                ex::forensics(quick, std::path::Path::new("BENCH_forensics.json"))
                    .expect("write forensics json");
            }
            "verify" => {
                lockiller_bench::verify::run(
                    quick,
                    jobs,
                    std::path::Path::new("BENCH_verify.json"),
                )
                .expect("write verify json");
            }
            "engine" => {
                lockiller_bench::engine::run(
                    &mut lab,
                    quick,
                    backend,
                    profile,
                    std::path::Path::new("BENCH_engine.json"),
                )
                .expect("write engine json");
            }
            "all" => {
                ex::table1();
                ex::table2();
                ex::fig1(&mut lab);
                ex::fig7(&mut lab, quick);
                ex::fig8(&mut lab, quick);
                ex::fig9(&mut lab, quick);
                ex::fig10(&mut lab);
                ex::fig11(&mut lab);
                ex::fig12(&mut lab, quick);
                ex::fig13(&mut lab, quick);
                ex::headline(&mut lab, quick);
                ex::forensics(quick, std::path::Path::new("BENCH_forensics.json"))
                    .expect("write forensics json");
                lockiller_bench::verify::run(
                    quick,
                    jobs,
                    std::path::Path::new("BENCH_verify.json"),
                )
                .expect("write verify json");
                lockiller_bench::engine::run(
                    &mut lab,
                    quick,
                    backend,
                    profile,
                    std::path::Path::new("BENCH_engine.json"),
                )
                .expect("write engine json");
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, lab.dump_csv()).expect("write csv");
        eprintln!("[csv written to {path}]");
    }
    let report = lab.report();
    std::fs::write(&bench_json, report.to_json()).expect("write bench json");
    eprintln!(
        "[{} simulation points run ({} unique, {} cache hits, {} simulated) \
         in {:.1}s with {} jobs; hit rate {:.0}%, parallel efficiency {:.0}%; \
         report in {bench_json}]",
        lab.runs_cached(),
        report.unique,
        report.cache_hits,
        report.simulated,
        report.wall_ms / 1e3,
        report.jobs,
        report.cache_hit_rate() * 100.0,
        report.parallel_efficiency() * 100.0,
    );
}
