//! Command-line simulator driver: run one workload on one system and
//! print the full statistics report.
//!
//! ```text
//! lockiller_sim --system LockillerTM --workload vacation+ --threads 8 \
//!               [--scale tiny|small|full] [--cache typical|small|large] \
//!               [--retries N] [--seed N] [--backend threads|vm] [--timeline]
//! ```
//!
//! `--backend vm` runs the workload on the bytecode guest VM (only
//! workloads whose kernels compile to `guestvm` bytecode); results are
//! bit-identical to the default native backend.

use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::trace::render_timeline;
use sim_core::stats::{AbortCause, Phase};
use stamp::{Scale, Workload, WorkloadKind};

fn usage() -> ! {
    eprintln!(
        "usage: lockiller_sim --system <name> --workload <name> [--threads N]\n\
         \x20                  [--scale tiny|small|full] [--cache typical|small|large]\n\
         \x20                  [--retries N] [--seed N] [--backend threads|vm] [--timeline]\n\
         systems:   {}\n\
         workloads: {}",
        SystemKind::ALL.map(lockiller::SystemKind::name).join(" "),
        WorkloadKind::ALL.map(stamp::WorkloadKind::name).join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut system = SystemKind::LockillerTm;
    let mut workload = WorkloadKind::VacationHigh;
    let mut threads = 4usize;
    let mut scale = Scale::Small;
    let mut cache = "typical".to_string();
    let mut retries: Option<u32> = None;
    let mut seed = 0xC0FFEEu64;
    let mut backend = lockiller::Backend::Threads;
    let mut timeline = false;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--system" => {
                let v = take(&mut i);
                system = SystemKind::from_name(&v).unwrap_or_else(|| usage());
            }
            "--workload" => {
                let v = take(&mut i);
                workload = WorkloadKind::from_name(&v).unwrap_or_else(|| usage());
            }
            "--threads" => threads = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                scale = match take(&mut i).as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => usage(),
                }
            }
            "--cache" => cache = take(&mut i),
            "--retries" => retries = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                let v = take(&mut i);
                backend = lockiller::Backend::from_name(&v).unwrap_or_else(|| usage());
            }
            "--timeline" => timeline = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    let cfg = match cache.as_str() {
        "typical" => sim_core::config::SystemConfig::table1(),
        "small" => sim_core::config::SystemConfig::small_cache(),
        "large" => sim_core::config::SystemConfig::large_cache(),
        _ => usage(),
    };

    let mut prog = Workload::with_scale(workload, threads, scale);
    let mut runner = Runner::new(system)
        .threads(threads)
        .config(cfg)
        .seed(seed)
        .backend(backend);
    if let Some(r) = retries {
        runner = runner.retries(r);
    }

    println!(
        "{} / {} / {threads} threads / {cache} cache / scale {scale:?} / {} backend\n",
        system.name(),
        workload.name(),
        backend.name()
    );
    let (stats, trace) = if timeline {
        let mut out = runner.tracing().run(&mut prog);
        let trace = out.take_trace_events();
        (out.stats, trace)
    } else {
        (runner.run(&mut prog).stats, Vec::new())
    };

    println!("cycles                {}", stats.cycles);
    println!(
        "speculative commits   {} ({} after STL switch)",
        stats.commits, stats.stl_commits
    );
    println!("lock-path sections    {}", stats.lock_commits);
    println!("commit rate           {:.1}%", stats.commit_rate() * 100.0);
    println!("aborts                {}", stats.total_aborts());
    for c in AbortCause::ALL {
        if stats.abort_count(c) > 0 {
            println!("  {:<10} {}", c.name(), stats.abort_count(c));
        }
    }
    println!(
        "recovery rejects      {} (+{} by signature)",
        stats.rejects, stats.sig_rejects
    );
    println!("wake-ups              {}", stats.wakeups);
    println!("fallbacks             {}", stats.fallbacks);
    println!(
        "switches              {} granted / {} denied",
        stats.switches_granted, stats.switches_denied
    );
    println!(
        "NoC                   {} messages, {} hops",
        stats.messages, stats.hops
    );
    println!(
        "avg committed tx      {:.0} cycles, {:.1} read lines, {:.1} written lines",
        stats.avg_tx_len(),
        stats.avg_read_set(),
        stats.avg_write_set()
    );
    let total: u64 = Phase::ALL.iter().map(|p| stats.phase(*p)).sum();
    if total > 0 {
        println!("time breakdown:");
        for p in Phase::ALL {
            let frac = stats.phase(p) as f64 / total as f64;
            if frac > 0.0005 {
                println!("  {:<10} {:>5.1}%", p.name(), frac * 100.0);
            }
        }
    }
    if timeline {
        println!("\n{}", render_timeline(&trace, threads, 110));
    }
}
