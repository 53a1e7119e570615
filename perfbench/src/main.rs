//! Host-throughput benchmark of the simulator and its verification
//! tools.
//!
//! ```text
//! perfbench --workload <vm-engine|thread-guests|verify-tools|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one caller, a closed loop: each op starts when the
//! previous one has returned. The launcher (`run.py`) pins the process
//! to one CPU before it starts. A run
//!
//! 1. builds the op list several times and reports the median as
//!    `setup_s`;
//! 2. runs one reference pass over the op list, whose outputs every
//!    later pass must reproduce byte for byte;
//! 3. repeats passes for `--seconds`. With `--trace 0` every pass is
//!    untraced and gives the end-to-end metrics. With `--trace 1`
//!    untraced and profiled passes alternate, each followed by the
//!    instrumented probe, and give the per-layer metrics;
//! 4. outside the timed phase, re-runs every VM point on the thread
//!    backend and runs the probe, checking that backend twins agree.
//!
//! Every op runs between two samples of a fixed calibration kernel, and
//! the end-to-end timings are reported in reference seconds (`calib`).
//!
//! `--seed` is the guest RNG seed of every simulation (explorations fix
//! their own). The last line of standard output is one JSON object;
//! digests of every op's output precede it, and a readable report goes
//! to standard error.

mod calib;
mod catalog;
mod ops;
mod summary;
mod workloads;

use lockiller::Backend;
use ops::{digest, Op, Outcome, Tally};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use summary::{median, quartiles, tail};

/// Seed held back from tuning the benchmark: claims are confirmed on it.
const HELD_OUT_SEED: u64 = 0xC0FFEE;
/// One set-up sample is the mean of as many builds of the op list as
/// fit in `SETUP_SAMPLE` (at least one): a single build of a small op
/// list takes a fraction of a millisecond, and its time alone is
/// bimodal from run to run. At least `SETUP_REPS` samples, and
/// `SETUP_MIN` in all, are taken before their median is reported.
const SETUP_SAMPLE: Duration = Duration::from_millis(10);
const SETUP_REPS: usize = 7;
const SETUP_MIN: Duration = Duration::from_millis(300);
/// Timed passes per kind (untraced, profiled) at the least.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        catalog::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                };
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The outcomes of one pass, in op order; `None` for a failed op.
type Pass = Vec<Option<Outcome>>;

/// Run every op once, each between two calibration samples.
fn run_pass(ops: &[Op], seed: u64, profile: bool, tally: &mut Tally) -> Pass {
    let mut before = calib::sample();
    ops.iter()
        .map(|op| {
            let outcome = tally.attempt(&op.label(), || op.run(seed, profile));
            let after = calib::sample();
            let factor = calib::factor(before, after);
            before = after;
            outcome.map(|o| Outcome {
                ref_ns: o.wall_ns as f64 * factor,
                ..o
            })
        })
        .collect()
}

/// Count every op whose record differs from the reference pass as
/// failed: a repeated point must reproduce its output byte for byte.
fn check_repeat(ops: &[Op], reference: &Pass, pass: &Pass, tally: &mut Tally) {
    for ((op, r), o) in ops.iter().zip(reference).zip(pass) {
        if let (Some(r), Some(o)) = (r, o) {
            if r.record != o.record {
                tally.fail(&op.label(), "output differs from the reference pass");
            }
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn outcomes(pass: &Pass) -> impl Iterator<Item = &Outcome> {
    pass.iter().flatten()
}

/// A per-pass figure, one sample per pass.
fn per_pass(passes: &[Timed], f: impl Fn(&Timed) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// Wall time of a pass, in host ns.
fn sweep_ns(p: &Pass) -> f64 {
    outcomes(p).map(|o| o.wall_ns as f64).sum()
}

/// Time of a pass, in reference ns.
fn sweep_ref_ns(p: &Pass) -> f64 {
    outcomes(p).map(|o| o.ref_ns).sum()
}

/// Reference ns, simulated cycles and engine events of the ops in a
/// pass whose simulations report statistics.
fn sim_totals(p: &Pass) -> (f64, f64, f64) {
    outcomes(p)
        .filter_map(|o| o.stats.as_ref().map(|s| (o, s)))
        .fold((0.0, 0.0, 0.0), |(ns, cyc, ev), (o, s)| {
            (
                ns + o.ref_ns,
                cyc + s.cycles as f64,
                ev + s.events_processed as f64,
            )
        })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A reported metric with the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn of(name: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            value: if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            },
            samples,
        }
    }

    fn exact(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: Vec::new(),
        }
    }

    fn describe(&self) -> String {
        let unit = catalog::unit_of(self.name);
        if self.samples.len() < 2 {
            return format!("{:<36} {:>16.6} {unit}", self.name, self.value);
        }
        let (q1, q3) = quartiles(&self.samples);
        let spread = ratio(q3 - q1, self.value.abs());
        let tail = match tail(&self.samples) {
            Some((q, v)) => format!(", p{} {v:.6}", q * 100.0),
            None => String::new(),
        };
        format!(
            "{:<36} {:>16.6} {unit}  (median of {}, q1 {q1:.6}, q3 {q3:.6}, iqr/median {spread:.4}{tail})",
            self.name,
            self.value,
            self.samples.len()
        )
    }
}

/// Everything one workload run produced.
struct Run {
    tally: Tally,
    metrics: Vec<Metric>,
    digests: Vec<(String, u64)>,
}

/// One timed pass: the op list and the probe (traced runs only).
struct Timed {
    ops: Pass,
    probe: Pass,
}

impl Timed {
    fn both(&self) -> impl Iterator<Item = &Outcome> {
        outcomes(&self.ops).chain(outcomes(&self.probe))
    }
}

fn run_workload(name: &str, ops: &[Op], args: &Args) -> Run {
    let seed = args.seed;
    let probe = workloads::probe();
    let mut tally = Tally::default();

    // 1. Set-up, several times over.
    let mut setup = Vec::new();
    let mut stamp_build = Vec::new();
    let before = calib::sample();
    let t = Instant::now();
    while setup.len() < SETUP_REPS || t.elapsed() < SETUP_MIN {
        let rep = Instant::now();
        let (mut builds, mut stamp_ns) = (0u32, 0u64);
        while builds == 0 || rep.elapsed() < SETUP_SAMPLE {
            stamp_ns += ops.iter().chain(&probe).map(Op::build).sum::<u64>();
            builds += 1;
        }
        setup.push(rep.elapsed().as_secs_f64() / f64::from(builds));
        stamp_build.push(stamp_ns as f64 / 1e6 / f64::from(builds));
    }
    let setup_speed = calib::factor(before, calib::sample());

    // 2. The reference pass. Peak memory is read after it: one build of
    // the op list plus one run of every op. Later passes only add the
    // allocator's fragmentation, which varies from run to run.
    let reference = run_pass(ops, seed, false, &mut tally);
    let peak_rss = peak_rss_mb();

    // 3. Timed passes.
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        let profile = args.trace && untraced.len() > traced.len();
        let pass = run_pass(ops, seed, profile, &mut tally);
        let probe_pass = if args.trace {
            run_pass(&probe, seed, profile, &mut tally)
        } else {
            Vec::new()
        };
        check_repeat(ops, &reference, &pass, &mut tally);
        let timed = Timed {
            ops: pass,
            probe: probe_pass,
        };
        if profile {
            traced.push(timed);
        } else {
            untraced.push(timed);
        }
        let enough = untraced.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // 4. Checks outside the timed phase.
    let probe_once;
    let probe_ref: &Pass = if args.trace {
        &untraced[0].probe
    } else {
        probe_once = run_pass(&probe, seed, false, &mut tally);
        &probe_once
    };
    let twins: Vec<Op> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Sim(p) if p.backend == Backend::Vm => Some(Op::Sim(p.twin())),
            _ => None,
        })
        .collect();
    let twin_pass = run_pass(&twins, seed, false, &mut tally);
    let mut digests = Vec::new();
    let mut by_key: BTreeMap<String, (String, String)> = BTreeMap::new();
    let all = [
        (ops, &reference),
        (&probe[..], probe_ref),
        (&twins[..], &twin_pass),
    ];
    for (list, pass) in all {
        for (op, o) in list.iter().zip(pass) {
            let Some(o) = o else { continue };
            digests.push((op.label(), digest(&o.record)));
            let Some(key) = op.twin_key() else { continue };
            match by_key.get(&key) {
                Some((label, record)) if *record != o.record => tally.fail(
                    &op.label(),
                    &format!("output differs from its backend twin {label}"),
                ),
                Some(_) => {}
                None => {
                    by_key.insert(key, (op.label(), o.record.clone()));
                }
            }
        }
    }
    check_pruning(ops, &reference, &mut tally);
    check_pruning(&probe, probe_ref, &mut tally);

    // Metrics.
    let metrics = if args.trace {
        let sweep = |passes: &[Timed]| median(&per_pass(passes, |t| sweep_ns(&t.ops)));
        let overhead = ratio(sweep(&traced), sweep(&untraced));
        per_layer(&reference, &untraced, &traced, overhead, stamp_build)
    } else {
        let reference_s: Vec<f64> = setup.iter().map(|s| s * setup_speed).collect();
        let wall: Vec<f64> = per_pass(&untraced, |t| sweep_ns(&t.ops) / 1e9);
        let sweeps: Vec<f64> = per_pass(&untraced, |t| sweep_ref_ns(&t.ops) / 1e9);
        eprintln!(
            "[{name}] raw wall time: setup {:.6} s, sweep {:.6} s; reference s per wall s {:.4} (medians)",
            median(&setup),
            median(&wall),
            median(&sweeps) / median(&wall)
        );
        let peak_rss = peak_rss.unwrap_or_else(|e| {
            tally.fail("peak_rss_mb", &e);
            0.0
        });
        vec![
            Metric::of("setup_s", reference_s),
            Metric::of("sweep_s", sweeps),
            Metric::of(
                "sim_mcycles_per_s",
                per_pass(&untraced, |t| {
                    let (ns, cycles, _) = sim_totals(&t.ops);
                    ratio(cycles * 1e3, ns)
                }),
            ),
            Metric::of(
                "host_ns_per_event",
                per_pass(&untraced, |t| {
                    let (ns, _, events) = sim_totals(&t.ops);
                    ratio(ns, events)
                }),
            ),
            Metric::of(
                "schedules_per_s",
                per_pass(&untraced, |t| {
                    let schedules: u64 = outcomes(&t.ops).map(Outcome::schedules).sum();
                    ratio(schedules as f64 * 1e9, sweep_ref_ns(&t.ops))
                }),
            ),
            Metric::exact("peak_rss_mb", peak_rss),
            Metric::exact("sim_cycles", sim_totals(&reference).1),
        ]
    };
    eprintln!(
        "[{name}] {} untraced + {} profiled pass(es) in {:.1} s",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    Run {
        tally,
        metrics,
        digests,
    }
}

/// The static table may only remove schedules, strictly so on the
/// specs the verify battery says it prunes, and a table that can
/// refine nothing must leave the exploration byte-identical.
fn check_pruning(ops: &[Op], pass: &Pass, tally: &mut Tally) {
    let explored: Vec<(&Op, &ops::ExploreFacts, Backend)> = ops
        .iter()
        .zip(pass)
        .filter_map(|(op, o)| match (op, o) {
            (Op::Explore { backend, .. }, Some(o)) => o.explore.as_ref().map(|e| (op, e, *backend)),
            _ => None,
        })
        .collect();
    for &(op, with, backend) in explored.iter().filter(|(_, e, _)| e.table) {
        let Some(&(_, without, _)) = explored
            .iter()
            .find(|(_, e, b)| !e.table && e.spec == with.spec && *b == backend)
        else {
            continue;
        };
        let strict = ops::SPECS
            .iter()
            .any(|s| s.name == with.spec && s.strict_prune);
        let why = if with.schedules > without.schedules {
            Some("the static table added schedules")
        } else if strict && with.schedules == without.schedules {
            Some("the static table no longer prunes this spec")
        } else if !with.prunable && with.digest != without.digest {
            Some("a vacuous static table changed the exploration")
        } else {
            None
        };
        if let Some(why) = why {
            tally.fail(&op.label(), why);
        }
    }
}

/// Self-time of the profile nodes whose leaf name satisfies `pick`, and
/// the events dispatched, over the profiles in a pass (op list and
/// probe) of runs on a backend accepted by `on`.
fn prof_sum(t: &Timed, on: impl Fn(Backend) -> bool, pick: impl Fn(&str) -> bool) -> (f64, f64) {
    let mut ns = 0.0;
    let mut events = 0.0;
    for (backend, r) in t.both().flat_map(|o| &o.profiles) {
        if on(*backend) {
            events += r.events as f64;
            ns += r
                .nodes
                .iter()
                .filter(|n| pick(n.name))
                .map(|n| n.self_ns as f64)
                .sum::<f64>();
        }
    }
    (ns, events)
}

fn per_layer(
    reference: &Pass,
    untraced: &[Timed],
    traced: &[Timed],
    prof_overhead: f64,
    stamp_build: Vec<f64>,
) -> Vec<Metric> {
    // Host time per event of one profile phase, per profiled pass
    // (op list plus probe).
    let phase = |on: &dyn Fn(Backend) -> bool, pick: &dyn Fn(&str) -> bool| -> Vec<f64> {
        per_pass(traced, |t| {
            let (ns, events) = prof_sum(t, on, pick);
            ratio(ns, events)
        })
    };
    let any = |_: Backend| true;
    let unattributed = per_pass(traced, |t| {
        let (root, _) = prof_sum(t, any, |n| n == "run");
        let total: f64 = t
            .both()
            .flat_map(|o| &o.profiles)
            .map(|(_, r)| r.total_ns as f64)
            .sum();
        ratio(root, total)
    });
    // Queue depth is deterministic: any profiled pass of the op list.
    let (depth_sum, depth_events) = traced.first().map_or((0.0, 0.0), |t| {
        outcomes(&t.ops)
            .flat_map(|o| &o.profiles)
            .fold((0.0, 0.0), |(s, e), (_, r)| {
                (s + r.q_depth_sum as f64, e + r.events as f64)
            })
    });

    // Exact counts over the reference pass of the op list.
    let stats: Vec<&sim_core::stats::RunStats> = outcomes(reference)
        .filter_map(|o| o.stats.as_ref())
        .collect();
    let total = |f: &dyn Fn(&sim_core::stats::RunStats) -> u64| -> f64 {
        stats.iter().map(|s| f(s) as f64).sum()
    };
    let llc_hits = total(&|s| s.bank_hits.iter().sum());
    let llc_misses = total(&|s| s.bank_misses.iter().sum());
    let mut latency = sim_core::latency::LatencyStats::default();
    for s in &stats {
        latency.merge(&s.latency);
    }
    let htm = latency.class(sim_core::latency::TxnClass::HtmCommit);

    // Figures timed from outside the program, over untraced passes
    // (op list plus probe).
    let outside =
        |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { per_pass(untraced, |t| t.both().map(f).sum()) };
    let explore_ms = |o: &Outcome| {
        o.explore
            .as_ref()
            .map_or(0.0, |e| e.explore_ns as f64 / 1e6)
    };
    let schedules_in = |o: &Outcome| o.explore.as_ref().map_or(0.0, |e| e.schedules as f64);
    let probe_ns = |f: fn(&ops::ProbeFacts) -> u64| {
        move |o: &Outcome| o.probe.as_ref().map_or(0.0, |p| f(p) as f64)
    };
    let ms_per_schedule: Vec<f64> = outside(&explore_ms)
        .iter()
        .zip(outside(&schedules_in))
        .map(|(ms, n)| ratio(*ms, n))
        .collect();
    let trace_overhead: Vec<f64> = outside(&probe_ns(|p| p.traced_ns))
        .iter()
        .zip(outside(&probe_ns(|p| p.plain_ns)))
        .map(|(t, p)| ratio(*t, p))
        .collect();
    // Host time inside `Runner::run`: plain simulations, sessions and
    // the probes' plain runs.
    let run_ms = outside(&|o: &Outcome| {
        let ns = match (&o.probe, &o.stats) {
            (Some(p), _) => p.plain_ns,
            (None, Some(_)) => o.wall_ns,
            (None, None) => 0,
        };
        ns as f64 / 1e6
    });

    // Exact exploration and probe counts from the first untraced pass.
    let first: Vec<&Outcome> = untraced
        .first()
        .map(|t| t.both().collect())
        .unwrap_or_default();
    let facts: Vec<&ops::ExploreFacts> = first.iter().filter_map(|o| o.explore.as_ref()).collect();
    let schedules: f64 = facts.iter().map(|e| e.schedules as f64).sum();
    let redundant: f64 = facts.iter().map(|e| e.redundant as f64).sum();
    let frontier_peak = facts.iter().map(|e| e.frontier_peak).max().unwrap_or(0);
    let (with_table, without_table) =
        facts
            .iter()
            .filter(|e| e.table)
            .fold((0.0, 0.0), |(w, wo), e| {
                let base = facts
                    .iter()
                    .find(|b| !b.table && b.spec == e.spec)
                    .map_or(0.0, |b| b.schedules as f64);
                (w + e.schedules as f64, wo + base)
            });
    let probes: Vec<&ops::ProbeFacts> = first.iter().filter_map(|o| o.probe.as_ref()).collect();

    let threads_only = |b: Backend| b == Backend::Threads;
    let vm_only = |b: Backend| b == Backend::Vm;
    vec![
        Metric::of(
            "sim_core.dequeue_ns_per_event",
            phase(&any, &|n| n == "dequeue"),
        ),
        Metric::exact("sim_core.queue_depth_mean", ratio(depth_sum, depth_events)),
        Metric::exact(
            "sim_core.event_queue_peak",
            stats.iter().map(|s| s.event_queue_peak).max().unwrap_or(0) as f64,
        ),
        Metric::exact("sim_core.events", total(&|s| s.events_processed)),
        Metric::of("coherence.ns_per_event", phase(&any, &|n| n == "coherence")),
        Metric::exact("coherence.llc_accesses", llc_hits + llc_misses),
        Metric::exact(
            "coherence.llc_miss_ratio",
            ratio(llc_misses, llc_hits + llc_misses),
        ),
        Metric::exact("coherence.rejects", total(&|s| s.rejects)),
        Metric::exact("coherence.sig_rejects", total(&|s| s.sig_rejects)),
        Metric::exact("noc.messages", total(&|s| s.messages)),
        Metric::exact("noc.flit_hops", total(&|s| s.flit_hops)),
        Metric::exact("noc.queue_cycles", total(&|s| s.noc_queue_cycles)),
        Metric::of(
            "lockiller.dispatch_ns_per_event",
            phase(&any, &|n| n.starts_with("ev_")),
        ),
        Metric::of(
            "lockiller.rendezvous_ns_per_event",
            phase(&threads_only, &|n| n == "guest_resume"),
        ),
        Metric::of("lockiller.unattributed_share", unattributed),
        Metric::of("lockiller.run_ms", run_ms),
        Metric::exact(
            "lockiller.commit_ratio",
            ratio(total(&|s| s.commits), total(&|s| s.tx_starts)),
        ),
        Metric::exact("lockiller.aborts", total(&|s| s.total_aborts())),
        Metric::exact("lockiller.fallbacks", total(&|s| s.fallbacks)),
        Metric::exact("lockiller.switches_granted", total(&|s| s.switches_granted)),
        Metric::exact("lockiller.switches_denied", total(&|s| s.switches_denied)),
        Metric::exact("lockiller.wakeups", total(&|s| s.wakeups)),
        Metric::exact("lockiller.htm_commit_p99_cycles", htm.p99() as f64),
        Metric::of("lockiller.trace_overhead_ratio", trace_overhead),
        Metric::of(
            "guestvm.resume_ns_per_event",
            phase(&vm_only, &|n| n == "guest_resume"),
        ),
        Metric::of("stamp.build_ms", stamp_build),
        Metric::of("stamp.host_ns_per_event", phase(&any, &|n| n == "stamp")),
        Metric::of("tmverify.explore_ms", outside(&explore_ms)),
        Metric::of("tmverify.ms_per_schedule", ms_per_schedule),
        Metric::exact("tmverify.schedules", schedules),
        Metric::exact(
            "tmverify.useful_ratio",
            ratio(schedules - redundant, schedules),
        ),
        Metric::exact("tmverify.frontier_peak", frontier_peak as f64),
        Metric::of(
            "tmstatic.analyze_ms",
            outside(&|o: &Outcome| {
                o.explore
                    .as_ref()
                    .map_or(0.0, |e| e.analyze_ns as f64 / 1e6)
            }),
        ),
        Metric::exact(
            "tmstatic.pruned_ratio",
            ratio(without_table - with_table, without_table),
        ),
        Metric::of(
            "tmcheck.check_ms",
            outside(&|o: &Outcome| probe_ns(|p| p.check_ns)(o) / 1e6),
        ),
        Metric::exact(
            "tmcheck.violations",
            probes.iter().map(|p| p.violations as f64).sum(),
        ),
        Metric::of(
            "tmobs.export_ms",
            outside(&|o: &Outcome| probe_ns(|p| p.export_ns)(o) / 1e6),
        ),
        Metric::exact("tmobs.spans", probes.iter().map(|p| p.spans as f64).sum()),
        Metric::exact("prof.overhead_ratio", prof_overhead),
    ]
}

fn json_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name,
                catalog::unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let names: Vec<&str> = if args.workload == "all" {
        catalog::WORKLOADS.to_vec()
    } else if catalog::WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        usage()
    };
    if args.seed == HELD_OUT_SEED {
        eprintln!("[perfbench] seed {HELD_OUT_SEED} is the held-out seed");
    }
    eprintln!(
        "[perfbench] single caller, closed loop; CPUs allowed: {}",
        cpus_allowed()
    );
    for name in names {
        let ops = workloads::ops(name).expect("catalogued workload");
        let run = run_workload(name, &ops, &args);
        let mode = if args.trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        eprintln!("[{name}] {mode} metrics, seed {}:", args.seed);
        for m in &run.metrics {
            eprintln!("  {}", m.describe());
            if let Some(l) = catalog::PER_LAYER.iter().find(|l| l.name == m.name) {
                match l.target {
                    catalog::Target::Moves { metric, workload } => {
                        eprintln!("  {:<36} -> {metric} on {workload}", "");
                    }
                    catalog::Target::Tracks(why) => eprintln!("  {:<36} -> tracks {why}", ""),
                }
            }
        }
        eprintln!(
            "  ops {} attempted, {} failed, failed_frac {:.6}",
            run.tally.attempted,
            run.tally.failed,
            run.tally.failed_frac()
        );
        for f in &run.tally.failures {
            eprintln!("  FAILED {f}");
        }
        let mut all = sim_core::fxhash::FxHasher::default();
        for (label, d) in &run.digests {
            println!("digest {name} {label} {d:016x}");
            std::hash::Hasher::write_u64(&mut all, *d);
        }
        println!("digest {name} all {:016x}", std::hash::Hasher::finish(&all));
        println!("{}", json_line(&run));
    }
}
