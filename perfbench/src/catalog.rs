//! The metric catalogue: every metric the benchmark reports, with its
//! unit, and for each per-layer metric the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["vm-engine", "thread-guests", "verify-tools"];

/// An end-to-end metric: measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "sweep_s",
        unit: "s",
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
    },
    EndToEnd {
        name: "host_ns_per_event",
        unit: "ns",
    },
    EndToEnd {
        name: "schedules_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
    },
];

/// What a per-layer metric is expected to move.
pub enum Target {
    /// An end-to-end metric on a workload.
    Moves {
        metric: &'static str,
        workload: &'static str,
    },
    /// Tracked for its own sake; no end-to-end metric follows it.
    Tracks(&'static str),
}

/// A per-layer metric, reported by the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub target: Target,
}

const fn moves(
    name: &'static str,
    unit: &'static str,
    metric: &'static str,
    workload: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        target: Target::Moves { metric, workload },
    }
}

const VM: &str = "vm-engine";
const THREADS: &str = "thread-guests";
const VERIFY: &str = "verify-tools";

pub const PER_LAYER: [PerLayer; 39] = [
    moves(
        "sim_core.dequeue_ns_per_event",
        "ns",
        "sim_mcycles_per_s",
        VM,
    ),
    moves(
        "sim_core.queue_depth_mean",
        "count",
        "sim_mcycles_per_s",
        VM,
    ),
    moves(
        "sim_core.event_queue_peak",
        "count",
        "sim_mcycles_per_s",
        VM,
    ),
    moves("sim_core.events", "count", "sim_mcycles_per_s", VM),
    moves("coherence.ns_per_event", "ns", "sim_mcycles_per_s", VM),
    moves("coherence.llc_accesses", "count", "sim_cycles", VM),
    moves("coherence.llc_miss_ratio", "ratio", "sim_cycles", VM),
    moves("coherence.rejects", "count", "sim_cycles", VM),
    moves("coherence.sig_rejects", "count", "sim_cycles", THREADS),
    moves("noc.messages", "count", "sim_cycles", VM),
    moves("noc.flit_hops", "count", "sim_cycles", VM),
    moves("noc.queue_cycles", "cycles", "sim_cycles", VM),
    moves(
        "lockiller.dispatch_ns_per_event",
        "ns",
        "sim_mcycles_per_s",
        VM,
    ),
    moves(
        "lockiller.rendezvous_ns_per_event",
        "ns",
        "sim_mcycles_per_s",
        THREADS,
    ),
    PerLayer {
        name: "lockiller.unattributed_share",
        unit: "ratio",
        target: Target::Tracks("share of engine host self-time left in the bare `run` scope"),
    },
    moves("lockiller.run_ms", "ms", "sweep_s", VM),
    moves("lockiller.commit_ratio", "ratio", "sim_cycles", VM),
    moves("lockiller.aborts", "count", "sim_cycles", VM),
    moves("lockiller.fallbacks", "count", "sim_cycles", THREADS),
    moves("lockiller.switches_granted", "count", "sim_cycles", THREADS),
    moves("lockiller.switches_denied", "count", "sim_cycles", THREADS),
    moves("lockiller.wakeups", "count", "sim_cycles", THREADS),
    moves(
        "lockiller.htm_commit_p99_cycles",
        "cycles",
        "sim_cycles",
        VM,
    ),
    moves("lockiller.trace_overhead_ratio", "ratio", "sweep_s", VERIFY),
    moves("guestvm.resume_ns_per_event", "ns", "sim_mcycles_per_s", VM),
    moves("stamp.build_ms", "ms", "setup_s", THREADS),
    moves(
        "stamp.host_ns_per_event",
        "ns",
        "sim_mcycles_per_s",
        THREADS,
    ),
    moves("tmverify.explore_ms", "ms", "schedules_per_s", VERIFY),
    moves("tmverify.ms_per_schedule", "ms", "schedules_per_s", VERIFY),
    moves("tmverify.schedules", "count", "schedules_per_s", VERIFY),
    moves("tmverify.useful_ratio", "ratio", "schedules_per_s", VERIFY),
    moves("tmverify.frontier_peak", "count", "schedules_per_s", VERIFY),
    moves("tmstatic.analyze_ms", "ms", "schedules_per_s", VERIFY),
    moves("tmstatic.pruned_ratio", "ratio", "schedules_per_s", VERIFY),
    moves("tmcheck.check_ms", "ms", "sweep_s", VERIFY),
    moves("tmcheck.violations", "count", "sweep_s", VERIFY),
    moves("tmobs.export_ms", "ms", "sweep_s", VERIFY),
    moves("tmobs.spans", "count", "sweep_s", VERIFY),
    moves("prof.overhead_ratio", "ratio", "sweep_s", VM),
];

#[cfg(test)]
/// The metric-name grammar `BENCHMARK.json` imposes: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
/// The unit grammar: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn name_grammar() {
        for good in ["sweep_s", "sim_core.events", "a-1", "0x.y"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "a:b",
            "ns·event",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
    }

    #[test]
    fn every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload() {
        for m in &PER_LAYER {
            match m.target {
                Target::Moves { metric, workload } => {
                    assert!(
                        END_TO_END.iter().any(|e| e.name == metric),
                        "{} targets unknown metric {metric}",
                        m.name
                    );
                    assert!(
                        WORKLOADS.contains(&workload),
                        "{} targets unknown workload {workload}",
                        m.name
                    );
                }
                Target::Tracks(why) => assert!(!why.is_empty(), "{}", m.name),
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
