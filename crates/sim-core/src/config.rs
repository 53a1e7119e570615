//! System configuration mirroring Table I of the paper, plus the policy
//! knobs that distinguish the Table II systems.
//!
//! Configurations are assembled through [`SystemConfig::builder`]: a
//! preset base (Table I by default) plus fluent overrides, validated by
//! [`SystemConfigBuilder::build`] into either a `SystemConfig` or a typed
//! [`ConfigError`]. The historical presets remain as shortcuts:
//! [`SystemConfig::table1`] is the "typical" configuration every headline
//! experiment uses; [`SystemConfig::small_cache`] and
//! [`SystemConfig::large_cache`] are the Fig. 13 sensitivity points
//! (8 KB L1 / 1 MB LLC and 128 KB L1 / 32 MB LLC); and
//! [`SystemConfig::testing`] is the scaled-down unit-test system.
//!
//! [`SystemConfig::stable_hash`] gives a process-independent fingerprint
//! of every modelled parameter; the `tmlab` persistent run cache keys
//! simulation results on it (DESIGN.md §13).

use crate::fxhash::FxHasher;
use crate::types::{Cycle, LineAddr};
use std::hash::Hasher;

/// Geometry of one set-associative cache (sizes are per instance: one L1,
/// or one LLC bank).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Geometry for a cache of `bytes` capacity with `ways` associativity
    /// and 64-byte lines. Panics on an invalid geometry; the builder path
    /// ([`CacheGeometry::try_from_capacity`]) reports a typed error
    /// instead.
    pub fn from_capacity(bytes: usize, ways: usize) -> CacheGeometry {
        match CacheGeometry::try_from_capacity(bytes, ways) {
            Ok(g) => g,
            Err(ConfigError::BadCacheGeometry { reason, .. }) => panic!("{reason}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CacheGeometry::from_capacity`].
    pub fn try_from_capacity(bytes: usize, ways: usize) -> Result<CacheGeometry, ConfigError> {
        let bad = |reason: &'static str| ConfigError::BadCacheGeometry {
            bytes,
            ways,
            reason,
        };
        if ways == 0 {
            return Err(bad("associativity must be at least 1"));
        }
        let lines = bytes / 64;
        if lines < ways || !lines.is_multiple_of(ways) {
            return Err(bad("capacity not divisible by ways"));
        }
        let sets = lines / ways;
        if !sets.is_power_of_two() {
            return Err(bad("set count must be a power of two"));
        }
        Ok(CacheGeometry { sets, ways })
    }

    /// Total lines held.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a line number.
    #[inline]
    pub fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }
}

/// Memory-subsystem parameters (Table I).
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// Private L1 geometry (per core).
    pub l1: CacheGeometry,
    /// Shared LLC geometry **per bank** (one bank per tile).
    pub llc_bank: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_hit: Cycle,
    /// LLC bank access latency in cycles.
    pub llc_hit: Cycle,
    /// Off-chip memory latency in cycles.
    pub mem_latency: Cycle,
    /// Bits per overflow signature (OfRdSig / OfWrSig); Bloom filter size.
    pub signature_bits: usize,
    /// Hash functions per signature.
    pub signature_hashes: usize,
    /// Direct L1-to-L1 responses (§III-A: "assuming L1 nodes can
    /// communicate directly, the response containing reject information
    /// can be sent directly to the requester"): a probed owner answers
    /// the requester in one hop (data or reject) while acknowledging the
    /// directory in parallel. `false` = every response flows through the
    /// home bank (the paper's subordinate-only topology, Fig. 2 ④⑤⑥).
    pub direct_rsp: bool,
}

/// Network-on-chip parameters (Table I: 4x8 mesh, X-Y routing, 16 B flits).
#[derive(Clone, Copy, Debug)]
pub struct NocConfig {
    /// Mesh width (X dimension).
    pub width: usize,
    /// Mesh height (Y dimension).
    pub height: usize,
    /// Per-hop link latency in cycles.
    pub link_latency: Cycle,
    /// Flits in a control message.
    pub control_flits: u32,
    /// Flits in a data message (64 B line + header at 16 B flits = 5).
    pub data_flits: u32,
}

/// How a transaction's priority (the "user-defined data" carried on the
/// bus in the paper's recovery mechanism) is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityKind {
    /// No priority: the requester always wins (baseline best-effort HTM).
    RequesterWins,
    /// Instructions committed inside the current transaction attempt
    /// (the paper's insts-based policy).
    InstsBased,
    /// Memory references completed inside the current attempt (the
    /// progression-based policy attributed to LosaTM).
    ProgressionBased,
    /// First-come-first-served among HTM transactions: every HTM
    /// transaction has equal priority (ties broken by core id), used by
    /// the RWL configuration which has recovery but no insts-based
    /// priority.
    Fcfs,
}

/// What a requester does after the recovery mechanism rejects its request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectAction {
    /// Abort the requesting transaction (LockillerTM-RAI).
    SelfAbort,
    /// Re-issue the request after a fixed pause (LockillerTM-RRI).
    RetryLater,
    /// Park the request until the rejecting core sends a wake-up
    /// (LockillerTM-RWI and all HTMLock systems).
    WaitWakeup,
}

/// Policy knobs distinguishing the Table II systems. The `lockiller`
/// crate maps each named system to one of these.
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// Execute critical sections under a single global lock instead of HTM.
    pub coarse_grained_lock: bool,
    /// Enable the recovery (NACK/reject) mechanism.
    pub recovery: bool,
    /// Priority metric used when `recovery` is on.
    pub priority: PriorityKind,
    /// Requester behaviour on reject.
    pub reject_action: RejectAction,
    /// Enable the HTMLock mechanism (lock transactions run concurrently
    /// with HTM transactions; no lock subscription in HTM read sets).
    pub htmlock: bool,
    /// Enable the switchingMode mechanism (requires `htmlock`).
    pub switching_mode: bool,
    /// HTM retry budget before taking the fallback path (Listing 1's
    /// `TME_MAX_RETRIES`).
    pub max_retries: u32,
    /// Go to the fallback path immediately on capacity/fault aborts
    /// instead of burning the remaining retries.
    pub fallback_on_capacity: bool,
    /// Pause, in cycles, before re-issuing a rejected request under
    /// [`RejectAction::RetryLater`].
    pub retry_pause: Cycle,
    /// Safety-net timeout for parked (WaitWakeup) requests. A correctly
    /// functioning wake-up path never hits this; a stats counter records
    /// if it ever fires so tests can assert it stayed at zero.
    pub wakeup_timeout: Cycle,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            coarse_grained_lock: false,
            recovery: false,
            priority: PriorityKind::RequesterWins,
            reject_action: RejectAction::WaitWakeup,
            htmlock: false,
            switching_mode: false,
            max_retries: 8,
            fallback_on_capacity: true,
            retry_pause: 64,
            wakeup_timeout: 200_000,
        }
    }
}

/// Checked-mode configuration: turns on the tracing and live assertions
/// the `tmcheck` crate consumes, and optionally injects protocol faults
/// so the checkers themselves can be validated.
///
/// All fields default to off; a production run pays nothing for them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckCfg {
    /// Record access-level trace events (per-line reads/writes, NACKs,
    /// wake-ups) in addition to the attempt-level timeline, and run the
    /// SWMR invariant live after every protocol step. A detected SWMR
    /// violation is stored in [`RunStats::swmr_violation`] rather than
    /// panicking, so checked-mode harnesses can report it with context.
    ///
    /// [`RunStats::swmr_violation`]: crate::stats::RunStats::swmr_violation
    pub enabled: bool,
    /// Deliberate protocol mutations, used only to prove the checkers
    /// detect real bugs.
    pub fault: FaultInject,
}

impl CheckCfg {
    /// Checked mode with no injected faults — the configuration CI runs.
    pub fn on() -> CheckCfg {
        CheckCfg {
            enabled: true,
            fault: FaultInject::default(),
        }
    }
}

/// Deliberate protocol mutations for checker validation. Each knob breaks
/// one mechanism the paper's correctness argument depends on; `tmcheck`'s
/// mutation tests assert that every knob produces a detected violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInject {
    /// Directory ignores read/write conflicts between transactions: a
    /// conflicting requester is served data as if no owner existed, and
    /// the owner keeps its speculative state. Breaks conflict detection →
    /// serializability (DSG cycle).
    pub ignore_conflicts: bool,
    /// A rejecting owner "forgets" to invalidate/downgrade on a lost
    /// arbitration: the loser of HLA arbitration keeps its line instead
    /// of aborting. Breaks single-writer/multiple-reader (SWMR).
    pub drop_nack: bool,
    /// Wake-up messages to parked rejected requesters are silently
    /// dropped. Breaks liveness (parked cores only resume via the
    /// safety-net timeout).
    pub drop_wakeups: bool,
    /// The HLA arbiter grants an STL switch request even while another
    /// core already holds the lock transaction (and tolerates the
    /// resulting mismatched releases). Breaks TL/STL grant exclusivity —
    /// two cores run lock-mode critical sections concurrently.
    pub double_grant: bool,
    /// Conflict-arbitration priorities decay instead of accumulating:
    /// the priority written on each access is `BASE - p` rather than
    /// `p`. Breaks the paper's priority-monotonicity invariant (a
    /// transaction's priority must never decrease while it runs).
    pub prio_decay: bool,
}

impl FaultInject {
    /// True if any mutation knob is set.
    pub fn any(&self) -> bool {
        self.ignore_conflicts
            || self.drop_nack
            || self.drop_wakeups
            || self.double_grant
            || self.prio_decay
    }
}

/// Full system model configuration (Table I + policy).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of cores / tiles.
    pub num_cores: usize,
    pub mem: MemConfig,
    pub noc: NocConfig,
    pub policy: PolicyConfig,
    /// Checked-mode switches (tracing, live invariants, fault injection).
    pub check: CheckCfg,
    /// Cycles charged for processing an abort (register restore etc.).
    pub abort_penalty: Cycle,
    /// Cycles charged for a commit.
    pub commit_penalty: Cycle,
    /// Cycles charged to service a demand-paging fault outside a
    /// transaction (inside an HTM transaction a fault aborts instead).
    pub fault_service: Cycle,
}

impl SystemConfig {
    /// Start a validated configuration build from the Table-I base.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }

    /// The paper's Table I configuration: 32 in-order cores, 32 KB 4-way
    /// private L1s, 8 MB 16-way shared LLC, 4x8 mesh, 100-cycle memory.
    /// Shortcut for `SystemConfig::builder().build()`.
    pub fn table1() -> SystemConfig {
        SystemConfig::builder()
            .build()
            .expect("Table-I preset is valid")
    }

    /// Fig. 13 "small cache" point: 8 KB L1, 1 MB LLC.
    pub fn small_cache() -> SystemConfig {
        SystemConfig::builder()
            .l1_capacity(8 * 1024, 4)
            .llc_capacity(1024 * 1024, 16)
            .build()
            .expect("small-cache preset is valid")
    }

    /// Fig. 13 "large cache" point: 128 KB L1, 32 MB LLC.
    pub fn large_cache() -> SystemConfig {
        SystemConfig::builder()
            .l1_capacity(128 * 1024, 4)
            .llc_capacity(32 * 1024 * 1024, 16)
            .build()
            .expect("large-cache preset is valid")
    }

    /// Most cores the [`SystemConfig::testing`] preset builds.
    pub const TESTING_MAX_CORES: usize = 32;

    /// A scaled-down configuration for fast unit/integration tests:
    /// fewer cores and small caches, same protocol behaviour.
    pub fn testing(num_cores: usize) -> SystemConfig {
        assert!((1..=Self::TESTING_MAX_CORES).contains(&num_cores));
        SystemConfig::builder()
            .num_cores(num_cores)
            .fit_mesh()
            .l1_capacity(4 * 1024, 4)
            .llc_capacity(64 * 1024 / num_cores.next_power_of_two() * num_cores, 8)
            .build()
            .expect("testing preset is valid")
    }

    /// Number of LLC banks (one per tile).
    pub fn num_banks(&self) -> usize {
        self.num_cores
    }

    /// Home LLC bank of a line: lines interleave line-modulo-banks, the
    /// same mapping the engine and the `coherence` bank model use. A
    /// static analysis can therefore compute a program's exact per-bank
    /// footprint from its line set alone.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.num_banks()
    }

    /// L1 set a line maps to: private L1s index by the raw line number.
    /// Used by the static capacity analysis — more than
    /// [`SystemConfig::speculative_ways`] distinct speculative lines in
    /// one set guarantee a capacity overflow.
    pub fn l1_set_of(&self, line: LineAddr) -> usize {
        self.mem.l1.set_of(line.0)
    }

    /// Set a line occupies within its home LLC bank (banks index by
    /// line-divided-by-banks, mirroring the bank tag array's stride).
    pub fn llc_set_of(&self, line: LineAddr) -> usize {
        self.mem.llc_bank.set_of(line.0 / self.num_banks() as u64)
    }

    /// Speculative lines one L1 set can hold: the associativity. A
    /// transaction whose footprint puts more distinct lines than this
    /// into a single set cannot finish in HTM mode.
    pub fn speculative_ways(&self) -> usize {
        self.mem.l1.ways
    }

    /// Total speculative line capacity of one private L1 (upper bound on
    /// any transaction's combined read/write-set size).
    pub fn speculative_lines(&self) -> usize {
        self.mem.l1.lines()
    }

    /// Conservative distinct-line budget of one overflow Bloom signature:
    /// `bits / (8 * hashes)` keeps the false-positive probability of a
    /// saturating signature below roughly 0.2%, the regime in which
    /// switchingMode spill tracking stays precise. Footprints beyond this
    /// budget make signature aliasing (spurious conflicts) plausible.
    pub fn signature_line_budget(&self) -> usize {
        (self.mem.signature_bits / (8 * self.mem.signature_hashes)).max(1)
    }

    /// Schema version folded into [`SystemConfig::stable_hash`]; bump it
    /// whenever a field is added, removed, or its meaning changes so
    /// stale persisted results can never alias a new configuration.
    pub const HASH_SCHEMA: u64 = 2;

    /// A process-independent 64-bit fingerprint of every modelled
    /// parameter (memory, NoC, policy, checked-mode switches, penalties).
    ///
    /// Two `SystemConfig` values hash equal iff a simulation run cannot
    /// distinguish them; the hash is stable across processes and hosts
    /// (FxHash with a fixed field order, no pointer or RandomState
    /// input), which is what lets the `tmlab` run cache persist results
    /// on disk.
    pub fn stable_hash(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(SystemConfig::HASH_SCHEMA);
        h.write_usize(self.num_cores);
        // MemConfig.
        h.write_usize(self.mem.l1.sets);
        h.write_usize(self.mem.l1.ways);
        h.write_usize(self.mem.llc_bank.sets);
        h.write_usize(self.mem.llc_bank.ways);
        h.write_u64(self.mem.l1_hit);
        h.write_u64(self.mem.llc_hit);
        h.write_u64(self.mem.mem_latency);
        h.write_usize(self.mem.signature_bits);
        h.write_usize(self.mem.signature_hashes);
        h.write_u8(u8::from(self.mem.direct_rsp));
        // NocConfig.
        h.write_usize(self.noc.width);
        h.write_usize(self.noc.height);
        h.write_u64(self.noc.link_latency);
        h.write_u32(self.noc.control_flits);
        h.write_u32(self.noc.data_flits);
        // PolicyConfig.
        h.write_u8(u8::from(self.policy.coarse_grained_lock));
        h.write_u8(u8::from(self.policy.recovery));
        h.write_u8(match self.policy.priority {
            PriorityKind::RequesterWins => 0,
            PriorityKind::InstsBased => 1,
            PriorityKind::ProgressionBased => 2,
            PriorityKind::Fcfs => 3,
        });
        h.write_u8(match self.policy.reject_action {
            RejectAction::SelfAbort => 0,
            RejectAction::RetryLater => 1,
            RejectAction::WaitWakeup => 2,
        });
        h.write_u8(u8::from(self.policy.htmlock));
        h.write_u8(u8::from(self.policy.switching_mode));
        h.write_u32(self.policy.max_retries);
        h.write_u8(u8::from(self.policy.fallback_on_capacity));
        h.write_u64(self.policy.retry_pause);
        h.write_u64(self.policy.wakeup_timeout);
        // CheckCfg (fault injection changes behaviour; tracing does not,
        // but a traced run is still a distinct artifact).
        h.write_u8(u8::from(self.check.enabled));
        h.write_u8(u8::from(self.check.fault.ignore_conflicts));
        h.write_u8(u8::from(self.check.fault.drop_nack));
        h.write_u8(u8::from(self.check.fault.drop_wakeups));
        h.write_u8(u8::from(self.check.fault.double_grant));
        h.write_u8(u8::from(self.check.fault.prio_decay));
        // Penalties.
        h.write_u64(self.abort_penalty);
        h.write_u64(self.commit_penalty);
        h.write_u64(self.fault_service);
        h.finish()
    }
}

/// Typed validation failure from [`SystemConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Core count outside the modelled range.
    BadCoreCount { got: usize, min: usize, max: usize },
    /// The mesh has fewer tiles than cores (every core needs a tile with
    /// its L1 and LLC bank).
    MeshTooSmall {
        cores: usize,
        width: usize,
        height: usize,
    },
    /// A mesh dimension is zero.
    EmptyMesh { width: usize, height: usize },
    /// A cache capacity/associativity pair yields no valid set count.
    BadCacheGeometry {
        bytes: usize,
        ways: usize,
        reason: &'static str,
    },
    /// The total LLC capacity does not split evenly over the banks.
    LlcNotBankable { bytes: usize, banks: usize },
    /// An overflow signature needs at least one bit and one hash.
    BadSignature { bits: usize, hashes: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadCoreCount { got, min, max } => {
                write!(
                    f,
                    "core count {got} outside the modelled range {min}..={max}"
                )
            }
            ConfigError::MeshTooSmall {
                cores,
                width,
                height,
            } => write!(
                f,
                "{width}x{height} mesh has {} tiles but the system has {cores} cores",
                width * height
            ),
            ConfigError::EmptyMesh { width, height } => {
                write!(f, "mesh dimensions {width}x{height} include zero")
            }
            ConfigError::BadCacheGeometry {
                bytes,
                ways,
                reason,
            } => write!(f, "cache of {bytes} bytes / {ways} ways: {reason}"),
            ConfigError::LlcNotBankable { bytes, banks } => {
                write!(f, "LLC of {bytes} bytes does not split over {banks} banks")
            }
            ConfigError::BadSignature { bits, hashes } => {
                write!(
                    f,
                    "overflow signature of {bits} bits / {hashes} hashes is degenerate"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validated [`SystemConfig`] constructor: a preset base
/// (Table I unless another preset is given) plus overrides, checked as a
/// whole by [`SystemConfigBuilder::build`].
///
/// Cache overrides are expressed in capacity terms (`bytes`, `ways`) and
/// converted to set/way geometry at build time, so an invalid size
/// surfaces as a [`ConfigError`] instead of a panic deep in geometry
/// code. The LLC override takes the *total* capacity and splits it over
/// one bank per tile, like the paper's Table I.
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
    l1: Option<(usize, usize)>,
    llc_total: Option<(usize, usize)>,
    fit_mesh: bool,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder::new()
    }
}

impl SystemConfigBuilder {
    /// Builder seeded with the Table-I base configuration.
    pub fn new() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig {
                num_cores: 32,
                mem: MemConfig {
                    l1: CacheGeometry { sets: 128, ways: 4 },
                    // 8 MB shared LLC over 32 banks = 256 KB/bank, 16-way.
                    llc_bank: CacheGeometry {
                        sets: 256,
                        ways: 16,
                    },
                    l1_hit: 2,
                    llc_hit: 12,
                    mem_latency: 100,
                    signature_bits: 1024,
                    signature_hashes: 3,
                    direct_rsp: false,
                },
                noc: NocConfig {
                    width: 4,
                    height: 8,
                    link_latency: 1,
                    control_flits: 1,
                    data_flits: 5,
                },
                policy: PolicyConfig::default(),
                check: CheckCfg::default(),
                abort_penalty: 30,
                commit_penalty: 6,
                fault_service: 300,
            },
            l1: None,
            llc_total: None,
            fit_mesh: false,
        }
    }

    /// Builder seeded with an existing configuration (tweak-and-rebuild).
    pub fn from_config(cfg: SystemConfig) -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg,
            l1: None,
            llc_total: None,
            fit_mesh: false,
        }
    }

    /// Number of cores / tiles (1..=1024 modelled).
    pub fn num_cores(mut self, n: usize) -> Self {
        self.cfg.num_cores = n;
        self
    }

    /// Explicit mesh dimensions. Overrides [`SystemConfigBuilder::fit_mesh`].
    pub fn mesh(mut self, width: usize, height: usize) -> Self {
        self.cfg.noc.width = width;
        self.cfg.noc.height = height;
        self.fit_mesh = false;
        self
    }

    /// Choose the smallest near-square mesh holding every core instead of
    /// the preset's dimensions (what the scaled-down test configs want).
    pub fn fit_mesh(mut self) -> Self {
        self.fit_mesh = true;
        self
    }

    /// Private L1 capacity in bytes with the given associativity.
    pub fn l1_capacity(mut self, bytes: usize, ways: usize) -> Self {
        self.l1 = Some((bytes, ways));
        self
    }

    /// *Total* shared-LLC capacity in bytes with the given associativity;
    /// split over one bank per tile at build time.
    pub fn llc_capacity(mut self, bytes: usize, ways: usize) -> Self {
        self.llc_total = Some((bytes, ways));
        self
    }

    /// L1 hit latency in cycles.
    pub fn l1_hit(mut self, cycles: Cycle) -> Self {
        self.cfg.mem.l1_hit = cycles;
        self
    }

    /// LLC bank access latency in cycles.
    pub fn llc_hit(mut self, cycles: Cycle) -> Self {
        self.cfg.mem.llc_hit = cycles;
        self
    }

    /// Off-chip memory latency in cycles.
    pub fn mem_latency(mut self, cycles: Cycle) -> Self {
        self.cfg.mem.mem_latency = cycles;
        self
    }

    /// Overflow-signature geometry (Bloom bits and hash count).
    pub fn signature(mut self, bits: usize, hashes: usize) -> Self {
        self.cfg.mem.signature_bits = bits;
        self.cfg.mem.signature_hashes = hashes;
        self
    }

    /// Enable direct L1-to-L1 responses (§III-A topology variant).
    pub fn direct_rsp(mut self, on: bool) -> Self {
        self.cfg.mem.direct_rsp = on;
        self
    }

    /// Replace the whole policy block (usually `SystemKind::policy()`).
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Replace the checked-mode switches.
    pub fn check(mut self, check: CheckCfg) -> Self {
        self.cfg.check = check;
        self
    }

    /// Abort-processing penalty in cycles.
    pub fn abort_penalty(mut self, cycles: Cycle) -> Self {
        self.cfg.abort_penalty = cycles;
        self
    }

    /// Commit penalty in cycles.
    pub fn commit_penalty(mut self, cycles: Cycle) -> Self {
        self.cfg.commit_penalty = cycles;
        self
    }

    /// Demand-paging service latency in cycles.
    pub fn fault_service(mut self, cycles: Cycle) -> Self {
        self.cfg.fault_service = cycles;
        self
    }

    /// Validate the assembled configuration: core count in range, mesh
    /// large enough for every tile, cache geometries realizable, LLC
    /// bankable, signatures non-degenerate.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let mut cfg = self.cfg;
        if cfg.num_cores == 0 || cfg.num_cores > 1024 {
            return Err(ConfigError::BadCoreCount {
                got: cfg.num_cores,
                min: 1,
                max: 1024,
            });
        }
        if self.fit_mesh {
            let (w, h) = fit_mesh_dims(cfg.num_cores);
            cfg.noc.width = w;
            cfg.noc.height = h;
        }
        if cfg.noc.width == 0 || cfg.noc.height == 0 {
            return Err(ConfigError::EmptyMesh {
                width: cfg.noc.width,
                height: cfg.noc.height,
            });
        }
        if cfg.noc.width * cfg.noc.height < cfg.num_cores {
            return Err(ConfigError::MeshTooSmall {
                cores: cfg.num_cores,
                width: cfg.noc.width,
                height: cfg.noc.height,
            });
        }
        if let Some((bytes, ways)) = self.l1 {
            cfg.mem.l1 = CacheGeometry::try_from_capacity(bytes, ways)?;
        }
        if let Some((bytes, ways)) = self.llc_total {
            let banks = cfg.num_cores;
            if bytes == 0 || !bytes.is_multiple_of(banks) {
                return Err(ConfigError::LlcNotBankable { bytes, banks });
            }
            cfg.mem.llc_bank = CacheGeometry::try_from_capacity(bytes / banks, ways)?;
        }
        if cfg.mem.signature_bits == 0
            || !cfg.mem.signature_bits.is_power_of_two()
            || cfg.mem.signature_hashes == 0
        {
            return Err(ConfigError::BadSignature {
                bits: cfg.mem.signature_bits,
                hashes: cfg.mem.signature_hashes,
            });
        }
        Ok(cfg)
    }
}

/// Smallest power-of-two mesh holding `cores` tiles, using exactly the
/// shapes the scaled-down test configurations have always used (2x2,
/// 2x4, 4x4, 4x8) so simulated routes — and therefore cycle counts —
/// stay bit-identical; larger systems keep doubling the longer axis.
fn fit_mesh_dims(cores: usize) -> (usize, usize) {
    let (mut w, mut h) = (2, 2);
    while w * h < cores {
        if h <= w {
            h *= 2;
        } else {
            w *= 2;
        }
    }
    (w, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1();
        assert_eq!(c.num_cores, 32);
        // 32 KB, 4-way, 64 B lines => 128 sets.
        assert_eq!(c.mem.l1.sets, 128);
        assert_eq!(c.mem.l1.ways, 4);
        assert_eq!(c.mem.l1.lines() * 64, 32 * 1024);
        // 8 MB over 32 banks.
        assert_eq!(c.mem.llc_bank.lines() * 64 * 32, 8 * 1024 * 1024);
        assert_eq!(c.mem.llc_bank.ways, 16);
        assert_eq!(c.mem.l1_hit, 2);
        assert_eq!(c.mem.llc_hit, 12);
        assert_eq!(c.mem.mem_latency, 100);
        assert_eq!(c.noc.width * c.noc.height, 32);
        assert_eq!(c.noc.data_flits, 5);
        assert_eq!(c.noc.control_flits, 1);
        assert_eq!(c.noc.link_latency, 1);
    }

    #[test]
    fn cache_geometry_from_capacity() {
        let g = CacheGeometry::from_capacity(32 * 1024, 4);
        assert_eq!(g.sets, 128);
        assert_eq!(g.lines(), 512);
        // Set mapping masks low line bits.
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(127), 127);
        assert_eq!(g.set_of(128), 0);
    }

    #[test]
    fn sensitivity_configs() {
        let s = SystemConfig::small_cache();
        assert_eq!(s.mem.l1.lines() * 64, 8 * 1024);
        assert_eq!(s.mem.llc_bank.lines() * 64 * 32, 1024 * 1024);
        let l = SystemConfig::large_cache();
        assert_eq!(l.mem.l1.lines() * 64, 128 * 1024);
        assert_eq!(l.mem.llc_bank.lines() * 64 * 32, 32 * 1024 * 1024);
    }

    #[test]
    fn testing_config_meshes_fit() {
        for n in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            let c = SystemConfig::testing(n);
            assert!(
                c.noc.width * c.noc.height >= n,
                "mesh too small for {n} cores"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheGeometry::from_capacity(24 * 1024, 4);
    }

    #[test]
    fn static_analysis_accessors() {
        let c = SystemConfig::testing(4);
        // Bank interleave is line % banks, L1 indexes by raw line number,
        // bank sets stride by the bank count — the same mappings the
        // engine and the coherence bank/L1 models use.
        assert_eq!(c.num_banks(), 4);
        assert_eq!(c.bank_of(LineAddr(6)), 2);
        assert_eq!(c.l1_set_of(LineAddr(6)), c.mem.l1.set_of(6));
        assert_eq!(c.llc_set_of(LineAddr(6)), c.mem.llc_bank.set_of(6 / 4));
        assert_eq!(c.speculative_ways(), c.mem.l1.ways);
        assert_eq!(c.speculative_lines(), c.mem.l1.sets * c.mem.l1.ways);
        // Table-I signature: 1024 bits, 3 hashes -> 42-line budget.
        assert_eq!(SystemConfig::table1().signature_line_budget(), 42);
        // Degenerate geometries still give a usable (>= 1) budget.
        let tiny = SystemConfig::builder().signature(8, 4).build().unwrap();
        assert_eq!(tiny.signature_line_budget(), 1);
    }

    #[test]
    fn builder_matches_presets() {
        // The presets are now builder shortcuts; spot-check the builder
        // reproduces the historical values field-for-field.
        let b = SystemConfig::builder().build().unwrap();
        let t = SystemConfig::table1();
        assert_eq!(b.stable_hash(), t.stable_hash());
        assert_eq!(b.mem.l1.sets, 128);
        let s = SystemConfig::builder()
            .l1_capacity(8 * 1024, 4)
            .llc_capacity(1024 * 1024, 16)
            .build()
            .unwrap();
        assert_eq!(s.stable_hash(), SystemConfig::small_cache().stable_hash());
        for n in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            let legacy = SystemConfig::testing(n);
            assert!(legacy.noc.width * legacy.noc.height >= n);
        }
    }

    #[test]
    fn builder_reports_typed_errors() {
        assert_eq!(
            SystemConfig::builder().num_cores(0).build().unwrap_err(),
            ConfigError::BadCoreCount {
                got: 0,
                min: 1,
                max: 1024
            }
        );
        assert_eq!(
            SystemConfig::builder().mesh(2, 2).build().unwrap_err(),
            ConfigError::MeshTooSmall {
                cores: 32,
                width: 2,
                height: 2
            }
        );
        assert_eq!(
            SystemConfig::builder().mesh(0, 8).build().unwrap_err(),
            ConfigError::EmptyMesh {
                width: 0,
                height: 8
            }
        );
        assert!(matches!(
            SystemConfig::builder().l1_capacity(24 * 1024, 4).build(),
            Err(ConfigError::BadCacheGeometry { .. })
        ));
        assert!(matches!(
            SystemConfig::builder().llc_capacity(1000, 16).build(),
            Err(ConfigError::LlcNotBankable { .. })
        ));
        assert!(matches!(
            SystemConfig::builder().signature(0, 3).build(),
            Err(ConfigError::BadSignature { .. })
        ));
        // Errors are Display + Error.
        let e = SystemConfig::builder().num_cores(0).build().unwrap_err();
        assert!(e.to_string().contains("core count"));
    }

    #[test]
    fn builder_from_config_tweaks() {
        let base = SystemConfig::table1();
        let tweaked = SystemConfigBuilder::from_config(base.clone())
            .mem_latency(200)
            .build()
            .unwrap();
        assert_eq!(tweaked.mem.mem_latency, 200);
        assert_ne!(tweaked.stable_hash(), base.stable_hash());
    }

    #[test]
    fn stable_hash_distinguishes_all_layers() {
        let base = SystemConfig::table1();
        let mut cfgs = vec![base.clone()];
        cfgs.push(SystemConfig::small_cache());
        cfgs.push(SystemConfig::large_cache());
        cfgs.push(SystemConfig::testing(4));
        let mut c = base.clone();
        c.policy.max_retries += 1;
        cfgs.push(c);
        let mut c = base.clone();
        c.check.fault.drop_nack = true;
        cfgs.push(c);
        let mut c = base.clone();
        c.check.fault.double_grant = true;
        cfgs.push(c);
        let mut c = base.clone();
        c.check.fault.prio_decay = true;
        cfgs.push(c);
        let mut c = base.clone();
        c.abort_penalty += 1;
        cfgs.push(c);
        let mut c = base.clone();
        c.noc.link_latency += 1;
        cfgs.push(c);
        let hashes: Vec<u64> = cfgs.iter().map(SystemConfig::stable_hash).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "configs {i} and {j} collide");
            }
        }
        // Deterministic across calls (and, by construction, processes).
        assert_eq!(base.stable_hash(), SystemConfig::table1().stable_hash());
    }
}
