//! The interface every flat-memory placement scheme implements.
//!
//! A scheme (SILC-FM or a baseline) receives post-LLC-miss [`Access`]es and
//! decides which DRAM transactions happen: where the demand data is serviced
//! from, what metadata must be consulted, and what swap/migration traffic is
//! generated. The simulator charges the returned [`MemOp`]s against the DRAM
//! timing models.
//!
//! # The outcome-reuse protocol
//!
//! [`MemoryScheme::access`] writes into a caller-owned [`SchemeOutcome`]
//! instead of returning a fresh one. The driving loop (`System::run`) owns a
//! single outcome and hands it back for every miss; the scheme clears and
//! refills it. Combined with [`OpList`]'s inline capacity this makes the
//! access hot path allocation-free: ordinary misses never touch the heap,
//! and the rare spilling outcome (whole-block migrations) reuses the spill
//! buffer from previous misses. Tests and one-shot callers can use
//! [`MemoryScheme::access_fresh`], which allocates a new outcome per call
//! and is behaviorally identical.

use core::fmt;

use crate::access::Access;
use crate::fault::{FaultEffect, SchemeFault};
use crate::mem::{MemKind, MemOp};
use crate::obs::{TraceEvent, EVENT_KINDS};
use crate::oplist::OpList;

/// Compact per-access service-path markers a scheme sets alongside its
/// operations. The bits record conditions that are *not* reconstructible
/// from the emitted [`MemOp`]s — a bypassed access and an ordinary FM miss
/// emit the same demand read — so latency attribution
/// ([`AccessClass::classify`]) needs the scheme to say which path it took.
/// Schemes without those paths (all the baselines) never set a bit and pay
/// nothing: the field is cleared with the rest of the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessFlags(u8);

impl AccessFlags {
    /// No special service path.
    pub const NONE: Self = Self(0);
    /// The access bypassed NM caching (bypass predictor or failover).
    pub const BYPASS: Self = Self(1 << 0);
    /// The access was serviced by the all-ways-locked fallback path.
    pub const LOCKED: Self = Self(1 << 1);
    /// The controller was running fault-degraded (failover engaged or at
    /// least one way disabled) when the access was serviced.
    pub const DEGRADED: Self = Self(1 << 2);

    /// Sets the bits of `flag`.
    pub fn insert(&mut self, flag: Self) {
        self.0 |= flag.0;
    }

    /// Whether all bits of `flag` are set.
    pub const fn contains(self, flag: Self) -> bool {
        self.0 & flag.0 == flag.0
    }

    /// Whether no bit is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The latency-attribution class of one demand access: which service path
/// determined its issue-to-completion time. Every access belongs to exactly
/// one class (the classification is total and mutually exclusive), so the
/// per-class quantile sketches in `silcfm-obs` sum to the per-scheme
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Serviced from near memory with no migration traffic.
    NmHit,
    /// Serviced from far memory with no migration traffic.
    FmHit,
    /// The access triggered swap/migration traffic (subblock or block).
    SwapPath,
    /// The access bypassed NM caching.
    Bypass,
    /// Serviced by the all-ways-locked fallback path.
    Locked,
    /// Serviced while the controller ran fault-degraded.
    FaultDegraded,
}

impl AccessClass {
    /// Number of classes; sized for per-class metric arrays.
    pub const COUNT: usize = 6;

    /// All classes in report order.
    pub const ALL: [Self; Self::COUNT] = [
        Self::NmHit,
        Self::FmHit,
        Self::SwapPath,
        Self::Bypass,
        Self::Locked,
        Self::FaultDegraded,
    ];

    /// Dense index in `0..COUNT`, matching [`ALL`](Self::ALL) order.
    pub const fn index(self) -> usize {
        match self {
            Self::NmHit => 0,
            Self::FmHit => 1,
            Self::SwapPath => 2,
            Self::Bypass => 3,
            Self::Locked => 4,
            Self::FaultDegraded => 5,
        }
    }

    /// Short machine-readable label used in reports and artifacts.
    pub const fn label(self) -> &'static str {
        match self {
            Self::NmHit => "nm_hit",
            Self::FmHit => "fm_hit",
            Self::SwapPath => "swap",
            Self::Bypass => "bypass",
            Self::Locked => "locked",
            Self::FaultDegraded => "fault_degraded",
        }
    }

    /// Classifies one finished access from its outcome metadata. Precedence
    /// runs most-exceptional first — fault-degraded over locked over bypass
    /// over swap — so an access is attributed to the strongest condition
    /// that shaped its latency; only unexceptional accesses split into
    /// NM/FM hits by where the demand was serviced.
    pub const fn classify(serviced_from: MemKind, has_migration: bool, flags: AccessFlags) -> Self {
        if flags.contains(AccessFlags::DEGRADED) {
            Self::FaultDegraded
        } else if flags.contains(AccessFlags::LOCKED) {
            Self::Locked
        } else if flags.contains(AccessFlags::BYPASS) {
            Self::Bypass
        } else if has_migration {
            Self::SwapPath
        } else {
            match serviced_from {
                MemKind::Near => Self::NmHit,
                MemKind::Far => Self::FmHit,
            }
        }
    }

    /// [`classify`](Self::classify) reading everything from one scalar
    /// outcome (the migration scan walks both op lists).
    pub fn of_outcome(out: &SchemeOutcome) -> Self {
        let has_migration = out
            .critical
            .iter()
            .chain(out.background.iter())
            .any(|op| matches!(op.class, crate::mem::TrafficClass::Migration));
        Self::classify(out.serviced_from, has_migration, out.flags)
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a scheme decided for one demand access.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeOutcome {
    /// Operations on the critical path of the demand access, in order.
    /// The demand load completes when the last of these completes; they are
    /// issued back-to-back (each waits for the previous one).
    pub critical: OpList,
    /// Operations that consume bandwidth but do not block the demand access
    /// (swap writes, migration of additional subblocks, prefetches).
    pub background: OpList,
    /// Which memory the demand data was ultimately serviced from. This feeds
    /// the paper's *access rate* metric (Eq. 1).
    pub serviced_from: MemKind,
    /// Extra cycles during which *all* cores stall, used by the epoch-based
    /// HMA scheme to model OS overheads (context switches, TLB shootdowns).
    pub global_stall_cycles: u64,
    /// Service-path markers for latency attribution; see [`AccessFlags`].
    pub flags: AccessFlags,
}

impl SchemeOutcome {
    /// An empty outcome for the reuse protocol. Allocation-free.
    pub const fn empty() -> Self {
        Self {
            critical: OpList::new(),
            background: OpList::new(),
            serviced_from: MemKind::Far,
            global_stall_cycles: 0,
            flags: AccessFlags::NONE,
        }
    }

    /// Resets the outcome for refilling, keeping any heap capacity the op
    /// lists spilled into on earlier misses.
    pub fn clear(&mut self) {
        self.critical.clear();
        self.background.clear();
        self.serviced_from = MemKind::Far;
        self.global_stall_cycles = 0;
        self.flags = AccessFlags::NONE;
    }

    /// An outcome that services the demand from `mem` with the given
    /// critical-path operations and no background traffic.
    pub fn serviced(mem: MemKind, critical: Vec<MemOp>) -> Self {
        Self {
            critical: critical.into(),
            background: OpList::new(),
            serviced_from: mem,
            global_stall_cycles: 0,
            flags: AccessFlags::NONE,
        }
    }

    /// Total bytes moved on the critical path.
    pub fn critical_bytes(&self) -> u64 {
        self.critical.iter().map(|op| u64::from(op.bytes)).sum()
    }

    /// Total bytes moved in the background.
    pub fn background_bytes(&self) -> u64 {
        self.background.iter().map(|op| u64::from(op.bytes)).sum()
    }
}

impl Default for SchemeOutcome {
    fn default() -> Self {
        Self::empty()
    }
}

/// Aggregate statistics a scheme reports at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemeStats {
    /// Total demand accesses (LLC misses) seen.
    pub accesses: u64,
    /// Demand accesses serviced from near memory.
    pub serviced_from_nm: u64,
    /// Number of subblock-granularity transfers between NM and FM.
    pub subblocks_moved: u64,
    /// Number of whole-block migrations (locks, PoM migrations, HMA moves).
    pub blocks_migrated: u64,
    /// Scheme-specific named metrics (predictor accuracy, lock counts, …).
    /// Keys are static so building a stats snapshot allocates no strings.
    pub details: Vec<(&'static str, f64)>,
}

impl SchemeStats {
    /// The paper's *access rate* (Eq. 1): fraction of LLC misses serviced
    /// from NM. Returns 0 when no accesses were recorded.
    pub fn access_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.serviced_from_nm as f64 / self.accesses as f64
        }
    }

    /// Adds a named detail metric.
    pub fn detail(&mut self, name: &'static str, value: f64) {
        self.details.push((name, value));
    }

    /// Folds another snapshot into this one: counters add, and detail
    /// metrics with the same key add as well (a key present in only one
    /// side is carried over). Merging preserves the access-rate identity —
    /// the merged rate is the access-weighted mean of the inputs — so
    /// deterministic lane/epoch aggregation (see `silcfm-sim`'s sharded
    /// runner) loses nothing relative to a single serial tally.
    pub fn merge(&mut self, other: &SchemeStats) {
        self.accesses += other.accesses;
        self.serviced_from_nm += other.serviced_from_nm;
        self.subblocks_moved += other.subblocks_moved;
        self.blocks_migrated += other.blocks_migrated;
        for (key, value) in &other.details {
            match self.details.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v += value,
                None => self.details.push((key, *value)),
            }
        }
    }
}

impl fmt::Display for SchemeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} access_rate={:.3} subblocks_moved={} blocks_migrated={}",
            self.accesses,
            self.access_rate(),
            self.subblocks_moved,
            self.blocks_migrated
        )
    }
}

/// A hardware (or software) data-placement scheme managing the flat NM+FM
/// address space.
///
/// Implementations must be deterministic given the same access sequence so
/// that experiments are reproducible.
pub trait MemoryScheme {
    /// Handles one post-LLC-miss access, writing the memory traffic it
    /// causes into `out`.
    ///
    /// Implementations clear `out` before filling it; callers may pass the
    /// same outcome for every access (the reuse protocol) or a fresh one.
    fn access(&mut self, access: &Access, out: &mut SchemeOutcome);

    /// One-shot convenience around [`access`](MemoryScheme::access): runs
    /// the access against a freshly allocated outcome and returns it.
    /// Behaviorally identical to the reuse protocol (the equivalence is
    /// pinned by `tests/golden.rs`); meant for tests and examples, not the
    /// simulation loop.
    fn access_fresh(&mut self, access: &Access) -> SchemeOutcome {
        let mut out = SchemeOutcome::empty();
        self.access(access, &mut out);
        out
    }

    /// Short machine-readable name ("silcfm", "cameo", "pom", …).
    fn name(&self) -> &'static str;

    /// Statistics accumulated so far.
    fn stats(&self) -> SchemeStats;

    /// Resets all internal state and statistics, as if freshly constructed.
    fn reset(&mut self);

    /// Delivers one scheme-level fault, writing any recovery traffic
    /// (evacuation swaps, restored subblocks) into `out` and returning what
    /// the fault did to the data.
    ///
    /// Schemes without fault-plane support — all the baselines — keep this
    /// default: the fault has no modeled target, so it is
    /// [`Masked`](FaultEffect::Masked) and generates no traffic. The default leaves
    /// `out` untouched; implementations clear it before filling it, exactly
    /// like [`access`](MemoryScheme::access).
    fn apply_fault(&mut self, _fault: &SchemeFault, _out: &mut SchemeOutcome) -> FaultEffect {
        FaultEffect::Masked
    }

    /// Informs a tracing scheme of the simulation cycle the *next*
    /// [`access`](MemoryScheme::access) will be stamped with. Schemes have
    /// no clock of their own (the simulator owns time), so the driving loop
    /// injects it just before each access — and only when tracing is
    /// enabled, so the untraced path never pays the virtual call.
    fn trace_clock(&mut self, _cycle: u64) {}

    /// Removes and returns the scheme's buffered trace events, oldest
    /// first. Untraced schemes return nothing (and do not allocate: an
    /// empty `Vec` holds no heap memory).
    fn drain_trace(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Number of trace events the scheme's sink dropped to capacity limits.
    fn trace_dropped(&self) -> u64 {
        0
    }

    /// Monotonic per-kind event totals from the scheme's tracer, indexed by
    /// [`Event::kind_index`](crate::obs::Event::kind_index). Only counting
    /// sinks (the sampling tier in `silcfm-obs`) report nonzero values;
    /// everything else inherits this all-zeros default.
    fn trace_counters(&self) -> [u64; EVENT_KINDS] {
        [0; EVENT_KINDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    #[test]
    fn outcome_byte_accounting() {
        let out = SchemeOutcome {
            critical: vec![
                MemOp::metadata_read(MemKind::Near, PhysAddr::new(0), 8),
                MemOp::demand_read(MemKind::Near, PhysAddr::new(64), 64),
            ]
            .into(),
            background: vec![MemOp::migration_write(MemKind::Far, PhysAddr::new(128), 64)].into(),
            serviced_from: MemKind::Near,
            global_stall_cycles: 0,
            flags: AccessFlags::NONE,
        };
        assert_eq!(out.critical_bytes(), 72);
        assert_eq!(out.background_bytes(), 64);
    }

    #[test]
    fn serviced_helper() {
        let out = SchemeOutcome::serviced(
            MemKind::Far,
            vec![MemOp::demand_read(MemKind::Far, PhysAddr::new(0), 64)],
        );
        assert_eq!(out.serviced_from, MemKind::Far);
        assert!(out.background.is_empty());
        assert_eq!(out.global_stall_cycles, 0);
    }

    #[test]
    fn clear_resets_everything_observable() {
        let mut out = SchemeOutcome::serviced(
            MemKind::Near,
            vec![MemOp::demand_read(MemKind::Near, PhysAddr::new(0), 64)],
        );
        out.global_stall_cycles = 17;
        out.flags.insert(AccessFlags::BYPASS);
        out.clear();
        assert_eq!(out, SchemeOutcome::empty());
        assert_eq!(out.critical_bytes(), 0);
        assert!(out.flags.is_empty());
    }

    #[test]
    fn classification_is_total_and_precedence_ordered() {
        use crate::mem::TrafficClass;

        // Unexceptional accesses split by where the demand was serviced.
        let nm = SchemeOutcome::serviced(
            MemKind::Near,
            vec![MemOp::demand_read(MemKind::Near, PhysAddr::new(0), 64)],
        );
        assert_eq!(AccessClass::of_outcome(&nm), AccessClass::NmHit);
        let fm = SchemeOutcome::serviced(
            MemKind::Far,
            vec![MemOp::demand_read(MemKind::Far, PhysAddr::new(0), 64)],
        );
        assert_eq!(AccessClass::of_outcome(&fm), AccessClass::FmHit);

        // Migration traffic anywhere in the outcome marks the swap path.
        let mut swap = nm.clone();
        swap.background
            .push(MemOp::migration_write(MemKind::Near, PhysAddr::new(64), 64));
        assert_eq!(AccessClass::of_outcome(&swap), AccessClass::SwapPath);
        assert!(swap
            .background
            .iter()
            .any(|op| op.class == TrafficClass::Migration));

        // Flags take precedence over the op scan, strongest condition first.
        let mut flagged = swap.clone();
        flagged.flags.insert(AccessFlags::BYPASS);
        assert_eq!(AccessClass::of_outcome(&flagged), AccessClass::Bypass);
        flagged.flags.insert(AccessFlags::LOCKED);
        assert_eq!(AccessClass::of_outcome(&flagged), AccessClass::Locked);
        flagged.flags.insert(AccessFlags::DEGRADED);
        assert_eq!(
            AccessClass::of_outcome(&flagged),
            AccessClass::FaultDegraded
        );

        // The dense index and label tables agree with ALL's order.
        for (i, class) in AccessClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(class.to_string(), class.label());
        }
    }

    #[test]
    fn flags_bit_algebra() {
        let mut f = AccessFlags::NONE;
        assert!(f.is_empty());
        assert!(f.contains(AccessFlags::NONE));
        assert!(!f.contains(AccessFlags::LOCKED));
        f.insert(AccessFlags::LOCKED);
        f.insert(AccessFlags::DEGRADED);
        assert!(f.contains(AccessFlags::LOCKED));
        assert!(f.contains(AccessFlags::DEGRADED));
        assert!(!f.contains(AccessFlags::BYPASS));
        assert!(!f.is_empty());
    }

    #[test]
    fn access_rate() {
        let mut s = SchemeStats {
            accesses: 10,
            serviced_from_nm: 8,
            ..Default::default()
        };
        assert!((s.access_rate() - 0.8).abs() < 1e-12);
        s.detail("predictor_accuracy", 0.95);
        assert_eq!(s.details.len(), 1);
        let empty = SchemeStats::default();
        assert_eq!(empty.access_rate(), 0.0);
    }

    #[test]
    fn stats_display_is_nonempty() {
        let s = SchemeStats::default();
        assert!(s.to_string().contains("accesses=0"));
    }

    #[test]
    fn merge_adds_counters_and_unions_details() {
        let mut a = SchemeStats {
            accesses: 10,
            serviced_from_nm: 8,
            subblocks_moved: 3,
            blocks_migrated: 1,
            ..Default::default()
        };
        a.detail("locks", 2.0);
        let b = SchemeStats {
            accesses: 30,
            serviced_from_nm: 6,
            subblocks_moved: 4,
            blocks_migrated: 0,
            details: vec![("locks", 5.0), ("epochs", 7.0)],
        };
        a.merge(&b);
        assert_eq!(a.accesses, 40);
        assert_eq!(a.serviced_from_nm, 14);
        assert_eq!(a.subblocks_moved, 7);
        assert_eq!(a.blocks_migrated, 1);
        assert_eq!(a.details, vec![("locks", 7.0), ("epochs", 7.0)]);
        // The merged rate is the access-weighted mean: 14/40.
        assert!((a.access_rate() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SchemeStats {
            accesses: 5,
            serviced_from_nm: 2,
            ..Default::default()
        };
        a.detail("swaps", 1.0);
        let before = a.clone();
        a.merge(&SchemeStats::default());
        assert_eq!(a, before);
    }
}
