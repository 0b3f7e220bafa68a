//! Property-based tests of the core invariants.
//!
//! The load-bearing property of a *flat* memory organization is that data is
//! exchanged, never copied or lost: at all times every block of the combined
//! address space is resident at exactly one location. These tests drive the
//! schemes with generated access sequences and check the metadata invariants
//! that encode that property, plus conservation laws on the traffic the
//! schemes emit.
//!
//! The cases come from the in-tree harness ([`silc_fm::types::check`]):
//! 256 fixed-seed cases per property, with the failing case's seed printed
//! on assertion failure so it can be rerun in isolation via
//! `check::forall_seed`.

use silc_fm::baselines::{Cameo, CameoParams, Pom, PomParams};
use silc_fm::core::{LockState, SilcFm, SilcFmParams};
use silc_fm::dram::{DramConfig, DramModel};
use silc_fm::types::check::{forall, forall_cases};
use silc_fm::types::rng::{Rng, Xoshiro256StarStar};
use silc_fm::types::{
    Access, AddressSpace, BlockIndex, CoreId, Geometry, MemKind, MemOp, MemoryScheme, OpKind,
    PhysAddr, TrafficClass,
};

const NM_BLOCKS: u64 = 64;
const FM_BLOCKS: u64 = 256;

fn space() -> AddressSpace {
    AddressSpace::new(NM_BLOCKS * 2048, FM_BLOCKS * 2048)
}

/// An arbitrary access: uniform over blocks, subblock offsets, a small PC
/// pool, and read/write.
fn arb_access(rng: &mut Xoshiro256StarStar) -> Access {
    let block = rng.gen_range(0..NM_BLOCKS + FM_BLOCKS);
    let off = rng.gen_range(0u32..32);
    let pc = 0x400 + rng.gen_range(0u64..8) * 4;
    let addr = PhysAddr::new(block * 2048 + u64::from(off) * 64);
    if rng.gen_bool(0.5) {
        Access::write(addr, pc, CoreId::new(0))
    } else {
        Access::read(addr, pc, CoreId::new(0))
    }
}

/// A generated access sequence of length in `1..max_len`.
fn arb_accesses(rng: &mut Xoshiro256StarStar, max_len: usize) -> Vec<Access> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| arb_access(rng)).collect()
}

/// Sums migration bytes by (memory, direction).
fn migration_tally<'a>(ops: impl IntoIterator<Item = &'a MemOp>) -> (u64, u64, u64, u64) {
    let mut nm_r = 0;
    let mut nm_w = 0;
    let mut fm_r = 0;
    let mut fm_w = 0;
    for op in ops
        .into_iter()
        .filter(|o| o.class == TrafficClass::Migration)
    {
        match (op.mem, op.kind) {
            (MemKind::Near, OpKind::Read) => nm_r += u64::from(op.bytes),
            (MemKind::Near, OpKind::Write) => nm_w += u64::from(op.bytes),
            (MemKind::Far, OpKind::Read) => fm_r += u64::from(op.bytes),
            (MemKind::Far, OpKind::Write) => fm_w += u64::from(op.bytes),
        }
    }
    (nm_r, nm_w, fm_r, fm_w)
}

/// A scheme's detail counter `key`, 0 when the scheme does not report it.
fn detail(stats: &silc_fm::types::SchemeStats, key: &str) -> f64 {
    stats
        .details
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// SILC-FM metadata invariants: an FM block is interleaved into at most one
/// frame of its congruence set; locked-remap frames are fully resident;
/// locked-native frames hold only native data; a set bit always has a tenant
/// to exchange with.
#[test]
fn silcfm_metadata_invariants() {
    forall("silcfm_metadata_invariants", |rng| {
        let mut scheme = SilcFm::new(
            space(),
            Geometry::paper(),
            SilcFmParams {
                lock_threshold: 6,
                lock_min_resident: 1,
                aging_period: 100,
                bypass_window: 50,
                ..SilcFmParams::paper()
            },
        );
        for a in arb_accesses(rng, 400) {
            let out = scheme.access_fresh(&a);
            assert!(!out.critical.is_empty(), "demand op always present");
            let demand = out.critical.last().unwrap();
            assert_eq!(demand.mem, out.serviced_from);
        }
        // Check every frame's metadata.
        let sets = scheme.sets();
        let mut tenants = silcfm_types::FxHashSet::default();
        for f in 0..NM_BLOCKS {
            let meta = scheme.frame(f);
            if let Some(tenant) = meta.remap {
                assert!(tenant.value() >= NM_BLOCKS, "tenants come from FM");
                assert_eq!(tenant.value() % sets, f % sets, "tenant in its set");
                assert!(tenants.insert(tenant), "tenant {tenant} in two frames");
            } else {
                assert_eq!(meta.bitvec, 0, "bits without a tenant");
            }
            match meta.lock {
                LockState::LockedRemap => {
                    assert_eq!(meta.bitvec, Geometry::paper().full_mask());
                    assert!(meta.remap.is_some());
                }
                LockState::LockedNative => {
                    assert_eq!(meta.bitvec, 0);
                    assert!(meta.remap.is_none());
                }
                LockState::Unlocked => {}
            }
        }
    });
}

/// Conservation: every migration writes as many bytes into each memory as it
/// reads out of the other (the demand read may substitute for one migration
/// read), so writes to NM+FM always equal 2 x 64 B per exchange.
#[test]
fn silcfm_swap_traffic_balances() {
    forall("silcfm_swap_traffic_balances", |rng| {
        let mut scheme = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for a in arb_accesses(rng, 300) {
            let out = scheme.access_fresh(&a);
            let (_, nm_w, fm_r, fm_w) = migration_tally(&out.background);
            // Per exchange: exactly one NM write and one FM write.
            assert_eq!(nm_w, fm_w, "NM and FM receive equal swap bytes");
            // Reads never exceed writes (demand covers at most one read).
            assert!(fm_r <= fm_w + nm_w);
        }
    });
}

/// CAMEO's line location table stays a permutation under arbitrary access
/// sequences: no line is ever lost or duplicated.
#[test]
fn cameo_permutation_totality() {
    forall("cameo_permutation_totality", |rng| {
        let mut cameo = Cameo::new(space(), CameoParams::with_prefetch());
        for a in arb_accesses(rng, 500) {
            let _ = cameo.access_fresh(&a);
        }
        // Re-access every line of set 0's congruence group: each must be
        // found somewhere (find_slot panics on a broken permutation).
        for member in 0..5u64 {
            let addr = member * NM_BLOCKS * 2048; // line 0 of each member
            let _ = cameo.access_fresh(&Access::read(PhysAddr::new(addr), 0, CoreId::new(0)));
        }
    });
}

/// A swapped-in line is immediately re-serviceable from NM (CAMEO swaps
/// unconditionally on every FM access).
#[test]
fn cameo_swap_in_is_visible() {
    forall("cameo_swap_in_is_visible", |rng| {
        let block = rng.gen_range(NM_BLOCKS..NM_BLOCKS + FM_BLOCKS);
        let off = rng.gen_range(0u32..32);
        let mut cameo = Cameo::new(space(), CameoParams::default());
        let addr = PhysAddr::new(block * 2048 + u64::from(off) * 64);
        let first = cameo.access_fresh(&Access::read(addr, 0, CoreId::new(0)));
        assert_eq!(first.serviced_from, MemKind::Far);
        let second = cameo.access_fresh(&Access::read(addr, 0, CoreId::new(0)));
        assert_eq!(second.serviced_from, MemKind::Near);
    });
}

/// PoM's permutation stays total and its migrations move whole blocks.
#[test]
fn pom_invariants() {
    forall("pom_invariants", |rng| {
        let mut pom = Pom::new(
            space(),
            PomParams {
                threshold: 3,
                ..PomParams::default()
            },
        );
        let mut migration_bytes = 0u64;
        for a in arb_accesses(rng, 400) {
            let out = pom.access_fresh(&a);
            for op in &out.background {
                assert_eq!(op.bytes, 2048, "PoM moves whole blocks");
                migration_bytes += u64::from(op.bytes);
            }
        }
        let stats = pom.stats();
        assert_eq!(migration_bytes, stats.blocks_migrated * 4 * 2048);
    });
}

/// DRAM model laws: completions never precede arrivals, per-channel bus
/// occupancy never exceeds elapsed time, and identical request streams give
/// identical timings.
#[test]
fn dram_model_laws() {
    forall("dram_model_laws", |rng| {
        let len = rng.gen_range(1usize..200);
        let requests: Vec<(u64, u32, bool)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0u64..1 << 22),
                    rng.gen_range(1u32..4),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut m1 = DramModel::new(DramConfig::ddr3());
        let mut m2 = DramModel::new(DramConfig::ddr3());
        let mut now = 0u64;
        let mut last = 0u64;
        for (addr, size64, is_write) in requests {
            let bytes = size64 * 64;
            let addr = addr & !63;
            let (a, b) = if is_write {
                (m1.write(now, addr, bytes), m2.write(now, addr, bytes))
            } else {
                (m1.read(now, addr, bytes), m2.read(now, addr, bytes))
            };
            assert_eq!(a, b, "deterministic");
            assert!(a >= now, "completion {a} before arrival {now}");
            last = last.max(a);
            now += 8; // advancing arrival times
        }
        let elapsed_mem = last / 4 + 1;
        let stats = m1.stats();
        assert!(
            stats.bus_busy_cycles <= elapsed_mem * 4,
            "bus busier ({}) than 4 channels x {} cycles",
            stats.bus_busy_cycles,
            elapsed_mem
        );
    });
}

/// Scheme determinism across the board: same access sequence, same emitted
/// operations. (Fewer cases: each case simulates three controllers.)
#[test]
fn schemes_are_deterministic() {
    forall_cases("schemes_are_deterministic", 128, |rng| {
        let accesses = arb_accesses(rng, 200);
        let mut a = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        let mut b = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for acc in &accesses {
            assert_eq!(a.access_fresh(acc), b.access_fresh(acc));
        }
        // And reset really resets.
        a.reset();
        let mut c = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for acc in &accesses {
            assert_eq!(a.access_fresh(acc), c.access_fresh(acc));
        }
    });
}

/// The access-rate metric is always the fraction of NM-serviced demands.
#[test]
fn access_rate_accounting() {
    forall("access_rate_accounting", |rng| {
        let accesses = arb_accesses(rng, 300);
        let mut scheme = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        let mut nm_count = 0u64;
        for a in &accesses {
            if scheme.access_fresh(a).serviced_from == MemKind::Near {
                nm_count += 1;
            }
        }
        let stats = scheme.stats();
        assert_eq!(stats.serviced_from_nm, nm_count);
        assert_eq!(stats.accesses, accesses.len() as u64);
        let expected = nm_count as f64 / accesses.len() as f64;
        assert!((stats.access_rate() - expected).abs() < 1e-12);
    });
}

/// Geometry round trips: any address decomposes into (block, offset) and
/// recomposes exactly.
#[test]
fn geometry_round_trip() {
    forall("geometry_round_trip", |rng| {
        let addr = rng.gen_range(0u64..1 << 40);
        let geom = Geometry::paper();
        let a = PhysAddr::new(addr);
        let block = BlockIndex::containing(a, geom);
        let off = silc_fm::types::SubblockIndex::containing(a, geom).offset_in_block(geom);
        let reconstructed = block.base_addr(geom).value() + u64::from(off) * 64 + (addr % 64);
        assert_eq!(reconstructed, addr);
    });
}

// ---- observability invariants ---------------------------------------------

/// Histogram bucketing round-trips: every value lands inside the bucket
/// reported for it, and adjacent buckets tile the `u64` line with no gap
/// or overlap.
#[test]
fn histogram_buckets_round_trip() {
    use silc_fm::obs::hist::{bucket_of, bucket_range};
    forall("histogram_buckets_round_trip", |rng| {
        // Stress the power-of-two boundaries plus a uniform draw.
        let exp = rng.gen_range(0u64..64);
        let base = 1u64 << exp;
        for v in [
            0,
            base,
            base - 1,
            base.saturating_add(1),
            rng.gen_range(0u64..u64::MAX),
        ] {
            let b = bucket_of(v);
            let (lo, hi) = bucket_range(b);
            assert!(lo <= v && v <= hi, "{v} outside bucket {b} [{lo}, {hi}]");
            if b > 0 {
                let (_, below) = bucket_range(b - 1);
                assert_eq!(lo, below + 1, "gap or overlap below bucket {b}");
            }
        }
    });
}

/// A ring tracer driven past capacity keeps exactly the newest
/// `capacity` events, in recording order, and counts each overwrite
/// as one drop.
#[test]
fn ring_wraparound_keeps_newest_events() {
    use silc_fm::obs::{Event, RingTracer, Tracer};
    forall("ring_wraparound_keeps_newest_events", |rng| {
        let capacity = rng.gen_range(1u64..48);
        let n = rng.gen_range(1u64..160);
        let mut t = RingTracer::with_capacity(capacity as usize);
        for i in 0..n {
            t.record(i, Event::PredictorHit);
        }
        let kept = n.min(capacity);
        assert_eq!(t.dropped(), n - kept);
        let events = t.drain();
        assert_eq!(events.len() as u64, kept);
        let oldest_kept = n - kept;
        for (k, e) in events.iter().enumerate() {
            assert_eq!(
                e.at,
                oldest_kept + k as u64,
                "drain must return the newest {kept} events oldest-first"
            );
        }
    });
}

/// However sparsely the driving loop notices epoch boundaries in-run, a
/// sealed sampler holds exactly `ceil(total_cycles / epoch)` rows.
#[test]
fn sampler_seals_to_exact_row_count() {
    use silc_fm::obs::{EpochSampler, SeriesSpec};
    forall("sampler_seals_to_exact_row_count", |rng| {
        let epoch = rng.gen_range(1u64..1_000);
        let total = rng.gen_range(0u64..50_000);
        let spec = SeriesSpec::new().series("obs.hit_rate");
        let mut s = EpochSampler::new(spec, epoch, total);
        // Advance in random strides, recording only when the sampler says a
        // row is due — exactly the `System::run` protocol.
        let mut cycle = 0u64;
        while cycle < total {
            cycle = (cycle + rng.gen_range(1u64..=3 * epoch)).min(total);
            if s.due(cycle) {
                s.record(&[cycle as f64]);
            }
        }
        s.seal(total, &[-1.0]);
        assert_eq!(s.rows() as u64, total.div_ceil(epoch));
        for i in 0..s.rows() {
            assert_eq!(s.row(i).len(), 1, "row arity survives sealing");
        }
    });
}

/// Fault schedules replay bit-identically from their seed and every drawn
/// payload stays inside the declared topology — the precondition for
/// delivering them into a controller without bounds checks downstream.
#[test]
fn fault_schedules_replay_and_respect_topology() {
    use silc_fm::fault::{FaultRates, FaultSchedule, FaultTopology};
    use silc_fm::types::fault::{FaultKind, SchemeFault};

    forall("fault_schedules_replay_and_respect_topology", |rng| {
        let topo = FaultTopology {
            nm_ways: rng.gen_range(1u64..8) as u8,
            nm_frames: rng.gen_range(1u64..4096) as u32,
            subblocks: 32,
            nm_channels: rng.gen_range(1u64..16) as u8,
            fm_channels: rng.gen_range(1u64..8) as u8,
        };
        let scale = rng.gen_range(0u64..40) as f64 / 10.0;
        let base = FaultRates::harsh();
        let rates = FaultRates {
            way_degrade_per_m: base.way_degrade_per_m * scale,
            bit_flip_per_m: base.bit_flip_per_m * scale,
            metadata_parity_per_m: base.metadata_parity_per_m * scale,
            channel_stall_per_m: base.channel_stall_per_m * scale,
            channel_fail_per_m: base.channel_fail_per_m * scale,
            ..base
        };
        let seed = rng.gen_range(0u64..1 << 60);
        let horizon = rng.gen_range(100_000u64..4_000_000);
        let a = FaultSchedule::generate(seed, horizon, &rates, &topo).unwrap();
        let b = FaultSchedule::generate(seed, horizon, &rates, &topo).unwrap();
        assert_eq!(a.faults(), b.faults(), "same seed, same schedule");

        let mut prev = 0;
        for f in a.faults() {
            assert!(f.at >= prev, "schedule sorted by delivery cycle");
            prev = f.at;
            match f.kind {
                FaultKind::Scheme(SchemeFault::DegradeWay { way })
                | FaultKind::Scheme(SchemeFault::RestoreWay { way }) => {
                    assert!(way < topo.nm_ways);
                }
                FaultKind::Scheme(SchemeFault::BitFlip {
                    frame, subblock, ..
                }) => {
                    assert!(frame < topo.nm_frames);
                    assert!(subblock < topo.subblocks);
                }
                FaultKind::Scheme(SchemeFault::MetadataParity { frame }) => {
                    assert!(frame < topo.nm_frames);
                }
                FaultKind::Dram { device, fault } => {
                    let channels = match device {
                        MemKind::Near => topo.nm_channels,
                        MemKind::Far => topo.fm_channels,
                    };
                    assert!(fault.channel() < channels);
                }
            }
        }
    });
}

/// Applying a schedule's scheme faults to a warmed-up controller is
/// deterministic (same effects, same stats on replay), conserves every
/// delivery in the effect ledger, and reports exactly the failover
/// transitions the schedule-only oracle derives.
#[test]
fn controller_fault_effects_replay_and_conserve() {
    use silc_fm::fault::{
        expected_failover_transitions, FaultRates, FaultSchedule, FaultStats, FaultTopology,
    };
    use silc_fm::types::fault::{FaultEffect, FaultKind, ScheduledFault};
    use silc_fm::types::{SchemeOutcome, SchemeStats};

    forall_cases("controller_fault_effects_replay_and_conserve", 64, |rng| {
        let topo = FaultTopology {
            nm_ways: 4,
            nm_frames: NM_BLOCKS as u32,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        };
        let accesses = arb_accesses(rng, 300);
        let seed = rng.gen_range(0u64..1 << 48);
        let schedule =
            FaultSchedule::generate(seed, 2_000_000, &FaultRates::harsh(), &topo).unwrap();
        let scheme_faults: Vec<ScheduledFault> = schedule
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Scheme(_)))
            .copied()
            .collect();

        let drive = |acc: &[Access],
                     faults: &[ScheduledFault]|
         -> (Vec<FaultEffect>, FaultStats, SchemeStats) {
            let mut scheme = SilcFm::new(
                space(),
                Geometry::paper(),
                SilcFmParams {
                    aging_period: 100,
                    bypass_window: 50,
                    ..SilcFmParams::paper()
                },
            );
            for a in acc {
                let _ = scheme.access_fresh(a);
            }
            let mut out = SchemeOutcome::empty();
            let mut effects = Vec::new();
            let mut ledger = FaultStats::default();
            for f in faults {
                let FaultKind::Scheme(sf) = f.kind else {
                    continue;
                };
                let e = scheme.apply_fault(&sf, &mut out);
                ledger.record(e);
                effects.push(e);
            }
            (effects, ledger, scheme.stats())
        };

        let (e1, l1, s1) = drive(&accesses, &scheme_faults);
        let (e2, l2, s2) = drive(&accesses, &scheme_faults);
        assert_eq!(e1, e2, "effects replay bit-identically");
        assert_eq!(l1, l2);
        assert_eq!(s1, s2);
        assert!(l1.conserved(), "every delivery has one accounted effect");
        assert_eq!(l1.injected as usize, scheme_faults.len());

        // The controller's own counters agree with the external ledger.
        assert_eq!(detail(&s1, "faults_injected") as u64, l1.injected);
        assert_eq!(detail(&s1, "fault_corrected") as u64, l1.corrected);
        assert_eq!(detail(&s1, "fault_recovered") as u64, l1.recovered);
        assert_eq!(detail(&s1, "fault_poisoned") as u64, l1.poisoned);
        assert_eq!(detail(&s1, "fault_masked") as u64, l1.masked);

        // Failover transitions match the schedule-only oracle exactly.
        let oracle = expected_failover_transitions(&scheme_faults, 4);
        assert_eq!(detail(&s1, "failover_transitions") as usize, oracle.len());
    });
}

/// The ECC outcome mix of generated bit flips tracks the configured
/// probabilities (within binomial noise): the fault plane's randomness is
/// calibrated, not just reproducible.
#[test]
fn ecc_outcomes_track_configured_probabilities() {
    use silc_fm::fault::{FaultRates, FaultSchedule, FaultTopology};

    forall_cases("ecc_outcomes_track_configured_probabilities", 64, |rng| {
        let correct_pct = rng.gen_range(0u64..=90);
        let due_pct = rng.gen_range(0u64..=(100 - correct_pct));
        let rates = FaultRates {
            bit_flip_per_m: 200.0,
            ecc_correct_p: correct_pct as f64 / 100.0,
            ecc_due_p: due_pct as f64 / 100.0,
            ..FaultRates::none()
        };
        let topo = FaultTopology {
            nm_ways: 4,
            nm_frames: 1024,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        };
        let seed = rng.gen_range(0u64..1 << 60);
        let s = FaultSchedule::generate(seed, 10_000_000, &rates, &topo).unwrap();
        let (c, d, u) = s.ecc_histogram();
        let n = c + d + u;
        assert!(n > 1_000, "expected ~2000 flips, got {n}");

        let expect = [
            rates.ecc_correct_p,
            rates.ecc_due_p,
            1.0 - rates.ecc_correct_p - rates.ecc_due_p,
        ];
        for (label, (got, p)) in ["corrected", "due", "undetected"]
            .iter()
            .zip([c, d, u].into_iter().zip(expect))
        {
            let frac = got as f64 / n as f64;
            let tol = (5.0 * (p * (1.0 - p) / n as f64).sqrt()).max(0.02);
            assert!(
                (frac - p).abs() <= tol,
                "{label}: observed {frac:.3} vs configured {p:.3} (tol {tol:.3}, n={n})"
            );
        }
    });
}

/// Cutting a journal at an arbitrary byte (the crash model) and resuming
/// recovers exactly the records whose lines completed; re-appending the
/// missing ones reproduces the uninterrupted journal byte for byte. Runs
/// for both record types: grid jobs and SLO search trials.
#[test]
fn journal_resume_recovers_exactly_the_complete_prefix() {
    use silc_fm::sim::journal::{JobRecord, Journal, Record};
    use silc_fm::sim::{RunResult, TrafficTally};
    use silc_fm::types::SchemeStats;
    use silcfm_serve::{RequestLedger, TrialRecord};
    use std::path::Path;

    fn arb_job(rng: &mut Xoshiro256StarStar, i: usize) -> JobRecord {
        const KEYS: &[&str] = &["locks", "swaps", "epochs", "migrations"];
        let access_rate = rng.gen_range(0u64..1 << 52) as f64 / 1e18 - 1.0;
        let energy_pj = rng.gen_range(0u64..1 << 52) as f64 / 3.0 - 1.0;
        let mpki = rng.gen_range(0u64..1 << 52) as f64 / 1e6 - 1.0;
        let mut stats = SchemeStats {
            accesses: rng.gen_range(0u64..1 << 40),
            serviced_from_nm: rng.gen_range(0u64..1 << 40),
            subblocks_moved: rng.gen_range(0u64..1 << 40),
            blocks_migrated: rng.gen_range(0u64..1 << 20),
            details: Vec::new(),
        };
        for key in KEYS.iter().take(rng.gen_range(0usize..=KEYS.len())) {
            let v = rng.gen_range(0u64..1 << 52) as f64 / 7.0;
            stats.detail(key, v);
        }
        let result = RunResult {
            scheme: ["silcfm", "hma", "cam"][i % 3].to_string(),
            workload: ["mcf", "milc"][i % 2].to_string(),
            cycles: rng.gen_range(1u64..u64::MAX),
            instructions: rng.gen_range(1u64..u64::MAX),
            llc_misses: rng.gen_range(0u64..1 << 40),
            access_rate,
            traffic: TrafficTally {
                nm_demand: rng.gen_range(0u64..1 << 40),
                fm_demand: rng.gen_range(0u64..1 << 40),
                nm_other: rng.gen_range(0u64..1 << 40),
                fm_other: rng.gen_range(0u64..1 << 40),
            },
            energy_pj,
            scheme_stats: stats,
            mpki,
            footprint_bytes: rng.gen_range(0u64..1 << 48),
        };
        JobRecord { index: i, result }
    }

    fn arb_trial(rng: &mut Xoshiro256StarStar, i: usize) -> TrialRecord {
        let mut any = || rng.gen_range(0u64..u64::MAX);
        TrialRecord {
            search: i / 3,
            trial: u32::try_from(i % 3).unwrap(),
            rate: any(),
            ledger: RequestLedger {
                offered: any(),
                admitted: any(),
                completed: any(),
                shed: any(),
                timed_out: any(),
                failed: any(),
                retries: any(),
            },
            p99: any(),
            met: any() % 2 == 1,
        }
    }

    fn cut_and_resume<R: Record + PartialEq + std::fmt::Debug>(
        rng: &mut Xoshiro256StarStar,
        dir: &Path,
        records: &[R],
    ) {
        let digest = rng.gen_range(0u64..u64::MAX);
        let path = dir.join(format!(
            "case-{:016x}.journal",
            rng.gen_range(0u64..u64::MAX)
        ));
        let mut j = Journal::create(&path, digest).unwrap();
        for r in records {
            j.append(r).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();

        // Crash model: the file survives only up to an arbitrary byte.
        let header_end = full.iter().position(|b| *b == b'\n').unwrap() + 1;
        let cut = rng.gen_range(header_end..=full.len());
        std::fs::write(&path, &full[..cut]).unwrap();

        let (mut j, done) = Journal::<R>::resume(&path, digest).unwrap();
        let ends: Vec<usize> = full
            .iter()
            .enumerate()
            .skip(header_end)
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        let survived = ends.iter().filter(|e| **e <= cut).count();
        assert_eq!(
            done,
            &records[..survived],
            "exactly the complete lines survive"
        );

        // Finishing the interrupted run reproduces the uninterrupted file.
        for r in &records[survived..] {
            j.append(r).unwrap();
        }
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_file(&path).ok();
    }

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("silcfm-prop-journal");
    std::fs::create_dir_all(&dir).unwrap();

    forall_cases(
        "journal_resume_recovers_exactly_the_complete_prefix",
        64,
        |rng| {
            let n = rng.gen_range(1usize..6);
            let jobs: Vec<JobRecord> = (0..n).map(|i| arb_job(rng, i)).collect();
            cut_and_resume(rng, &dir, &jobs);
            let n = rng.gen_range(1usize..9);
            let trials: Vec<TrialRecord> = (0..n).map(|i| arb_trial(rng, i)).collect();
            cut_and_resume(rng, &dir, &trials);
        },
    );
}

/// The on-disk format is pinned: a header and record lines as both
/// journals have always been written decode to the expected fields and
/// re-encode byte for byte.
#[test]
fn journal_format_is_pinned() {
    use silc_fm::sim::journal::{JobRecord, Journal, Record};
    use silcfm_serve::TrialRecord;

    fn reencode<R: Record>(name: &str, digest: u64, text: &str) -> Vec<R> {
        let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, text).unwrap();
        let (_, records) = Journal::<R>::resume(&path, digest).unwrap();
        let mut j = Journal::<R>::create(&path, digest).unwrap();
        records.iter().for_each(|r| j.append(r).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}");
        records
    }

    let jobs = reencode::<JobRecord>(
        "pinned-grid.journal",
        0xd210_a67c_2b04_a543,
        "silcfm-journal v1 grid=d210a67c2b04a543\n\
         job 1 hma mcf 1911372 2039414 36326 3fc9996fcde5f103 513792 2055232 2101248 2101248 \
         41d5aa76f0600000 40141 8028 16416 513 4031cfdde07f5785 18669568 2 \
         epochs 4014000000000000 migrations 4080080000000000\n",
    );
    let r = &jobs[0].result;
    let got = (jobs[0].index, r.cycles, r.scheme_stats.details[1]);
    assert_eq!(got, (1, 1_911_372, ("migrations", 513.0)));

    let trials = reencode::<TrialRecord>(
        "pinned-slo.journal",
        0x0527_a71c_e499_dc24,
        "silcfm-slo-journal v1 grid=0527a71ce499dc24\n\
         trial 0 0 600 2876 2876 2876 0 0 0 0 6911 1\n\
         trial 0 1 850 4069 4069 4069 0 0 0 0 23039 0\n",
    );
    let t = &trials[1];
    let got = (t.trial, t.rate, t.ledger.offered, t.p99, t.met);
    assert_eq!(got, (1, 850, 4069, 23_039, false));
}

// ---- sharded-run determinism ----------------------------------------------

/// Sharding a run across producer threads is invisible in the results: for
/// random workloads, schemes, run sizes, seeds and epoch geometries, the
/// full result digest of `run_sharded` equals the serial `run`'s at every
/// thread count in {1, 2, 3, 4, 7} — and the epoch-merge checksum is a pure
/// function of the workload streams, so it never varies across the sharded
/// counts either. One thread is the serial feed, which merges nothing.
#[test]
fn sharded_runs_match_serial_bit_for_bit() {
    use silc_fm::sim::{run, run_sharded, RunParams, SchemeKind, ShardParams};
    use silc_fm::types::{FxHasher, SystemConfig};
    use std::hash::Hasher as _;

    fn digest(r: &silc_fm::sim::RunResult) -> u64 {
        let mut h = FxHasher::default();
        h.write(format!("{r:?}").as_bytes());
        h.finish()
    }

    forall_cases("sharded_runs_match_serial_bit_for_bit", 8, |rng| {
        let names = ["milc", "mcf", "lib", "dealii"];
        let profile =
            silc_fm::trace::profiles::by_name(names[rng.gen_range(0usize..names.len())]).unwrap();
        let schemes = [
            SchemeKind::silcfm(),
            SchemeKind::Hma,
            SchemeKind::Cameo,
            SchemeKind::Pom,
        ];
        let scheme = schemes[rng.gen_range(0usize..schemes.len())];
        let cfg = SystemConfig::small();
        let params = RunParams {
            accesses_per_core: rng.gen_range(1_500u64..4_000),
            seed: rng.gen_range(0u64..1 << 48),
            ..RunParams::smoke()
        };
        let serial = digest(&run(profile, scheme, &cfg, &params));

        // One epoch geometry per case: the merge checksum depends on the
        // barrier spacing, so invariance is asserted at fixed geometry.
        let epoch_records = rng.gen_range(64u64..1_500);
        let lookahead_epochs = rng.gen_range(1usize..5);
        let mut checksums = Vec::new();
        for threads in [1usize, 2, 3, 4, 7] {
            let shard = ShardParams {
                threads,
                epoch_records,
                lookahead_epochs,
            };
            let (r, report) = run_sharded(profile, scheme, &cfg, &params, &shard);
            assert_eq!(digest(&r), serial, "threads={threads} diverged from serial");
            assert_eq!(
                report.delta_mismatches, 0,
                "threads={threads} tore a handoff"
            );
            if threads == 1 {
                assert_eq!((report.producer_threads, report.epochs_merged), (0, 0));
                continue;
            }
            assert_eq!(
                report.merged.records,
                params.accesses_per_core * u64::from(cfg.core.cores),
                "merged lane deltas must account every record"
            );
            checksums.push(report.checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "merge checksum varied with thread count: {checksums:?}"
        );
    });
}

/// Every cell of the run surface simulates the same machine. Over tier
/// {Off, MetricsOnly, Sampled(1), Sampled(16)} × faults {none, harsh}:
///
/// * each cell's result digest equals the reference for its fault setting —
///   plain `run` when fault-free, the untraced faulted cell when faults are
///   armed;
/// * fault ledgers do not depend on the tier and stay conserved, also after
///   merging two of them;
/// * a fully traced stream drops nothing and tallies to the exact event
///   counters, and the latency plane does not depend on the tier.
///
/// The harsh cells are also checked against the schedule regenerated from
/// the fault seed alone: every harsh cell delivers a prefix of it, and the
/// fully traced stream carries one `Poisoned` event per poisoned effect and
/// exactly the `Failover` transitions `expected_failover_transitions`
/// derives from the delivered prefix, the same stream again on a rerun. The
/// stateless baselines (HMA, CAMEO) run the same faulted cell and must lose
/// no data.
#[test]
fn tier_and_fault_cells_match_the_plain_run() {
    use silc_fm::fault::{expected_failover_transitions, FaultRates, FaultSchedule, FaultStats};
    use silc_fm::obs::Unit;
    use silc_fm::sim::experiment::space_for;
    use silc_fm::sim::{
        run, run_spec, FaultParams, RunParams, RunSpec, SchemeKind, Tier, TraceParams,
    };
    use silc_fm::trace::profiles;
    use silc_fm::types::obs::{Event, EVENT_KINDS};
    use silc_fm::types::{FxHasher, SystemConfig};
    use std::hash::Hasher as _;

    fn digest(r: &silc_fm::sim::RunResult) -> u64 {
        let mut h = FxHasher::default();
        h.write(format!("{r:?}").as_bytes());
        h.finish()
    }

    forall_cases("tier_and_fault_cells_match_the_plain_run", 4, |rng| {
        let profile = profiles::by_name("milc").unwrap();
        let scheme = SchemeKind::silcfm();
        let SchemeKind::SilcFm(silcfm) = scheme else {
            unreachable!()
        };
        let cfg = SystemConfig::small();
        let params = RunParams {
            accesses_per_core: rng.gen_range(1_500u64..3_000),
            seed: rng.gen_range(0u64..1 << 48),
            ..RunParams::smoke()
        };
        // Sized so a fully traced run drops nothing: the exact checks
        // below need the complete stream.
        let trace = TraceParams {
            events_capacity: 1 << 17,
            epoch_cycles: 50_000,
        };
        let harsh = FaultParams {
            fault_seed: rng.gen_range(0u64..1 << 48),
            horizon_cycles: 3_000_000,
            rates: FaultRates::harsh(),
        };
        let plain = digest(&run(profile, scheme, &cfg, &params));

        // The harsh schedule, regenerated outside the run from its seed.
        let space = space_for(
            &profiles::scaled(profile, params.footprint_scale),
            &cfg,
            &params,
        );
        let topo = FaultParams::topology_for(&scheme, space);
        let schedule =
            FaultSchedule::generate(harsh.fault_seed, harsh.horizon_cycles, &harsh.rates, &topo)
                .unwrap();

        for faults in [None, Some(harsh)] {
            let mut want = faults.is_none().then_some(plain);
            let mut ledger: Option<FaultStats> = None;
            let mut latency: Option<String> = None;
            for tier in [
                Tier::Off,
                Tier::MetricsOnly,
                Tier::Sampled { period: 1 },
                Tier::Sampled { period: 16 },
            ] {
                let label = format!("{tier:?} faulted={}", faults.is_some());
                let spec = RunSpec {
                    tier,
                    trace,
                    faults,
                };
                let cell = run_spec(profile, scheme, &cfg, &params, &spec).unwrap();

                let want = *want.get_or_insert(digest(&cell.result));
                assert_eq!(digest(&cell.result), want, "{label}: result diverged");

                assert!(cell.faults.conserved(), "{label}");
                let first = *ledger.get_or_insert(cell.faults);
                assert_eq!(
                    first, cell.faults,
                    "{label}: fault ledger depends on the tier"
                );
                let mut merged = first;
                merged.merge(&cell.faults);
                assert!(merged.conserved(), "merged ledgers must not leak effects");
                assert_eq!(merged.injected, 2 * cell.faults.injected);
                let delivered = cell.faults.injected as usize;
                if faults.is_none() {
                    assert_eq!(cell.faults, FaultStats::default(), "{label}");
                } else {
                    assert!(delivered > 0, "{label}: harsh cell delivered no faults");
                    assert!(
                        delivered <= schedule.len(),
                        "{label}: {delivered} delivered > {} scheduled",
                        schedule.len()
                    );
                }

                match &cell.obs {
                    None => assert_eq!(tier, Tier::Off, "{label}: report missing"),
                    Some(report) => {
                        assert_ne!(tier, Tier::Off, "{label}: untraced run reported");
                        let mut lat = String::new();
                        report.latency.encode(&mut lat);
                        // Full tracing keeps every controller event, so a
                        // complete stream tallies to the exact counters.
                        if tier == (Tier::Sampled { period: 1 }) {
                            assert_eq!(report.dropped, 0, "{label}: ring too small");
                            let mut tally = [0u64; EVENT_KINDS];
                            for e in report.events.iter().filter(|e| e.unit == Unit::Controller) {
                                tally[e.event.kind_index()] += 1;
                            }
                            assert_eq!(tally, cell.counters, "{label}: counters != trace");
                        }
                        if tier == (Tier::Sampled { period: 1 }) && faults.is_some() {
                            let poisoned = report
                                .events
                                .iter()
                                .filter(|e| matches!(e.event, Event::Poisoned { .. }))
                                .count() as u64;
                            assert_eq!(poisoned, cell.faults.poisoned, "{label}: poisoned events");
                            assert_eq!(
                                detail(&cell.result.scheme_stats, "fault_poisoned") as u64,
                                cell.faults.poisoned,
                                "{label}: controller's poisoned counter"
                            );
                            let oracle: Vec<bool> = expected_failover_transitions(
                                &schedule.faults()[..delivered],
                                silcfm.associativity,
                            )
                            .into_iter()
                            .map(|(_, engaged)| engaged)
                            .collect();
                            let seen: Vec<bool> = report
                                .events
                                .iter()
                                .filter_map(|e| match e.event {
                                    Event::Failover { engaged } => Some(engaged),
                                    _ => None,
                                })
                                .collect();
                            assert_eq!(seen, oracle, "{label}: failover transitions");
                            assert_eq!(
                                detail(&cell.result.scheme_stats, "failover_transitions") as usize,
                                oracle.len(),
                                "{label}: controller's transition counter"
                            );
                            let replay = run_spec(profile, scheme, &cfg, &params, &spec).unwrap();
                            assert!(
                                replay.obs.is_some_and(|r| r.events == report.events),
                                "{label}: trace stream differs on replay"
                            );
                        }
                        assert_eq!(
                            *latency.get_or_insert_with(|| lat.clone()),
                            lat,
                            "{label}: latency plane depends on the tier"
                        );
                    }
                }
            }
        }

        // Stateless baselines hold no interleaved data, so the same faults
        // may cost them nothing.
        for baseline in [SchemeKind::Hma, SchemeKind::Cameo] {
            let spec = RunSpec {
                faults: Some(harsh),
                ..RunSpec::default()
            };
            let out = run_spec(profile, baseline, &cfg, &params, &spec).unwrap();
            let label = baseline.label();
            assert!(out.faults.injected > 0, "{label}: no faults delivered");
            assert!(out.faults.conserved(), "{label}: {:?}", out.faults);
            assert_eq!(
                out.faults.poisoned, 0,
                "{label} lost data: {:?}",
                out.faults
            );
        }
    });
}

/// The journal's crash model applied to the journaled grid runner: cut the
/// journal at an arbitrary byte, resume, and the aggregate — and the
/// finished journal file itself — must come back byte-identical to the
/// uninterrupted run's.
#[test]
fn journaled_grid_survives_random_cuts() {
    use silc_fm::sim::runner::ExperimentGrid;
    use silc_fm::sim::{run_grid_journaled, RunParams, RunSpec, SchemeKind};
    use silc_fm::types::SystemConfig;

    let dir =
        std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("silcfm-prop-grid-journal");
    std::fs::create_dir_all(&dir).unwrap();

    forall_cases("journaled_grid_survives_random_cuts", 6, |rng| {
        let params = RunParams {
            accesses_per_core: rng.gen_range(1_000u64..2_000),
            seed: rng.gen_range(0u64..1 << 48),
            ..RunParams::smoke()
        };
        let jobs = ExperimentGrid::new(SystemConfig::small(), params)
            .workload(silc_fm::trace::profiles::by_name("mcf").unwrap())
            .workload(silc_fm::trace::profiles::by_name("milc").unwrap())
            .scheme(SchemeKind::silcfm())
            .seed_per_job()
            .jobs();
        let spec = RunSpec::default();
        let path = dir.join(format!(
            "case-{:016x}.journal",
            rng.gen_range(0u64..u64::MAX)
        ));

        let uninterrupted = run_grid_journaled(&jobs, &spec, 1, &path, false, |_, _| {}).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Crash model: the file survives only up to an arbitrary byte.
        let header_end = full.iter().position(|b| *b == b'\n').unwrap() + 1;
        let cut = rng.gen_range(header_end..=full.len());
        std::fs::write(&path, &full[..cut]).unwrap();

        let resumed = run_grid_journaled(&jobs, &spec, 1, &path, true, |_, _| {}).unwrap();
        assert_eq!(uninterrupted, resumed, "aggregate must be cut-invariant");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full,
            "the finished journal must be byte-identical to the uninterrupted one"
        );
        std::fs::remove_file(&path).ok();
    });
}

/// The 6-bit frame aging counters clamp at the field width from any
/// starting state — including a corrupt past-the-width one — instead of
/// wrapping or panicking.
#[test]
fn frame_counters_saturate_at_the_field_width() {
    use silc_fm::core::metadata::COUNTER_MAX;
    use silc_fm::core::FrameMeta;

    forall("frame_counters_saturate_at_the_field_width", |rng| {
        let mut m = FrameMeta::empty();
        m.nm_counter = rng.gen_range(0u64..256) as u8;
        m.fm_counter = rng.gen_range(0u64..256) as u8;
        let bumps = rng.gen_range(1usize..200);
        for _ in 0..bumps {
            let v = if rng.gen_bool(0.5) {
                m.bump_nm()
            } else {
                m.bump_fm()
            };
            assert!(v <= COUNTER_MAX, "counter escaped its width: {v}");
        }
        if bumps >= 2 * usize::from(COUNTER_MAX) {
            assert_eq!(m.nm_counter.max(m.fm_counter), COUNTER_MAX);
        }
    });
}
