//! Micro-benchmarks of the hot data structures: remap/metadata handling in
//! the SILC-FM controller, the bit-vector history table, the way predictor,
//! the set-associative cache and the DRAM timing model.
//!
//! Run with: `cargo bench -p silcfm-bench --bench structures`

use silcfm_bench::timing::bench;
use silcfm_cache::{AccessKind, CacheHierarchy, SetAssocCache};
use silcfm_core::{BitVectorTable, SilcFm, SilcFmParams, WayPredictor};
use silcfm_dram::{DramConfig, DramModel};
use silcfm_types::rng::SplitMix64;
use silcfm_types::{Access, AddressSpace, CoreId, Geometry, MemoryScheme, PhysAddr, SystemConfig};

fn bench_history_table() {
    let mut table = BitVectorTable::new(1 << 20);
    let mut key = 0u64;
    bench("history_table", "store", || {
        key = key.wrapping_add(0x9E37_79B9);
        table.store(key, 0xDEAD_BEEF);
    });
    bench("history_table", "lookup", || {
        key = key.wrapping_add(0x9E37_79B9);
        std::hint::black_box(table.lookup(key));
    });
}

fn bench_predictor() {
    let mut pred = WayPredictor::new(4 << 10);
    let mut key = 0u64;
    bench("way_predictor", "predict_update", || {
        key = key.wrapping_add(31);
        let p = pred.predict(key);
        pred.update(key, p, (key % 4) as u8, key.is_multiple_of(3));
    });
}

fn bench_cache() {
    let mut cache = SetAssocCache::new(SystemConfig::paper().l2);
    let mut line = 0u64;
    bench("set_assoc_cache", "l2_access", || {
        line = line.wrapping_add(97);
        std::hint::black_box(cache.access(line % (1 << 20), AccessKind::Read));
    });
    // Random lines over four times each cache's capacity on the benchmark
    // machine (`SystemConfig::experiment()`): the 4-way L1D and the 16-way
    // LLC probe on a mix of hits and evictions, one write in four.
    let cfg = SystemConfig::experiment();
    for (name, params) in [("l1d_random_4way", cfg.l1d), ("l2_random_16way", cfg.l2)] {
        let mut cache = SetAssocCache::new(params);
        let lines = 4 * params.capacity_bytes / u64::from(params.line_bytes);
        let mut rng = SplitMix64::new(2017);
        bench("set_assoc_cache", name, || {
            let r = rng.next_u64();
            let kind = if r >> 62 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            std::hint::black_box(cache.access(r % lines, kind));
        });
    }
    let mut hierarchy = CacheHierarchy::new(&cfg);
    let cores = u64::from(cfg.core.cores);
    let line_bytes = u64::from(cfg.l2.line_bytes);
    let lines = 4 * cfg.l2.capacity_bytes / line_bytes;
    let mut rng = SplitMix64::new(2017);
    bench("cache_hierarchy", "access_data_random", || {
        let r = rng.next_u64();
        let core = CoreId::new((r % cores) as u16);
        let addr = PhysAddr::new((r >> 8) % lines * line_bytes);
        std::hint::black_box(hierarchy.access_data(core, addr, r >> 62 == 0));
    });
}

fn bench_dram() {
    for cfg in [DramConfig::hbm2(), DramConfig::ddr3()] {
        let mut model = DramModel::new(cfg);
        let mut now = 0u64;
        let mut addr = 0u64;
        bench(
            "dram_model",
            &format!("{}_read", cfg.name.to_lowercase()),
            || {
                addr = (addr + 4096) % (1 << 28);
                now = std::hint::black_box(model.read(now, addr, 64));
            },
        );
    }
}

fn bench_controller() {
    let space = AddressSpace::new(4096 * 2048, 4 * 4096 * 2048);
    let mut scheme = SilcFm::new(space, Geometry::paper(), SilcFmParams::paper());
    let mut out = silcfm_types::SchemeOutcome::empty();
    let mut i = 0u64;
    bench("silcfm_controller", "access", || {
        i = i.wrapping_add(1);
        let addr = PhysAddr::new((i * 64 * 131) % space.total_bytes());
        scheme.access(&Access::read(addr, 0x400 + i % 8, CoreId::new(0)), &mut out);
        std::hint::black_box(&out);
    });
}

fn main() {
    bench_history_table();
    bench_predictor();
    bench_cache();
    bench_dram();
    bench_controller();
}
