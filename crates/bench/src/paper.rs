//! Every table and figure of the paper, rendered from one deduplicated grid.
//!
//! Each [`Section`] is one table or figure. It declares its cells as
//! [`Block`]s, (workloads × schemes) at one FM:NM ratio on
//! [`SystemConfig::experiment`], and renders its text from their results.
//! [`cells`] lists the cells of the chosen sections, [`dedup`] drops each
//! cell equal to an earlier one ([`Job`] equality covers the profile, the
//! scheme with its parameters, the configuration and the run parameters,
//! seed and ratio included), and [`Grid::run`] runs the rest in one
//! [`run_grid`] call. Figs. 7 and 8, the EDP table and Fig. 9's `NM=FM/4`
//! row are the same runs. Jobs are hermetic and no block derives per-job
//! seeds, so a shared cell is exactly the run a section would make alone.

use core::fmt::Write as _;

use silcfm_core::SilcFmParams;
use silcfm_dram::DramConfig;
use silcfm_sim::runner::{default_threads, run_grid, ExperimentGrid, Job};
use silcfm_sim::{RunParams, RunResult, RunSpec, SchemeKind};
use silcfm_trace::profiles::{self, WorkloadProfile};
use silcfm_types::stats::geometric_mean;
use silcfm_types::SystemConfig;

use crate::best_prior;
use crate::report::{format_table, Row};

/// One table or figure of the paper, named on the command line by
/// [`Section::name`]. `Threshold`, `Bypass` and `Features` are the
/// ablations A1–A3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Fig7,
    Fig9,
    Fig6,
    Fig8,
    Edp,
    Table2,
    Table3,
    Threshold,
    Bypass,
    Features,
}

/// The results of one [`Block`], indexed `[workload][scheme]`.
type Matrix<'a> = Vec<Vec<&'a RunResult>>;

/// `(label, scheme)` columns of a table.
type Columns = Vec<(String, SchemeKind)>;

/// A value computed from a cell and its row.
type CellFn<'f> = &'f dyn Fn(&[&RunResult], &RunResult) -> f64;

/// A speedup-over-no-NM table (Figs. 6–7, A1–A3): the no-NM baseline runs
/// in a hidden first column.
struct Sweep {
    title: &'static str,
    workloads: Vec<WorkloadProfile>,
    columns: Columns,
    footer: &'static str,
}

impl Section {
    /// Every section, in the order a bare `paper` prints them.
    pub const ALL: [Section; 10] = [
        Section::Fig7,
        Section::Fig9,
        Section::Fig6,
        Section::Fig8,
        Section::Edp,
        Section::Table2,
        Section::Table3,
        Section::Threshold,
        Section::Bypass,
        Section::Features,
    ];

    /// The name that selects the section on the command line.
    pub const fn name(self) -> &'static str {
        match self {
            Section::Fig7 => "fig7_comparison",
            Section::Fig9 => "fig9_capacity",
            Section::Fig6 => "fig6_breakdown",
            Section::Fig8 => "fig8_bandwidth",
            Section::Edp => "edp_energy",
            Section::Table2 => "table2_config",
            Section::Table3 => "table3_workloads",
            Section::Threshold => "ablation_threshold",
            Section::Bypass => "ablation_bypass",
            Section::Features => "ablation_features",
        }
    }

    /// The cells this section reads, at run size `params`.
    pub fn blocks(self, params: &RunParams) -> Vec<Block> {
        let lineup = SchemeKind::fig7_lineup();
        let all = |ratio, schemes| Block {
            workloads: profiles::all().to_vec(),
            schemes,
            ratio,
        };
        match self {
            Section::Fig9 => [16, 8, 4].map(|r| all(r, crate::lineup())).to_vec(),
            Section::Fig8 | Section::Edp => vec![all(4, lineup)],
            Section::Table2 => Vec::new(),
            Section::Table3 => vec![all(4, vec![SchemeKind::NoNm])],
            _ => {
                let sweep = self.sweep(params);
                let kinds: Vec<SchemeKind> = sweep.columns.iter().map(|c| c.1).collect();
                vec![Block {
                    workloads: sweep.workloads,
                    schemes: with_base(&kinds),
                    ratio: 4,
                }]
            }
        }
    }

    /// The speedup table of Figs. 6–7 and A1–A3.
    fn sweep(self, params: &RunParams) -> Sweep {
        let silc = |label: String, edit: &dyn Fn(&mut SilcFmParams)| {
            let mut p = SilcFmParams::paper();
            edit(&mut p);
            (label, SchemeKind::SilcFm(p))
        };
        let rung = |label: &str, p| (label.to_string(), SchemeKind::SilcFm(p));
        let named = |names: &[&str]| {
            let profile = |n: &&str| *profiles::by_name(n).expect("Table III workload");
            names.iter().map(profile).collect()
        };
        let (title, workloads, columns, footer) = match self {
            Section::Fig7 => (
                "Fig. 7: speedup over no-NM baseline",
                profiles::all().to_vec(),
                labelled(SchemeKind::fig7_lineup()),
                "",
            ),
            Section::Fig6 => (
                "Fig. 6: SILC-FM breakdown, speedup over no-NM",
                profiles::all().to_vec(),
                vec![
                    ("rand".into(), SchemeKind::Rand),
                    rung("swap", SilcFmParams::swap_only()),
                    rung("+lock", SilcFmParams::with_locking()),
                    rung("+assoc", SilcFmParams::with_associativity()),
                    rung("+bypass", SilcFmParams::with_bypass()),
                ],
                "Paper: swap 1.55x; lock +11%; assoc +8%; bypass +8%; total 1.82x\n",
            ),
            // Thresholds are in the paper's 1 M-access aging units, scaled to
            // the run length as the default is, but a non-default threshold
            // escapes the default's floor of 16: at quick size T = 4, 8 and
            // 16 all clamp to 2, and no column is the default's 16.
            Section::Threshold => (
                "A1: lock-threshold sweep, speedup over no-NM",
                named(&["xalanc", "milc", "lib", "gcc"]),
                [4u8, 8, 16, 32, 50, 63]
                    .map(|t| {
                        let period = params.accesses_per_core.max(1_000) as f64;
                        let scaled = ((f64::from(t) * period / 1_000_000.0) as u8).clamp(2, 63);
                        silc(format!("T={t}"), &|p| p.lock_threshold = scaled)
                    })
                    .to_vec(),
                "Paper: threshold 50 works best (with 1 M-access aging periods).\n",
            ),
            Section::Bypass => (
                "A2: bypass target sweep, speedup over no-NM",
                named(&["milc", "lbm", "lib", "gems"]),
                [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
                    .map(|t: f64| silc(format!("{t:.1}"), &|p| p.bypass_target = t))
                    .to_vec(),
                "Paper: 0.8 is optimal for the 4:1 bandwidth ratio (target 1.0 leaves FM idle).\n",
            ),
            _ => (
                "A3: feature ablations, speedup over no-NM",
                named(&["xalanc", "gcc", "milc", "mcf", "lib"]),
                vec![
                    silc("1-way".into(), &|p| p.associativity = 1),
                    silc("2-way".into(), &|p| p.associativity = 2),
                    silc("4-way".into(), &|_| {}),
                    silc("no-pred".into(), &|p| p.predictor = false),
                    silc("no-hist".into(), &|p| p.history_fetch = false),
                ],
                "Paper: 4-way > 2-way > 1-way; predictor hides metadata serialization;\n\
                 history fetching raises spatial hits over single-subblock swapping.\n",
            ),
        };
        Sweep {
            title,
            workloads,
            columns,
            footer,
        }
    }

    /// The section's text, exactly as printed: `mode` names the run size
    /// in titles, and `grid` holds (at least) every cell of
    /// [`Section::blocks`] at `params`.
    ///
    /// # Panics
    ///
    /// Panics if `grid` lacks one of the section's cells.
    pub fn render(self, mode: &str, params: &RunParams, grid: &Grid) -> String {
        let blocks = self.blocks(params);
        let m: Vec<Matrix> = blocks.iter().map(|b| grid.matrix(b, params)).collect();
        let lineup = labelled(SchemeKind::fig7_lineup());
        let mut out = String::new();
        match self {
            Section::Fig9 => {
                let row = |(ratio, m): (&u64, &Matrix)| {
                    let (_, gmeans) = summarized(m, speedups(m), ("gmean", geometric_mean));
                    Row::new(format!("NM=FM/{ratio}"), gmeans)
                };
                let rows: Vec<Row> = [16, 8, 4].iter().zip(&m).map(row).collect();
                let title = format!("Fig. 9: gmean speedup across NM capacities ({mode} mode)");
                let _ = writeln!(out, "{}", table(&title, &lineup, &rows));
                out.push_str(
                    "Paper: silcfm 1.83 -> 2.04 from 1/16 to 1/4; best comparison 1.47 -> 1.61\n",
                );
            }
            Section::Fig8 => {
                let mean = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b) / v.len() as f64;
                let fractions = values(&m[0], 0, &|_, r| r.traffic.nm_demand_fraction());
                let (rows, _) = summarized(&m[0], fractions, ("mean", mean));
                let title =
                    format!("Fig. 8: NM fraction of demand bandwidth, ideal 0.80 ({mode} mode)");
                let _ = writeln!(out, "{}", table(&title, &lineup, &rows));
                out.push_str("Paper means: hma 0.71, pom 0.58, silcfm 0.76 (ideal 0.80)\n");
            }
            Section::Edp => {
                let cam = lineup.iter().position(|c| c.1 == SchemeKind::Cameo);
                let cam = cam.expect("CAMEO in the lineup");
                let ratios = values(&m[0], 0, &|row, r| r.edp() / row[cam].edp());
                let (rows, g) = summarized(&m[0], ratios, ("gmean", geometric_mean));
                let title = format!("EDP normalized to CAMEO, lower is better ({mode} mode)");
                let _ = writeln!(out, "{}", table(&title, &lineup, &rows));
                let silcfm = (g[lineup.len() - 1] - 1.0) * 100.0;
                let _ = writeln!(out, "SILC-FM EDP vs CAMEO: {silcfm:+.1}% (paper: -13%)");
            }
            Section::Table2 => table2(&mut out),
            Section::Table3 => table3(&mut out, mode, &m[0]),
            _ => {
                let sweep = self.sweep(params);
                let (rows, g) = summarized(&m[0], speedups(&m[0]), ("gmean", geometric_mean));
                let title = format!("{} ({mode} mode)", sweep.title);
                let _ = writeln!(out, "{}", table(&title, &sweep.columns, &rows));
                if self == Section::Fig7 {
                    let rates = values(&m[0], 1, &|_, r| r.access_rate);
                    let title = "Fig. 7 (companion): access rate (Eq. 1)";
                    let _ = writeln!(out, "{}", table(title, &lineup, &rows_of(&m[0], rates)));
                    let kinds: Vec<SchemeKind> = lineup.iter().map(|c| c.1).collect();
                    let (prior, name) = best_prior(&kinds, &g).expect("prior schemes in lineup");
                    let margin = (g[kinds.len() - 1] / g[prior] - 1.0) * 100.0;
                    let _ = writeln!(
                        out,
                        "SILC-FM vs best prior hardware scheme ({name}): {margin:+.1}% (paper: +36%)"
                    );
                }
                if self == Section::Fig6 {
                    let gain = |i: usize| (g[i] / g[i - 1] - 1.0) * 100.0;
                    let _ = writeln!(
                        out,
                        "Feature contributions (gmean): swap {:.2}x; lock {:+.1}%; \
                         assoc {:+.1}%; bypass {:+.1}%; total {:.2}x",
                        g[1],
                        gain(2),
                        gain(3),
                        gain(4),
                        g[4],
                    );
                }
                out.push_str(sweep.footer);
            }
        }
        out
    }
}

/// A (workloads × schemes) block of cells at one FM:NM capacity ratio, on
/// [`SystemConfig::experiment`].
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Row workloads, in print order.
    pub workloads: Vec<WorkloadProfile>,
    /// Column schemes, in print order.
    pub schemes: Vec<SchemeKind>,
    /// FM:NM capacity ratio.
    pub ratio: u64,
}

impl Block {
    /// The block's cells at run size `params`, workload-major.
    pub fn jobs(&self, params: &RunParams) -> Vec<Job> {
        let grid = ExperimentGrid::new(SystemConfig::experiment(), params.with_ratio(self.ratio));
        let grid = self.workloads.iter().fold(grid, |g, p| g.workload(p));
        grid.schemes(self.schemes.iter().copied()).jobs()
    }
}

/// Every cell of `sections` at run size `params`, in section and block
/// order, duplicates kept.
pub fn cells(sections: &[Section], params: &RunParams) -> Vec<Job> {
    let blocks = sections.iter().flat_map(|s| s.blocks(params));
    blocks.flat_map(|b| b.jobs(params)).collect()
}

/// `cells` without the cells equal to an earlier one, in first-seen order.
pub fn dedup(cells: &[Job]) -> Vec<Job> {
    let mut unique: Vec<Job> = Vec::new();
    for cell in cells {
        if !unique.contains(cell) {
            unique.push(*cell);
        }
    }
    unique
}

/// Distinct jobs and their results, looked up by job.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The jobs, in run order.
    pub jobs: Vec<Job>,
    /// `jobs[i]`'s result at `results[i]`.
    pub results: Vec<RunResult>,
}

impl Grid {
    /// Runs `jobs` untraced in one [`run_grid`] call on the default worker
    /// count.
    pub fn run(jobs: Vec<Job>) -> Self {
        let outputs = run_grid(&jobs, &RunSpec::default(), default_threads());
        let outputs = outputs.expect("a fault-free grid cannot fail");
        let results = outputs.into_iter().map(|out| out.result).collect();
        Self { jobs, results }
    }

    /// The results of `block` at `params`.
    fn matrix(&self, block: &Block, params: &RunParams) -> Matrix<'_> {
        let result = |job: &Job| {
            let i = self.jobs.iter().position(|j| j == job);
            &self.results[i.expect("the grid holds every cell it renders")]
        };
        let cells: Vec<&RunResult> = block.jobs(params).iter().map(result).collect();
        let rows = cells.chunks(block.schemes.len().max(1));
        rows.map(<[&RunResult]>::to_vec).collect()
    }
}

/// What the `paper` command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Run size: [`RunParams::quick`], or [`RunParams::full`] if any
    /// argument is `--full`.
    pub params: RunParams,
    /// `"quick"` or `"full"`, for the titles.
    pub mode: &'static str,
    /// Sections to print, in order; every section when none is named.
    pub sections: Vec<Section>,
}

impl Options {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown flag or section name.
    pub fn parse<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let mut opts = Options {
            params: RunParams::quick(),
            mode: "quick",
            sections: Vec::new(),
        };
        for arg in args {
            match arg.as_ref() {
                "--quick" => {}
                "--full" => (opts.params, opts.mode) = (RunParams::full(), "full"),
                name => match Section::ALL.into_iter().find(|s| s.name() == name) {
                    Some(section) => opts.sections.push(section),
                    None => return Err(format!("unknown argument '{name}'")),
                },
            }
        }
        if opts.sections.is_empty() {
            opts.sections = Section::ALL.to_vec();
        }
        Ok(opts)
    }
}

/// `kinds` labelled as the paper's figures label them.
fn labelled(kinds: Vec<SchemeKind>) -> Columns {
    let label = |k: SchemeKind| (k.label().to_string(), k);
    kinds.into_iter().map(label).collect()
}

/// The no-NM baseline followed by `kinds`.
fn with_base(kinds: &[SchemeKind]) -> Vec<SchemeKind> {
    [&[SchemeKind::NoNm], kinds].concat()
}

/// `f(row, cell)` for every cell of `m` from column `from` on.
fn values(m: &[Vec<&RunResult>], from: usize, f: CellFn) -> Vec<Vec<f64>> {
    let row = |row: &Vec<&RunResult>| row[from..].iter().map(|r| f(row, r)).collect();
    m.iter().map(row).collect()
}

/// Speedups over the no-NM baseline in column 0, which they leave out.
fn speedups(m: &[Vec<&RunResult>]) -> Vec<Vec<f64>> {
    values(m, 1, &|row, r| r.speedup_over(row[0]))
}

/// The columns of `[row][column]` values.
fn columns(values: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let column = |k| values.iter().map(|row: &Vec<f64>| row[k]).collect();
    (0..values.first().map_or(0, Vec::len))
        .map(column)
        .collect()
}

/// One row per workload of `m`, from `[workload][column]` values.
fn rows_of(m: &[Vec<&RunResult>], values: Vec<Vec<f64>>) -> Vec<Row> {
    let row = |(cells, v): (&Vec<&RunResult>, _)| Row::new(cells[0].workload.clone(), v);
    m.iter().zip(values).map(row).collect()
}

/// [`rows_of`] plus a row of each column's `summary`, and that row's values.
fn summarized(
    m: &[Vec<&RunResult>],
    values: Vec<Vec<f64>>,
    (label, summary): (&str, fn(&[f64]) -> f64),
) -> (Vec<Row>, Vec<f64>) {
    let summaries: Vec<f64> = columns(&values).iter().map(|c| summary(c)).collect();
    let mut rows = rows_of(m, values);
    rows.push(Row::new(label, summaries.clone()));
    (rows, summaries)
}

/// A three-decimal table with `columns`' labels.
fn table(title: &str, columns: &Columns, rows: &[Row]) -> String {
    let labels: Vec<&str> = columns.iter().map(|c| c.0.as_str()).collect();
    format_table(title, &labels, rows, 3)
}

fn table2(out: &mut String) {
    let paper = SystemConfig::paper();
    let (nm, fm) = (DramConfig::hbm2(), DramConfig::ddr3());
    let core = &paper.core;
    let _ = writeln!(
        out,
        "# Table II: system configuration\n\
         Processor : {} cores @ {} MHz, {}-wide OoO, {} ROB entries",
        core.cores, core.freq_mhz, core.width, core.rob_entries
    );
    for (name, c) in [("L1 I-cache", &paper.l1i), ("L1 D-cache", &paper.l1d)] {
        let (kib, ways, lat) = (c.capacity_bytes >> 10, c.ways, c.latency_cycles);
        let _ = writeln!(out, "{name}: {kib} KiB, {ways}-way, {lat} cycles (private)");
    }
    let _ = writeln!(
        out,
        "L2 cache  : {} MiB, {}-way, {} cycles (shared; experiments run {} MiB — see DESIGN.md)\n",
        paper.l2.capacity_bytes >> 20,
        paper.l2.ways,
        paper.l2.latency_cycles,
        SystemConfig::experiment().l2.capacity_bytes >> 20
    );
    for d in [&nm, &fm] {
        let (ch, bits, mhz, ranks, banks) = (d.channels, d.bus_bits, d.bus_mhz, d.ranks, d.banks);
        let (kib, rq, wq, bw) = (
            d.row_bytes >> 10,
            d.read_queue,
            d.write_queue,
            d.peak_bandwidth_gbs(),
        );
        let t = &d.timings;
        let (cas, rcd, rp, ras) = (t.t_cas, t.t_rcd, t.t_rp, t.t_ras);
        let _ = writeln!(
            out,
            "{:4} : {ch} channels x {bits}-bit @ {mhz} MHz DDR, {ranks} ranks x {banks} banks, \
             {kib} KiB rows, RQ/WQ {rq}/{wq}, tCAS-tRCD-tRP-tRAS = {cas}-{rcd}-{rp}-{ras}, \
             peak {bw:.1} GB/s",
            d.name
        );
    }
    let (nm_bw, fm_bw) = (nm.peak_bandwidth_gbs(), fm.peak_bandwidth_gbs());
    let _ = writeln!(
        out,
        "\nGeometry  : {}\nCapacity  : FM:NM = {}:1\n\
         Bandwidth : NM:FM = {nm_bw:.0}:{fm_bw:.0} = {:.0}:1 \
         (the 4:1 ratio behind the 0.8 bypass target)",
        paper.geometry,
        paper.fm_to_nm_ratio,
        nm_bw / fm_bw
    );
}

fn table3(out: &mut String, mode: &str, m: &[Vec<&RunResult>]) {
    let _ = writeln!(
        out,
        "# Table III: workloads ({mode} mode)\n{:8} {:>12} {:>12} {:>16} {:>14}",
        "name", "class", "MPKI(meas.)", "footprint(MiB)", "writes(frac)"
    );
    for r in m.iter().map(|row| row[0]) {
        let profile = profiles::by_name(&r.workload).expect("Table III");
        let _ = writeln!(
            out,
            "{:8} {:>12} {:>12.1} {:>16.1} {:>14.2}",
            profile.name,
            profile.class.to_string().replace(" MPKI", ""),
            r.mpki,
            r.footprint_bytes as f64 / (1 << 20) as f64,
            profile.write_fraction,
        );
    }
    out.push_str(
        "\nClass boundaries (paper): Low < 11, Medium 11..=32, High > 32 LLC MPKI per core.\n\
         Measured MPKI is post-LLC (the cache filters some hot-set reuse).\n",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().copied())
    }

    #[test]
    fn arguments_pick_size_and_sections_in_order() {
        let quick = parse(&[]).unwrap();
        assert_eq!(parse(&["--quick"]), Ok(quick.clone()));
        assert_eq!((quick.params, quick.mode), (RunParams::quick(), "quick"));
        assert_eq!(quick.sections, Section::ALL);
        let full = parse(&["--full"]).unwrap();
        assert_eq!((full.params, full.mode), (RunParams::full(), "full"));
        assert_eq!(full.sections, Section::ALL);
        let subset = parse(&["ablation_bypass", "--full", "table2_config"]).unwrap();
        assert_eq!(subset.sections, [Section::Bypass, Section::Table2]);
        assert_eq!(subset.mode, "full");
        for s in Section::ALL {
            assert_eq!(parse(&[s.name()]).unwrap().sections, [s]);
        }
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for bad in [
            &["--ful"][..],
            &["--smoke"],
            &["fig7"],
            &["table2_config", "-h"],
        ] {
            let msg = parse(bad).unwrap_err();
            assert!(msg.starts_with("unknown argument '"), "{msg}");
        }
    }

    #[test]
    fn the_ten_sections_share_cells() {
        // Quick: 744 cells, 392 distinct. Ratio 4 holds the no-NM baseline,
        // the six lineup schemes and Fig. 6's three extra rungs on all 14
        // workloads (140); ratios 16 and 8 hold base + lineup (196); A1's
        // T=4/8/16 all run threshold 2 and T=50's 7 differs from the
        // default, so A1 adds four columns on four workloads (16); A2 and
        // A3 each add five non-paper columns on four or five workloads (20).
        let quick = cells(&Section::ALL, &RunParams::quick());
        assert_eq!((quick.len(), dedup(&quick).len()), (744, 392));
        // Full: A1's thresholds 2/4/9/19/30/37 are all distinct (24).
        let full = cells(&Section::ALL, &RunParams::full());
        assert_eq!((full.len(), dedup(&full).len()), (744, 400));
        assert_eq!(cells(&[Section::Table2], &RunParams::quick()), []);
    }

    #[test]
    fn a_shared_grid_renders_each_section_as_its_own_grid_does() {
        // A tenth of a smoke run keeps the 112 unoptimized jobs fast.
        let params = RunParams {
            accesses_per_core: 3_000,
            ..RunParams::smoke()
        };
        let sections = [Section::Bypass, Section::Features];
        let shared_cells = cells(&sections, &params);
        let shared = Grid::run(dedup(&shared_cells));
        // milc's and lib's no-NM and paper SILC-FM runs are in both.
        assert_eq!((shared_cells.len(), shared.jobs.len()), (58, 54));
        for s in sections {
            let own = Grid::run(dedup(&cells(&[s], &params)));
            assert!(own.jobs.len() < shared.jobs.len());
            let text = s.render("smoke", &params, &shared);
            assert!(text.contains("(smoke mode)\n") && text.contains("\ngmean "));
            assert_eq!(text, s.render("smoke", &params, &own));
        }
    }
}
