//! Crash-safe experiment journal: an append-only record of finished grid
//! jobs that lets a killed run resume without repeating work.
//!
//! The format is a plain text file, one line per record:
//!
//! * a header line, `silcfm-journal v1 grid=<hex>`, binding the journal to
//!   one exact job grid (the digest covers every job's full configuration
//!   and the fault plane the grid runs under);
//! * one `job` line per finished job, carrying the complete [`RunResult`]
//!   in whitespace-separated fields. Floats are written as the hex of their
//!   IEEE-754 bits, so a journal round-trip is *bit-identical* — a resumed
//!   grid's aggregate equals the uninterrupted run's byte for byte.
//!
//! Every append is flushed before the runner moves on, so a crash loses at
//! most the in-flight record. The reader tolerates exactly that: a torn
//! final line is discarded, anything else malformed is an error.

// silcfm-lint: allow-file(T1) -- the only concurrency here is the process-wide
// intern pool below: an idempotent, leaked String -> &'static str map whose
// lock order cannot affect simulation results.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use silcfm_types::{FxHashMap, FxHasher, SilcFmError};

use crate::experiment::FaultParams;
use crate::metrics::{RunResult, TrafficTally};
use crate::runner::Job;

/// Digest binding a journal to one job grid run under `faults`. Any change
/// to the grid — a workload, a scheme parameter, a seed, the fault plane —
/// changes the digest and makes old journals unusable (resuming against a
/// different grid would splice incompatible results). The tracer tier and
/// the engine are deliberately not covered: neither changes a result, so
/// serial and sharded runs share journals. Without faults the digest covers
/// the jobs alone.
pub fn grid_digest(jobs: &[Job], faults: Option<&FaultParams>) -> u64 {
    let mut h = FxHasher::default();
    jobs.len().hash(&mut h);
    for job in jobs {
        // Jobs are plain-old-data with stable `Debug` output; hashing the
        // rendering covers every field without a bespoke Hash impl over f64.
        format!("{job:?}").hash(&mut h);
    }
    if let Some(faults) = faults {
        format!("{faults:?}").hash(&mut h);
    }
    h.finish()
}

/// Returns the interned `&'static str` for `s`.
///
/// [`silcfm_types::SchemeStats`] detail keys are `&'static str` so the hot
/// path never allocates; a journal read must rebuild them from file text.
/// The intern pool leaks one copy of each *distinct* key ever read — keys
/// come from the fixed registry in `crates/lint/stat_keys.txt`, so the pool
/// is small and bounded.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<FxHashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(FxHashMap::default()));
    let Ok(mut pool) = pool.lock() else {
        // A poisoned intern pool cannot corrupt data; fall back to leaking.
        return Box::leak(s.to_string().into_boxed_str());
    };
    if let Some(k) = pool.get(s) {
        return k;
    }
    let k: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), k);
    k
}

fn f64_to_field(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// One journal line for a finished job. Tokens never contain whitespace:
/// scheme/workload labels are fixed identifiers and numbers are decimal or
/// hex.
fn encode(index: usize, r: &RunResult) -> String {
    use core::fmt::Write as _;
    let mut line = format!(
        "job {index} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        r.scheme,
        r.workload,
        r.cycles,
        r.instructions,
        r.llc_misses,
        f64_to_field(r.access_rate),
        r.traffic.nm_demand,
        r.traffic.fm_demand,
        r.traffic.nm_other,
        r.traffic.fm_other,
        f64_to_field(r.energy_pj),
        r.scheme_stats.accesses,
        r.scheme_stats.serviced_from_nm,
        r.scheme_stats.subblocks_moved,
        r.scheme_stats.blocks_migrated,
        f64_to_field(r.mpki),
        r.footprint_bytes,
        r.scheme_stats.details.len(),
    );
    for (key, value) in &r.scheme_stats.details {
        let _ = write!(line, " {key} {}", f64_to_field(*value));
    }
    line
}

/// Parses one `job` line (sans the leading `job` token). Returns `None` on
/// any shortfall or malformed field — the caller decides whether that means
/// "torn tail" (tolerated) or "corrupt" (error).
fn decode(tokens: &[&str]) -> Option<(usize, RunResult)> {
    let mut it = tokens.iter();
    let mut next = || it.next().copied();
    let index: usize = next()?.parse().ok()?;
    let scheme = next()?.to_string();
    let workload = next()?.to_string();
    let int = |s: Option<&str>| s?.parse::<u64>().ok();
    let float = |s: Option<&str>| u64::from_str_radix(s?, 16).ok().map(f64::from_bits);
    let cycles = int(next())?;
    let instructions = int(next())?;
    let llc_misses = int(next())?;
    let access_rate = float(next())?;
    let traffic = TrafficTally {
        nm_demand: int(next())?,
        fm_demand: int(next())?,
        nm_other: int(next())?,
        fm_other: int(next())?,
    };
    let energy_pj = float(next())?;
    let mut scheme_stats = silcfm_types::SchemeStats {
        accesses: int(next())?,
        serviced_from_nm: int(next())?,
        subblocks_moved: int(next())?,
        blocks_migrated: int(next())?,
        ..Default::default()
    };
    let mpki = float(next())?;
    let footprint_bytes = int(next())?;
    let ndetails = int(next())? as usize;
    for _ in 0..ndetails {
        let key = intern(next()?);
        let value = float(next())?;
        scheme_stats.details.push((key, value));
    }
    if it.next().is_some() {
        return None; // trailing junk: treat as malformed
    }
    Some((
        index,
        RunResult {
            scheme,
            workload,
            cycles,
            instructions,
            llc_misses,
            access_rate,
            traffic,
            energy_pj,
            scheme_stats,
            mpki,
            footprint_bytes,
        },
    ))
}

fn header_line(digest: u64) -> String {
    format!("silcfm-journal v1 grid={digest:016x}")
}

/// The write side of a journal: created fresh or reopened for resume, it
/// appends one flushed line per finished job.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates (truncating) a journal for a grid with the given digest and
    /// writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn create(path: &Path, digest: u64) -> Result<Self, SilcFmError> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        writeln!(out, "{}", header_line(digest))?;
        out.flush()?;
        Ok(Self { out })
    }

    /// Appends one finished job and flushes, so a crash after this call
    /// never loses the record.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn append(&mut self, index: usize, result: &RunResult) -> Result<(), SilcFmError> {
        writeln!(self.out, "{}", encode(index, result))?;
        self.out.flush()?;
        Ok(())
    }
}

/// Reads a journal back: validates the header against `digest`, collects
/// the finished jobs, and reopens the file in append mode so the run can
/// continue where it stopped. A torn final line (no trailing newline, or a
/// line that stops mid-field) is discarded silently — that is the crash the
/// journal exists to survive.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when the file is unreadable, the header
/// names a different grid, or an interior line is malformed.
pub fn resume(
    path: &Path,
    digest: u64,
) -> Result<(JournalWriter, BTreeMap<usize, RunResult>), SilcFmError> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    // Bytes past the last newline are the in-flight record of a crash;
    // they are the one loss the format tolerates.
    let complete_up_to = text.rfind('\n').map_or(0, |i| i + 1);
    let body = &text[..complete_up_to];
    let header_end = body
        .find('\n')
        .map(|i| i + 1)
        .ok_or_else(|| SilcFmError::journal("journal is empty (no header line)"))?;
    let header = body[..header_end].trim_end();
    if header != header_line(digest) {
        return Err(SilcFmError::journal(format!(
            "journal belongs to a different grid: found {header:?}, expected {:?}",
            header_line(digest)
        )));
    }
    let mut done = BTreeMap::new();
    // Track the byte offset of the last intact record so the file can be
    // truncated back to a clean state before appending resumes.
    let mut valid_up_to = header_end;
    let mut rest = body[header_end..].split_inclusive('\n').peekable();
    while let Some(raw) = rest.next() {
        let line = raw.trim_end_matches('\n');
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let parsed = match tokens.split_first() {
            Some((&"job", fields)) => decode(fields),
            _ => None,
        };
        match parsed {
            Some((index, result)) => {
                done.insert(index, result);
                valid_up_to += raw.len();
            }
            // A malformed *last* line can be a crash artifact and is
            // dropped; a malformed interior line cannot, and means
            // corruption the journal must not paper over.
            None if rest.peek().is_none() => break,
            None => {
                return Err(SilcFmError::journal(format!(
                    "malformed journal line: {line:?}"
                )))
            }
        }
    }
    if valid_up_to < text.len() {
        // Heal the crash damage: cut the torn/malformed tail so appended
        // records start on a fresh line.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_up_to as u64)?;
    }
    let file = OpenOptions::new().append(true).open(path)?;
    Ok((
        JournalWriter {
            out: BufWriter::new(file),
        },
        done,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::SchemeStats;

    fn result(cycles: u64) -> RunResult {
        RunResult {
            scheme: "silcfm".into(),
            workload: "milc".into(),
            cycles,
            instructions: 123_456,
            llc_misses: 789,
            access_rate: 0.8251,
            traffic: TrafficTally {
                nm_demand: 1,
                fm_demand: 2,
                nm_other: 3,
                fm_other: 4,
            },
            energy_pj: 1.5e9,
            scheme_stats: SchemeStats {
                accesses: 99,
                serviced_from_nm: 81,
                subblocks_moved: 7,
                blocks_migrated: 2,
                details: vec![("locks", 4.0), ("fault_poisoned", 0.125)],
            },
            mpki: 13.37,
            footprint_bytes: 1 << 21,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
            .join("silcfm-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let path = tmp("roundtrip.journal");
        let mut w = JournalWriter::create(&path, 42).unwrap();
        w.append(0, &result(1000)).unwrap();
        w.append(3, &result(2000)).unwrap();
        drop(w);
        let (_w, done) = resume(&path, 42).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], result(1000));
        assert_eq!(done[&3], result(2000));
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut r = result(1);
        r.access_rate = f64::from_bits(0x3FE9_9999_9999_999A); // 0.8 exactly as stored
        r.mpki = -0.0;
        let path = tmp("floatbits.journal");
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.append(0, &r).unwrap();
        drop(w);
        let (_w, done) = resume(&path, 7).unwrap();
        assert_eq!(done[&0].access_rate.to_bits(), r.access_rate.to_bits());
        assert_eq!(done[&0].mpki.to_bits(), r.mpki.to_bits());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn.journal");
        let mut w = JournalWriter::create(&path, 9).unwrap();
        w.append(0, &result(500)).unwrap();
        drop(w);
        // Simulate a crash mid-append: partial line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "job 1 silcfm milc 77").unwrap();
        drop(f);
        let (mut w, done) = resume(&path, 9).unwrap();
        assert_eq!(done.len(), 1, "torn record must be dropped");
        // Resume healed the tail: the re-appended record lands on a fresh
        // line and the journal reads back complete.
        w.append(1, &result(600)).unwrap();
        drop(w);
        let (_w, done) = resume(&path, 9).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&1], result(600));
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let path = tmp("mismatch.journal");
        drop(JournalWriter::create(&path, 1).unwrap());
        let err = resume(&path, 2).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = tmp("corrupt.journal");
        let mut w = JournalWriter::create(&path, 5).unwrap();
        w.append(0, &result(500)).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "job zzz not-a-record").unwrap();
        writeln!(f, "{}", encode(1, &result(600))).unwrap();
        drop(f);
        let err = resume(&path, 5).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn digest_is_sensitive_to_the_grid() {
        use crate::experiment::{RunParams, SchemeKind};
        use silcfm_trace::profiles;
        use silcfm_types::SystemConfig;
        let job = Job {
            profile: *profiles::by_name("milc").unwrap(),
            scheme: SchemeKind::NoNm,
            cfg: SystemConfig::small(),
            params: RunParams::smoke(),
        };
        let mut other = job;
        other.params.seed ^= 1;
        assert_ne!(grid_digest(&[job], None), grid_digest(&[job, job], None));
        assert_ne!(grid_digest(&[job], None), grid_digest(&[other], None));
        assert_eq!(grid_digest(&[job], None), grid_digest(&[job], None));
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("fault_masked");
        let b = intern("fault_masked");
        assert!(core::ptr::eq(a, b));
        assert_eq!(a, "fault_masked");
    }
}
