//! Crash-safe journals: append-only records of finished work that let a
//! killed run resume without repeating it.
//!
//! [`Journal<R>`] owns the file format and a [`Record`] type only its
//! fields. The format is a plain text file, one line per record:
//!
//! * a header line, `<MAGIC> v1 grid=<hex>`, binding the journal to one
//!   exact piece of work (for grids, [`grid_digest`]);
//! * one `<TAG> <fields…>` line per finished record. Floats are written as
//!   the hex of their IEEE-754 bits, so a journal round-trip is
//!   *bit-identical* — a resumed grid's aggregate equals the uninterrupted
//!   run's byte for byte.
//!
//! Every append reaches the file before the caller moves on, so a crash
//! loses at most the in-flight record. The reader tolerates exactly that: a
//! torn final line is discarded, anything else malformed is an error.

// silcfm-lint: allow-file(T1) -- the only concurrency here is the process-wide
// intern pool below: an idempotent, leaked String -> &'static str map whose
// lock order cannot affect simulation results.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read as _, Write as _};
use std::marker::PhantomData;
use std::path::Path;
use std::str::SplitWhitespace;
use std::sync::{Mutex, OnceLock};

use silcfm_types::{FxHashMap, FxHasher, SchemeStats, SilcFmError};

use crate::experiment::FaultParams;
use crate::metrics::{RunResult, TrafficTally};
use crate::runner::Job;

/// One kind of journal line. Tokens never contain whitespace: labels are
/// fixed identifiers and numbers are decimal or hex.
pub trait Record: Sized {
    /// First word of the header line, naming the journal kind.
    const MAGIC: &'static str;
    /// First token of every record line.
    const TAG: &'static str;
    /// Appends the record's fields, each preceded by one space, to `line`
    /// (which already holds [`Self::TAG`]).
    fn encode(&self, line: &mut String);
    /// Reads the fields after the tag. `None` on any shortfall or malformed
    /// or out-of-range field; the journal treats fields left over as
    /// malformed too.
    fn decode(fields: &mut Fields<'_>) -> Option<Self>;
}

/// Reader over the whitespace-separated fields of one journal line.
#[derive(Debug)]
pub struct Fields<'a>(SplitWhitespace<'a>);

impl<'a> Fields<'a> {
    /// The next field as text.
    pub fn str(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    /// The next field as a decimal `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.str()?.parse().ok()
    }

    /// The next field as an `f64` written by [`put_f64`], bit for bit.
    pub fn f64(&mut self) -> Option<f64> {
        u64::from_str_radix(self.str()?, 16)
            .ok()
            .map(f64::from_bits)
    }
}

/// Appends ` <hex of v's bits>` to `line`: the exact-bit float field.
pub fn put_f64(line: &mut String, v: f64) {
    let _ = write!(line, " {:016x}", v.to_bits());
}

fn header_line<R: Record>(digest: u64) -> String {
    format!("{} v1 grid={digest:016x}", R::MAGIC)
}

/// Parses one complete record line; `None` if it is not exactly one `R`.
fn parse<R: Record>(line: &str) -> Option<R> {
    let mut fields = Fields(line.split_whitespace());
    if fields.str()? != R::TAG {
        return None;
    }
    let record = R::decode(&mut fields)?;
    fields.str().is_none().then_some(record)
}

/// The write side of a journal of `R` records: created fresh or reopened
/// by [`Journal::resume`], it appends one line per finished record.
#[derive(Debug)]
pub struct Journal<R>(File, PhantomData<fn(&R)>);

impl<R: Record> Journal<R> {
    /// Creates (truncating) a journal for the work with the given digest
    /// and writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn create(path: &Path, digest: u64) -> Result<Self, SilcFmError> {
        let mut file = File::create(path)?;
        file.write_all(format!("{}\n", header_line::<R>(digest)).as_bytes())?;
        Ok(Self(file, PhantomData))
    }

    /// Opens the journal a run with a `--resume`-style flag should use:
    /// with `resume` and an existing file, [`Journal::resume`] it;
    /// otherwise [`Journal::create`] a fresh one with no finished records.
    /// A resume of a journal that was never written therefore starts the
    /// work from the beginning instead of failing.
    ///
    /// # Errors
    ///
    /// As [`Journal::create`] and [`Journal::resume`].
    pub fn open(path: &Path, digest: u64, resume: bool) -> Result<(Self, Vec<R>), SilcFmError> {
        if resume && path.exists() {
            Self::resume(path, digest)
        } else {
            Ok((Self::create(path, digest)?, Vec::new()))
        }
    }

    /// Appends one record. The line goes to the file in one unbuffered
    /// write before this returns, so a crash after this call never loses
    /// the record.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn append(&mut self, record: &R) -> Result<(), SilcFmError> {
        let mut line = String::from(R::TAG);
        record.encode(&mut line);
        line.push('\n');
        self.0.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads a journal back: validates the header against `digest`, returns
    /// the finished records in append order, and reopens the file for
    /// appending. A torn final line (no trailing newline, or a line that
    /// stops mid-field) is discarded and cut off with `set_len` — that is
    /// the crash the journal exists to survive.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] when the file is unreadable, the
    /// header names a different grid, or an interior line is malformed.
    pub fn resume(path: &Path, digest: u64) -> Result<(Self, Vec<R>), SilcFmError> {
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        // Bytes past the last newline are the in-flight record of a crash;
        // they are the one loss the format tolerates.
        let body = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        let (header, lines) = body
            .split_once('\n')
            .ok_or_else(|| SilcFmError::journal("journal is empty (no header line)"))?;
        // The byte offset of the last intact record, so the file can be cut
        // back to a clean state before appending resumes.
        let mut valid_up_to = header.len() + 1;
        let (header, expected) = (header.trim_end(), header_line::<R>(digest));
        if header != expected {
            return Err(SilcFmError::journal(format!(
                "journal belongs to a different grid: found {header:?}, expected {expected:?}"
            )));
        }
        let mut done = Vec::new();
        let mut rest = lines.split_inclusive('\n').peekable();
        while let Some(raw) = rest.next() {
            match parse(raw) {
                Some(record) => {
                    done.push(record);
                    valid_up_to += raw.len();
                }
                // A malformed *last* line can be a crash artifact and is
                // dropped; a malformed interior line cannot, and means
                // corruption the journal must not paper over.
                None if rest.peek().is_none() => break,
                None => {
                    return Err(SilcFmError::journal(format!(
                        "malformed journal line: {:?}",
                        raw.trim_end_matches('\n')
                    )))
                }
            }
        }
        if valid_up_to < text.len() {
            // Heal the crash damage so appended records start on a fresh line.
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(valid_up_to as u64)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((Self(file, PhantomData), done))
    }
}

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

/// One finished grid job: its index in the job list and its complete
/// [`RunResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index of the job in the grid's job list.
    pub index: usize,
    /// The job's result, every field bit-exact.
    pub result: RunResult,
}

impl Record for JobRecord {
    const MAGIC: &'static str = "silcfm-journal";
    const TAG: &'static str = "job";

    fn encode(&self, line: &mut String) {
        let r = &self.result;
        let (t, s) = (&r.traffic, &r.scheme_stats);
        let _ = write!(
            line,
            " {} {} {} {} {} {}",
            self.index, r.scheme, r.workload, r.cycles, r.instructions, r.llc_misses
        );
        put_f64(line, r.access_rate);
        let _ = write!(
            line,
            " {} {} {} {}",
            t.nm_demand, t.fm_demand, t.nm_other, t.fm_other
        );
        put_f64(line, r.energy_pj);
        let _ = write!(
            line,
            " {} {} {} {}",
            s.accesses, s.serviced_from_nm, s.subblocks_moved, s.blocks_migrated
        );
        put_f64(line, r.mpki);
        let _ = write!(line, " {} {}", r.footprint_bytes, s.details.len());
        for (key, value) in &s.details {
            let _ = write!(line, " {key}");
            put_f64(line, *value);
        }
    }

    fn decode(f: &mut Fields<'_>) -> Option<Self> {
        let index = usize::try_from(f.u64()?).ok()?;
        // Struct-expression fields evaluate in the order written, which is
        // the line's field order; the details come last.
        let mut result = RunResult {
            scheme: f.str()?.to_string(),
            workload: f.str()?.to_string(),
            cycles: f.u64()?,
            instructions: f.u64()?,
            llc_misses: f.u64()?,
            access_rate: f.f64()?,
            traffic: TrafficTally {
                nm_demand: f.u64()?,
                fm_demand: f.u64()?,
                nm_other: f.u64()?,
                fm_other: f.u64()?,
            },
            energy_pj: f.f64()?,
            scheme_stats: SchemeStats {
                accesses: f.u64()?,
                serviced_from_nm: f.u64()?,
                subblocks_moved: f.u64()?,
                blocks_migrated: f.u64()?,
                details: Vec::new(),
            },
            mpki: f.f64()?,
            footprint_bytes: f.u64()?,
        };
        // A detail count read from the file allocates nothing up front: a
        // huge count fails on its first missing field.
        for _ in 0..f.u64()? {
            let key = intern(f.str()?);
            result.scheme_stats.details.push((key, f.f64()?));
        }
        Some(Self { index, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, cycles: u64) -> JobRecord {
        JobRecord {
            index,
            result: RunResult {
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
            },
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

    fn append_raw(path: &Path, text: &str) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut r = record(0, 1);
        r.result.access_rate = f64::from_bits(0x3FE9_9999_9999_999A); // 0.8 exactly as stored
        r.result.mpki = -0.0;
        let path = tmp("floatbits.journal");
        let mut w = Journal::create(&path, 7).unwrap();
        w.append(&r).unwrap();
        drop(w);
        let (_w, done) = Journal::<JobRecord>::resume(&path, 7).unwrap();
        let got = &done[0].result;
        assert_eq!(got.access_rate.to_bits(), r.result.access_rate.to_bits());
        assert_eq!(got.mpki.to_bits(), r.result.mpki.to_bits());
    }

    #[test]
    fn open_resumes_only_an_existing_journal() {
        let path = tmp("open.journal");
        let _ = std::fs::remove_file(&path);
        // Resuming a journal that was never written starts a fresh one.
        let (mut w, done) = Journal::<JobRecord>::open(&path, 5, true).unwrap();
        assert!(done.is_empty());
        w.append(&record(0, 100)).unwrap();
        drop(w);
        let (_w, done) = Journal::<JobRecord>::open(&path, 5, true).unwrap();
        assert_eq!(done, vec![record(0, 100)], "an existing journal resumes");
        let (_w, done) = Journal::<JobRecord>::open(&path, 5, false).unwrap();
        assert!(done.is_empty(), "without resume the journal starts over");
        let (_w, done) = Journal::<JobRecord>::resume(&path, 5).unwrap();
        assert!(done.is_empty(), "and the old records are gone");
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn.journal");
        let mut w = Journal::create(&path, 9).unwrap();
        w.append(&record(0, 500)).unwrap();
        drop(w);
        // Simulate a crash mid-append: partial line, no newline.
        append_raw(&path, "job 1 silcfm milc 77");
        let (mut w, done) = Journal::<JobRecord>::resume(&path, 9).unwrap();
        assert_eq!(done.len(), 1, "torn record must be dropped");
        // Resume healed the tail: the re-appended record lands on a fresh
        // line and the journal reads back complete.
        w.append(&record(1, 600)).unwrap();
        drop(w);
        let (_w, done) = Journal::<JobRecord>::resume(&path, 9).unwrap();
        assert_eq!(done, vec![record(0, 500), record(1, 600)]);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let path = tmp("mismatch.journal");
        drop(Journal::<JobRecord>::create(&path, 1).unwrap());
        let err = Journal::<JobRecord>::resume(&path, 2).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = tmp("corrupt.journal");
        let mut w = Journal::create(&path, 5).unwrap();
        w.append(&record(0, 500)).unwrap();
        drop(w);
        let mut valid = String::from(JobRecord::TAG);
        record(1, 600).encode(&mut valid);
        append_raw(&path, &format!("job zzz not-a-record\n{valid}\n"));
        let err = Journal::<JobRecord>::resume(&path, 5).unwrap_err();
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
