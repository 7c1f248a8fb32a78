//! The append-only fidelity decision log — the container's audit plane.
//!
//! Online fidelity control (paper §4.5) changes what bytes a training run
//! reads *while it runs*; without a durable record of those decisions the
//! artifact cannot answer "why did fidelity drop at epoch 40". This
//! module defines `decisions.pcrd`, an append-only, CRC-chained log that
//! rides in the container directory next to the manifest: one
//! [`DecisionRecord`] per controller decision (epoch, trigger kind,
//! per-group MSSIM probe scores, scan group chosen, bytes read vs a
//! fixed-fidelity epoch, cache hit rate, observed loss). The byte layout
//! is normative in FORMAT.md §7, with a worked hexdump.
//!
//! Design points:
//!
//! - **Append-only with a CRC chain.** Each record's trailing CRC-32
//!   covers the previous record's CRC plus this record's body, so a log
//!   can only be extended, never silently rewritten: editing any record
//!   breaks the chain at exactly that record. A new session resumes the
//!   chain from the last record on disk ([`DecisionLogWriter::open`]).
//! - **Parse-lenient, verify-strict.** [`DecisionLog::parse`] delivers
//!   every structurally decodable record even when chain CRCs mismatch
//!   (a forensics read of a damaged log must still show the decisions);
//!   [`DecisionLog::verify`] is the strict integrity pass, and
//!   `PcrContainer::verify` calls it whenever the log file is present.
//! - **Byte-deterministic.** The record deliberately excludes wall-clock
//!   throughput, so a seeded controller run replayed over the same
//!   container reproduces the log byte-for-byte — the golden-trace
//!   regression harness in `tests/golden_trace.rs` relies on this, and
//!   [`DecisionLog::diff`] renders a readable per-decision report when a
//!   replay diverges.

use crate::error::{Error, Result};
use crate::wire::{crc32, crc32_update, put_u16, put_u32, put_u64, Reader};
use pcr_metrics::{FidelityEpoch, TriggerKind};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// File name of the decision log inside a container directory.
pub const DECISION_LOG_FILE: &str = "decisions.pcrd";

/// Magic bytes opening a decision-log file.
pub const DECLOG_MAGIC: &[u8; 4] = b"PCRD";

/// Decision-log format version this module reads and writes.
pub const DECLOG_VERSION: u16 = 1;

/// Header: magic (4) + version u16 + reserved u16.
const HEADER_LEN: usize = 8;

/// Fixed body bytes before the probe-score list: epoch u64 + trigger u8 +
/// scan_group u16 + bytes_read u64 + bytes_full u64 + images u64 +
/// cache_hit_rate u64 + loss u64 + score count u16.
const MIN_BODY_LEN: usize = 53;

/// Bytes per probe score: group u16 + MSSIM f64 bits.
const SCORE_LEN: usize = 10;

/// The 8 header bytes every decision log starts with.
fn header_bytes() -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(DECLOG_MAGIC);
    put_u16(&mut h, DECLOG_VERSION);
    put_u16(&mut h, 0); // reserved
    h
}

/// The chain value before any record: CRC-32 of the file header. Every
/// record's stored chain is `crc32(previous chain LE ‖ record body)`.
pub fn genesis_chain() -> u32 {
    crc32(&header_bytes())
}

/// One controller decision, as stored in the log. This mirrors
/// [`FidelityEpoch`] minus `images_per_sec`: wall-clock throughput is
/// nondeterministic and would break byte-for-byte golden replays, so the
/// durable form carries `bytes_full` (what a fixed full-quality epoch
/// would have read) instead, which also makes the bytes-saved rollup
/// answerable from the artifact alone.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Epoch index the decision applied to.
    pub epoch: u64,
    /// Why this epoch ran at `scan_group`.
    pub trigger: TriggerKind,
    /// Scan group the epoch read at.
    pub scan_group: u16,
    /// Compressed bytes the epoch actually read.
    pub bytes_read: u64,
    /// Bytes a fixed full-quality epoch would have read.
    pub bytes_full: u64,
    /// Images delivered this epoch.
    pub images: u64,
    /// Store-wide cache hit rate at the end of the epoch.
    pub cache_hit_rate: f64,
    /// Training loss the controller observed.
    pub loss: f64,
    /// `(group, MSSIM-vs-full)` probe scores the controller selected
    /// from; empty when no probe ran (fixed-group runs).
    pub probe_scores: Vec<(u16, f64)>,
}

impl DecisionRecord {
    /// Bytes this decision saved versus a fixed full-quality epoch.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_full.saturating_sub(self.bytes_read)
    }

    /// Builds the durable form of a trace entry. `bytes_full` is the
    /// fixed-fidelity epoch cost the caller knows from its source.
    pub fn from_epoch(e: &FidelityEpoch, bytes_full: u64) -> Self {
        Self {
            epoch: e.epoch,
            trigger: e.trigger,
            scan_group: u16::try_from(e.scan_group).unwrap_or(u16::MAX),
            bytes_read: e.bytes_read,
            bytes_full,
            images: e.images,
            cache_hit_rate: e.cache_hit_rate,
            loss: e.loss,
            probe_scores: e.probe_scores.clone(),
        }
    }

    /// Every durable record one epoch appends, in log order: its decision
    /// ([`DecisionRecord::from_epoch`]) and, only when the storage plane
    /// degraded or quarantined records (so zero-fault runs serialize
    /// byte-identically to pre-fault-plane builds), the additive
    /// `degraded` audit record. FORMAT.md §7.3.1's field reuse lives here
    /// and nowhere else: `images` carries the degraded-record count,
    /// `loss` the quarantined-record count, and there are no probe scores.
    pub fn epoch_records(e: &FidelityEpoch, bytes_full: u64) -> Vec<Self> {
        let decision = Self::from_epoch(e, bytes_full);
        if e.faults.degraded_records == 0 && e.faults.quarantined_records == 0 {
            return vec![decision];
        }
        let degraded = Self {
            trigger: TriggerKind::Degraded,
            images: e.faults.degraded_records,
            loss: e.faults.quarantined_records as f64,
            probe_scores: Vec::new(),
            ..decision.clone()
        };
        vec![decision, degraded]
    }

    /// Rehydrates a trace entry; `images_per_sec` is not stored in the
    /// log (wall-clock), so the caller supplies it (commonly 0.0).
    pub fn to_epoch(&self, images_per_sec: f64) -> FidelityEpoch {
        FidelityEpoch {
            epoch: self.epoch,
            scan_group: usize::from(self.scan_group),
            trigger: self.trigger,
            probe_scores: self.probe_scores.clone(),
            bytes_read: self.bytes_read,
            images: self.images,
            images_per_sec,
            cache_hit_rate: self.cache_hit_rate,
            loss: self.loss,
            // Fault counters are trace-only observability; the durable
            // record does not carry them (FORMAT.md §7).
            faults: Default::default(),
        }
    }

    /// Serializes the record body (everything the chain CRC covers).
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<()> {
        let n = u16::try_from(self.probe_scores.len()).map_err(|_| {
            Error::BadInput(format!(
                "decision record: {} probe scores exceed the u16 count field",
                self.probe_scores.len()
            ))
        })?;
        put_u64(out, self.epoch);
        out.push(self.trigger.wire());
        put_u16(out, self.scan_group);
        put_u64(out, self.bytes_read);
        put_u64(out, self.bytes_full);
        put_u64(out, self.images);
        put_u64(out, self.cache_hit_rate.to_bits());
        put_u64(out, self.loss.to_bits());
        put_u16(out, n);
        for &(group, score) in &self.probe_scores {
            put_u16(out, group);
            put_u64(out, score.to_bits());
        }
        Ok(())
    }

    /// Parses one record body (the bytes between the length prefix and
    /// the chain CRC).
    fn parse_body(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body);
        let epoch = r.u64("declog epoch")?;
        let trigger_byte = r.bytes(1, "declog trigger")?.first().copied().unwrap_or(0);
        let trigger = TriggerKind::from_wire(trigger_byte).ok_or(Error::Malformed(format!(
            "decision log: unknown trigger kind {trigger_byte}"
        )))?;
        let scan_group = r.u16("declog scan group")?;
        let bytes_read = r.u64("declog bytes read")?;
        let bytes_full = r.u64("declog bytes full")?;
        let images = r.u64("declog images")?;
        let cache_hit_rate = f64::from_bits(r.u64("declog cache hit rate")?);
        let loss = f64::from_bits(r.u64("declog loss")?);
        let n = usize::from(r.u16("declog score count")?);
        if r.remaining() < n.saturating_mul(SCORE_LEN) {
            return Err(Error::Truncated { context: "declog probe scores" });
        }
        // pcr-lint: allow(bounded-alloc) — n validated against the remaining
        // body bytes just above, and the body length against the file.
        let mut probe_scores = Vec::with_capacity(n);
        for _ in 0..n {
            let group = r.u16("declog score group")?;
            let score = f64::from_bits(r.u64("declog score value")?);
            probe_scores.push((group, score));
        }
        Ok(Self {
            epoch,
            trigger,
            scan_group,
            bytes_read,
            bytes_full,
            images,
            cache_hit_rate,
            loss,
            probe_scores,
        })
    }

    /// Compact one-line rendering of the probe scores, for diffs.
    fn scores_summary(&self) -> String {
        if self.probe_scores.is_empty() {
            return "(none)".into();
        }
        let mut s = String::new();
        for (i, &(g, v)) in self.probe_scores.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{g}:{v:.4}");
        }
        s
    }
}

/// A parsed decision log.
///
/// Parsing is lenient: every structurally decodable record is delivered
/// even when its chain CRC does not match (corruption is reported by
/// [`DecisionLog::verify`], not by losing records), and a torn or
/// undecodable tail truncates delivery rather than failing the parse.
/// Only a bad magic or an unknown format version is a parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionLog {
    records: Vec<DecisionRecord>,
    stored_chains: Vec<u32>,
    computed_chains: Vec<u32>,
    undecoded_tail: usize,
    valid_len: usize,
}

impl DecisionLog {
    /// Parses a decision-log file image.
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        let header =
            bytes.get(..HEADER_LEN).ok_or(Error::Truncated { context: "declog header" })?;
        let mut h = Reader::new(header);
        if h.bytes(4, "declog magic")? != DECLOG_MAGIC {
            return Err(Error::BadMagic);
        }
        let version = h.u16("declog version")?;
        if version != DECLOG_VERSION {
            return Err(Error::BadVersion(version));
        }
        let mut log = Self {
            records: Vec::new(),
            stored_chains: Vec::new(),
            computed_chains: Vec::new(),
            undecoded_tail: 0,
            valid_len: HEADER_LEN,
        };
        let mut chain = crc32(header);
        let mut off = HEADER_LEN;
        while let Some(rest) = bytes.get(off..) {
            if rest.is_empty() {
                break;
            }
            let Some((record, stored, computed, consumed)) = parse_one(rest, chain) else {
                // Torn append or structural damage: deliver what decoded.
                log.undecoded_tail = rest.len();
                break;
            };
            log.records.push(record);
            log.stored_chains.push(stored);
            log.computed_chains.push(computed);
            // Chain forward from the *stored* value: a corrupted body
            // then flags exactly that record (no cascade), while a
            // forged chain field flags itself and its successor.
            chain = stored;
            off = off.saturating_add(consumed);
            log.valid_len = off;
        }
        Ok(log)
    }

    /// Reads and parses `path`.
    pub fn read(path: &Path) -> Result<Self> {
        let bytes =
            fs::read(path).map_err(|e| Error::BadInput(format!("read decision log: {e}")))?;
        Self::parse(&bytes)
    }

    /// Builds a log from records, computing the chain from genesis.
    pub fn from_records(records: Vec<DecisionRecord>) -> Result<Self> {
        let mut log = Self {
            records: Vec::new(),
            stored_chains: Vec::new(),
            computed_chains: Vec::new(),
            undecoded_tail: 0,
            valid_len: HEADER_LEN,
        };
        let mut chain = genesis_chain();
        for rec in records {
            let mut body = Vec::new();
            rec.encode_body(&mut body)?;
            chain = chain_crc(chain, &body);
            log.records.push(rec);
            log.stored_chains.push(chain);
            log.computed_chains.push(chain);
            // Framing: length u32 + body + chain u32, matching to_bytes.
            log.valid_len += 4 + body.len() + 4;
        }
        Ok(log)
    }

    /// Canonical serialization: header plus every record, with the chain
    /// recomputed from genesis.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = header_bytes();
        let mut chain = genesis_chain();
        for rec in &self.records {
            let mut body = Vec::new();
            rec.encode_body(&mut body)?;
            chain = append_record(&mut out, &body, chain);
        }
        Ok(out)
    }

    /// The decoded records, in append order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Number of decoded records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records decoded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes at the tail that did not decode as a complete record
    /// (torn append or structural corruption); 0 for a clean log.
    pub fn undecoded_tail(&self) -> usize {
        self.undecoded_tail
    }

    /// File length through the last fully decoded record (header plus
    /// every complete frame). Truncating a torn file to this length
    /// yields a clean log ending on a record boundary — the recovery
    /// point [`DecisionLogWriter::open`] resumes from after a crash
    /// mid-append.
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// The chain value an appender must continue from.
    pub fn last_chain(&self) -> u32 {
        self.stored_chains.last().copied().unwrap_or_else(genesis_chain)
    }

    /// Strict integrity pass: every record's stored chain CRC must match
    /// the recomputed chain, and the file must end on a record boundary.
    pub fn verify(&self) -> Result<()> {
        self.verify_chain()?;
        if self.undecoded_tail > 0 {
            return Err(Error::Corrupt(format!(
                "decision log: {} undecodable byte(s) after record {}",
                self.undecoded_tail,
                self.records.len()
            )));
        }
        Ok(())
    }

    /// Chain-CRC check alone, ignoring any undecoded tail. This is the
    /// non-negotiable half of [`DecisionLog::verify`]: a chain mismatch
    /// means a decoded record was altered, while a torn tail is the
    /// expected residue of a crash mid-append and is recoverable by
    /// truncating to [`DecisionLog::valid_len`].
    pub fn verify_chain(&self) -> Result<()> {
        for (i, (stored, computed)) in
            self.stored_chains.iter().zip(&self.computed_chains).enumerate()
        {
            if stored != computed {
                return Err(Error::Corrupt(format!(
                    "decision log record {i}: chain CRC mismatch \
                     (stored {stored:#010x}, computed {computed:#010x})"
                )));
            }
        }
        Ok(())
    }

    /// `(bytes read, bytes a fixed full-quality run reads)` summed over
    /// `records` — a selection of one log's records, in log order —
    /// counting each epoch once. A `degraded` audit record repeats its
    /// epoch's byte counts (FORMAT.md §7.3.1), so it counts only when the
    /// selection does not also hold the decision record it follows, as
    /// when only `degraded` records are selected.
    pub fn rollup<'a>(records: impl IntoIterator<Item = &'a DecisionRecord>) -> (u64, u64) {
        let mut previous: Option<&DecisionRecord> = None;
        let (mut read, mut full) = (0, 0);
        for r in records {
            // An audit record right after its own epoch's decision.
            let repeat = r.trigger == TriggerKind::Degraded
                && previous.is_some_and(|p| p.epoch == r.epoch && p.trigger != r.trigger);
            if !repeat {
                read += r.bytes_read;
                full += r.bytes_full;
            }
            previous = Some(r);
        }
        (read, full)
    }

    /// Bytes the whole log saved versus fixed full-quality epochs.
    pub fn bytes_saved(&self) -> u64 {
        let (read, full) = Self::rollup(&self.records);
        full.saturating_sub(read)
    }

    /// Readable per-decision comparison against `actual`, treating `self`
    /// as the expected (golden) log. `None` when the decision sequences
    /// are identical. This is the divergence report the golden-trace
    /// replay harness prints.
    pub fn diff(&self, actual: &DecisionLog) -> Option<String> {
        let mut out = String::new();
        let n = self.records.len().max(actual.records.len());
        for i in 0..n {
            match (self.records.get(i), actual.records.get(i)) {
                (Some(e), Some(a)) if e == a => {}
                (Some(e), Some(a)) => {
                    let _ = writeln!(out, "decision {i} (epoch {}) diverges:", e.epoch);
                    diff_field(&mut out, "epoch", &e.epoch, &a.epoch);
                    diff_field(&mut out, "trigger", &e.trigger, &a.trigger);
                    diff_field(&mut out, "scan_group", &e.scan_group, &a.scan_group);
                    diff_field(&mut out, "bytes_read", &e.bytes_read, &a.bytes_read);
                    diff_field(&mut out, "bytes_full", &e.bytes_full, &a.bytes_full);
                    diff_field(&mut out, "images", &e.images, &a.images);
                    diff_field(&mut out, "cache_hit_rate", &e.cache_hit_rate, &a.cache_hit_rate);
                    diff_field(&mut out, "loss", &e.loss, &a.loss);
                    if e.probe_scores != a.probe_scores {
                        let _ = writeln!(
                            out,
                            "  probe_scores: expected {} | actual {}",
                            e.scores_summary(),
                            a.scores_summary()
                        );
                    }
                }
                (Some(e), None) => {
                    let _ = writeln!(
                        out,
                        "decision {i} (epoch {}, {}): missing from the actual log",
                        e.epoch, e.trigger
                    );
                }
                (None, Some(a)) => {
                    let _ = writeln!(
                        out,
                        "decision {i} (epoch {}, {}): unexpected extra record",
                        a.epoch, a.trigger
                    );
                }
                (None, None) => {}
            }
        }
        if self.records.len() != actual.records.len() {
            let _ = writeln!(
                out,
                "expected {} decision(s), got {}",
                self.records.len(),
                actual.records.len()
            );
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

/// `crc32(prev chain LE ‖ body)` — the chain step.
fn chain_crc(prev: u32, body: &[u8]) -> u32 {
    crc32_update(crc32(&prev.to_le_bytes()), body)
}

/// Appends one framed record (length, body, chain) to `out`; returns the
/// new chain value.
fn append_record(out: &mut Vec<u8>, body: &[u8], prev_chain: u32) -> u32 {
    debug_assert!(body.len() <= MIN_BODY_LEN + SCORE_LEN * usize::from(u16::MAX));
    // pcr-lint: allow(no-truncating-cast) — body ≤ 53 + 10·65535 bytes by
    // construction (encode_body bounds the score count), asserted above.
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
    let chain = chain_crc(prev_chain, body);
    put_u32(out, chain);
    chain
}

/// Decodes one framed record from `rest`. Returns the record, its stored
/// chain, the recomputed chain, and the bytes consumed — or `None` when
/// the bytes do not decode as a complete record (torn tail).
fn parse_one(rest: &[u8], prev_chain: u32) -> Option<(DecisionRecord, u32, u32, usize)> {
    let mut r = Reader::new(rest);
    let body_len = r.u32("declog record length").ok()? as usize;
    if body_len < MIN_BODY_LEN {
        return None;
    }
    let body = r.bytes(body_len, "declog record body").ok()?;
    let stored = r.u32("declog record chain").ok()?;
    let record = DecisionRecord::parse_body(body).ok()?;
    let computed = chain_crc(prev_chain, body);
    Some((record, stored, computed, r.pos()))
}

fn diff_field<T: PartialEq + std::fmt::Display>(
    out: &mut String,
    name: &str,
    expected: &T,
    actual: &T,
) {
    if expected != actual {
        let _ = writeln!(out, "  {name}: expected {expected} | actual {actual}");
    }
}

/// Appends decision records to a log file, maintaining the CRC chain
/// across sessions: opening an existing log parses and verifies it and
/// resumes from its last chain value; opening a fresh path writes the
/// header first.
///
/// Crash recovery: a torn tail (the residue of a crash mid-append — the
/// file ends inside a half-written frame) is truncated back to the last
/// complete record and the chain resumes from there; the number of bytes
/// discarded is reported by [`DecisionLogWriter::recovered_bytes`]. A
/// chain-CRC mismatch on a *decoded* record is real corruption, not a
/// torn write, and is refused — a damaged log is never extended.
#[derive(Debug)]
pub struct DecisionLogWriter {
    file: fs::File,
    chain: u32,
    written: u64,
    recovered: u64,
}

impl DecisionLogWriter {
    /// Opens `path` for appending, creating it (with a header) if absent.
    pub fn open(path: &Path) -> Result<Self> {
        match fs::read(path) {
            Ok(bytes) => {
                let log = DecisionLog::parse(&bytes)?;
                log.verify_chain()?;
                let torn = log.undecoded_tail() as u64;
                if torn > 0 {
                    // Crash mid-append: drop the incomplete frame so the
                    // next append lands on a record boundary.
                    let file = fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| Error::BadInput(format!("open decision log: {e}")))?;
                    file.set_len(log.valid_len() as u64).map_err(|e| {
                        Error::BadInput(format!("truncate torn decision log: {e}"))
                    })?;
                }
                let file = fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| Error::BadInput(format!("open decision log: {e}")))?;
                Ok(Self { file, chain: log.last_chain(), written: 0, recovered: torn })
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut file = fs::OpenOptions::new()
                    .create_new(true)
                    .write(true)
                    .open(path)
                    .map_err(|e| Error::BadInput(format!("create decision log: {e}")))?;
                file.write_all(&header_bytes())
                    .map_err(|e| Error::BadInput(format!("write decision log header: {e}")))?;
                Ok(Self { file, chain: genesis_chain(), written: 0, recovered: 0 })
            }
            Err(e) => Err(Error::BadInput(format!("read decision log: {e}"))),
        }
    }

    /// Appends one record and advances the chain.
    pub fn append(&mut self, rec: &DecisionRecord) -> Result<()> {
        let mut body = Vec::new();
        rec.encode_body(&mut body)?;
        let mut framed = Vec::new();
        self.chain = append_record(&mut framed, &body, self.chain);
        self.file
            .write_all(&framed)
            .map_err(|e| Error::BadInput(format!("append decision log: {e}")))?;
        self.written += 1;
        Ok(())
    }

    /// The current chain value (the last record's CRC).
    pub fn chain(&self) -> u32 {
        self.chain
    }

    /// Records appended through this writer (excludes pre-existing ones).
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Torn-tail bytes discarded during [`DecisionLogWriter::open`]
    /// crash recovery; 0 when the log was clean.
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64, trigger: TriggerKind, group: u16) -> DecisionRecord {
        DecisionRecord {
            epoch,
            trigger,
            scan_group: group,
            bytes_read: 4_000 / (u64::from(group).max(1)),
            bytes_full: 4_000,
            images: 16,
            cache_hit_rate: 0.5,
            loss: 1.0 / (epoch + 1) as f64,
            probe_scores: vec![(1, 0.62), (5, 0.96), (10, 1.0)],
        }
    }

    fn sample_log() -> DecisionLog {
        DecisionLog::from_records(vec![
            sample(0, TriggerKind::Start, 10),
            sample(1, TriggerKind::Hold, 10),
            sample(2, TriggerKind::Plateau, 5),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes().unwrap();
        let back = DecisionLog::parse(&bytes).unwrap();
        assert_eq!(back, log);
        back.verify().unwrap();
        assert_eq!(back.undecoded_tail(), 0);
        assert_eq!(back.records()[2].trigger, TriggerKind::Plateau);
        assert_eq!(back.records()[2].bytes_saved(), 4_000 - 800);
        assert_eq!(back.bytes_saved(), 12_000 - (400 + 400 + 800));
    }

    #[test]
    fn writer_creates_appends_and_resumes_the_chain() {
        let dir = std::env::temp_dir()
            .join(format!("pcr-declog-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DECISION_LOG_FILE);

        // Session 1: two records.
        let mut w = DecisionLogWriter::open(&path).unwrap();
        w.append(&sample(0, TriggerKind::Start, 10)).unwrap();
        w.append(&sample(1, TriggerKind::Plateau, 5)).unwrap();
        assert_eq!(w.records_written(), 2);
        let chain_after_first = w.chain();
        drop(w);

        // Session 2: the chain resumes where session 1 left off.
        let mut w = DecisionLogWriter::open(&path).unwrap();
        assert_eq!(w.chain(), chain_after_first);
        w.append(&sample(2, TriggerKind::Hold, 5)).unwrap();
        drop(w);

        let log = DecisionLog::read(&path).unwrap();
        log.verify().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.records().iter().map(|r| r.trigger).collect::<Vec<_>>(),
            vec![TriggerKind::Start, TriggerKind::Plateau, TriggerKind::Hold]
        );
        // The file equals the canonical serialization of the same records.
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, log.to_bytes().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_chain_is_caught_by_verify_but_records_still_deliver() {
        let log = sample_log();
        let mut bytes = log.to_bytes().unwrap();
        // Flip one bit in the *loss* field of the middle record's body:
        // any f64 bit pattern is structurally valid, so parsing still
        // delivers all three records — only the chain CRC notices.
        let second_body = HEADER_LEN + (4 + 83 + 4) + 4 + 45;
        bytes[second_body] ^= 0x01;
        let damaged = DecisionLog::parse(&bytes).unwrap();
        assert_eq!(damaged.len(), 3, "delivery must survive corruption");
        let err = damaged.verify().unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("record 1")),
            "wrong error: {err:?}"
        );
        // Exactly one record flagged: the chain recomputes forward from
        // recomputed values, so corruption does not cascade.
        let mismatches = damaged
            .stored_chains
            .iter()
            .zip(&damaged.computed_chains)
            .filter(|(s, c)| s != c)
            .count();
        assert_eq!(mismatches, 1);
    }

    #[test]
    fn torn_tail_truncates_delivery_and_fails_verify() {
        let log = sample_log();
        let bytes = log.to_bytes().unwrap();
        let cut = bytes.len() - 7;
        let torn = DecisionLog::parse(&bytes[..cut]).unwrap();
        assert_eq!(torn.len(), 2, "complete records still deliver");
        assert!(torn.undecoded_tail() > 0);
        assert!(torn.verify().is_err());
    }

    #[test]
    fn writer_refuses_to_extend_a_corrupt_log() {
        let dir = std::env::temp_dir().join(format!(
            "pcr-declog-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DECISION_LOG_FILE);
        std::fs::write(&path, sample_log().to_bytes().unwrap()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // last chain byte
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(DecisionLogWriter::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_recovery_at_every_truncation_point() {
        // Crash-mid-append recovery, exhaustively: write three records,
        // then truncate the file at *every* byte position inside the
        // last frame. Open must recover (drop the torn frame, resume the
        // chain) — never panic — and a subsequent append must leave a
        // fully verifiable log.
        let full = sample_log().to_bytes().unwrap();
        let two = DecisionLog::from_records(sample_log().records()[..2].to_vec()).unwrap();
        let boundary = two.valid_len();
        assert!(boundary > HEADER_LEN && boundary < full.len());
        let dir = std::env::temp_dir().join(format!(
            "pcr-declog-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DECISION_LOG_FILE);
        for cut in boundary..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut w = DecisionLogWriter::open(&path).expect("torn tail must recover");
            assert_eq!(w.recovered_bytes(), (cut - boundary) as u64, "cut at {cut}");
            w.append(&sample(9, TriggerKind::Hold, 3)).unwrap();
            drop(w);
            let log = DecisionLog::read(&path).unwrap();
            log.verify().unwrap();
            assert_eq!(log.len(), 3, "cut at {cut}");
            assert_eq!(log.records()[2].epoch, 9);
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_records_round_trip_through_the_log() {
        // TriggerKind::Degraded (wire 5) is additive: it reuses the
        // standard wire fields (images = degraded count, loss =
        // quarantined count) and round-trips like any other record.
        let mut rec = sample(4, TriggerKind::Degraded, 5);
        rec.images = 7; // degraded records
        rec.loss = 2.0; // quarantined records
        rec.probe_scores = Vec::new();
        let log = DecisionLog::from_records(vec![rec.clone()]).unwrap();
        let back = DecisionLog::parse(&log.to_bytes().unwrap()).unwrap();
        back.verify().unwrap();
        assert_eq!(back.records(), &[rec]);
    }

    #[test]
    fn epoch_records_add_a_degraded_record_only_to_faulted_epochs() {
        let mut epoch = sample(4, TriggerKind::Hold, 5).to_epoch(0.0);
        let decision = DecisionRecord::from_epoch(&epoch, 900);
        assert_eq!(DecisionRecord::epoch_records(&epoch, 900), vec![decision.clone()]);

        epoch.faults.degraded_records = 7;
        epoch.faults.quarantined_records = 2;
        let records = DecisionRecord::epoch_records(&epoch, 900);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], decision, "the decision itself is unchanged by faults");
        let degraded = &records[1];
        assert_eq!(degraded.trigger, TriggerKind::Degraded);
        assert_eq!((degraded.images, degraded.loss), (7, 2.0), "FORMAT.md §7.3.1 field reuse");
        assert!(degraded.probe_scores.is_empty());
        assert_eq!(
            (degraded.epoch, degraded.scan_group, degraded.bytes_read, degraded.bytes_full),
            (decision.epoch, decision.scan_group, decision.bytes_read, decision.bytes_full)
        );
        assert_eq!(degraded.cache_hit_rate, decision.cache_hit_rate);
        // Quarantine alone (nothing delivered degraded) still gets one.
        epoch.faults.degraded_records = 0;
        assert_eq!(DecisionRecord::epoch_records(&epoch, 900).len(), 2);
    }

    #[test]
    fn rollups_count_a_faulted_epoch_once() {
        let mut clean = sample(0, TriggerKind::Hold, 4).to_epoch(0.0);
        clean.bytes_read = 1_000;
        let mut faulted = sample(1, TriggerKind::Hold, 4).to_epoch(0.0);
        faulted.bytes_read = 1_000;
        faulted.faults.degraded_records = 2;
        let mut records = DecisionRecord::epoch_records(&clean, 4_000);
        records.extend(DecisionRecord::epoch_records(&faulted, 4_000));
        assert_eq!(records.len(), 3, "the faulted epoch adds its audit record");
        assert_eq!(DecisionLog::rollup(&records), (2_000, 8_000));
        assert_eq!(DecisionLog::from_records(records.clone()).unwrap().bytes_saved(), 6_000);
        // Selected alone, the audit record stands for its epoch.
        let degraded = records.iter().filter(|r| r.trigger == TriggerKind::Degraded);
        assert_eq!(DecisionLog::rollup(degraded), (1_000, 4_000));
        let decisions = records.iter().filter(|r| r.trigger == TriggerKind::Hold);
        assert_eq!(DecisionLog::rollup(decisions), (2_000, 8_000));
    }

    #[test]
    fn bad_magic_and_version_are_parse_errors() {
        assert!(matches!(DecisionLog::parse(b"NOPE\x01\x00\x00\x00"), Err(Error::BadMagic)));
        let mut h = header_bytes();
        h[4] = 9; // version 9
        assert!(matches!(DecisionLog::parse(&h), Err(Error::BadVersion(9))));
        assert!(DecisionLog::parse(b"PCR").is_err());
        // A header alone is a valid, empty log.
        let empty = DecisionLog::parse(&header_bytes()).unwrap();
        assert!(empty.is_empty());
        empty.verify().unwrap();
        assert_eq!(empty.last_chain(), genesis_chain());
    }

    #[test]
    fn epoch_bridge_round_trips_everything_but_throughput() {
        let rec = sample(3, TriggerKind::Retune, 2);
        let epoch = rec.to_epoch(123.4);
        assert_eq!(epoch.images_per_sec, 123.4);
        let back = DecisionRecord::from_epoch(&epoch, rec.bytes_full);
        assert_eq!(back, rec);
    }

    #[test]
    fn diff_reports_per_decision_field_divergence() {
        let golden = sample_log();
        assert_eq!(golden.diff(&golden.clone()), None);

        let mut records = golden.records().to_vec();
        records[2].scan_group = 2;
        records[2].trigger = TriggerKind::Retune;
        let actual = DecisionLog::from_records(records).unwrap();
        let report = golden.diff(&actual).expect("must diverge");
        assert!(report.contains("decision 2 (epoch 2) diverges"), "{report}");
        assert!(report.contains("trigger: expected plateau | actual retune"), "{report}");
        assert!(report.contains("scan_group: expected 5 | actual 2"), "{report}");

        // Length mismatch reads as missing/extra records.
        let shorter =
            DecisionLog::from_records(golden.records()[..2].to_vec()).unwrap();
        let report = golden.diff(&shorter).expect("must diverge");
        assert!(report.contains("missing from the actual log"), "{report}");
        assert!(report.contains("expected 3 decision(s), got 2"), "{report}");
    }
}
