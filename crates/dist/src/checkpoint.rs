//! Durable campaign progress: an append-only log of landed shards, so a
//! killed-and-restarted coordinator resumes a campaign — re-shipping
//! artifacts to a fresh fleet but **redoing only the shards that never
//! finished** — and still merges records bit-identical to an
//! uninterrupted run.
//!
//! Every record is keyed by the shard's **content key**: a hash of the
//! session's artifact hashes, the work item's wire fault program and window,
//! and the image range (the server's shard store uses the same key). A
//! record therefore carries its own identity. A log left by another
//! campaign at the same path needs no fingerprint check: its records
//! simply never match a key of this campaign, except those of shards the
//! two campaigns share, which are interchangeable.
//!
//! # File format (version 2)
//!
//! ```text
//! magic    "NVFC"                      4 bytes
//! version  u32 LE                      = 2
//! records, each:
//!   key    u64 LE                      the shard's content key
//!   preds  u64 length + bytes          predicted classes of the shard
//!   crc32  u32 LE                      over this record's key and preds
//! ```
//!
//! A record is appended when a shard lands, and again when an audit
//! repairs it; on load the **last record per key wins**. Loading stops at
//! the first record that is torn or fails its CRC, so a coordinator killed
//! mid-append, or a corrupt tail, loses only the records from there on —
//! never a wrong merge. A header with another magic or version loads as an
//! empty log.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use nvfi_obs::progress;

use crate::codec::{crc32, Dec, Enc};

/// Checkpoint file magic: the bytes `NVFC`.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"NVFC";

/// Checkpoint format version. Bump on any change to the layout or to how
/// shard keys are derived; a log with another version loads empty.
pub const CHECKPOINT_VERSION: u32 = 2;

/// One landed shard: its content key and its predictions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The shard's content key.
    pub key: u64,
    /// Predicted classes of the shard's image range.
    pub preds: Vec<u8>,
}

/// The landed shards a checkpoint log holds: one entry per key (the last
/// record of that key), in order of each key's first record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Landed shards.
    pub entries: Vec<CheckpointEntry>,
}

impl Checkpoint {
    /// Serializes the checkpoint as a log: the header, then one record per
    /// entry.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = header();
        for entry in &self.entries {
            bytes.extend(record(entry.key, &entry.preds));
        }
        bytes
    }

    /// Parses log bytes: every record up to the first torn or corrupt one,
    /// the last record per key winning. Never fails — a damaged log costs
    /// redone shards, never a wrong merge.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Checkpoint {
        decode_prefix(bytes).0
    }

    /// Loads the log at `path`. `None` when the file is missing or
    /// unreadable; damaged content loads as its valid prefix (see
    /// [`Checkpoint::decode`]).
    #[must_use]
    pub fn load(path: &Path) -> Option<Checkpoint> {
        Some(Checkpoint::decode(&fs::read(path).ok()?))
    }

    /// Removes the log after a campaign completes: a finished campaign
    /// leaves nothing behind at its path.
    pub fn remove(path: &Path) {
        let _ = fs::remove_file(path);
    }
}

/// The log header: magic and version.
fn header() -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(u32::from_le_bytes(CHECKPOINT_MAGIC));
    e.u32(CHECKPOINT_VERSION);
    e.into_vec()
}

/// One sealed record: key, length-prefixed predictions, CRC.
fn record(key: u64, preds: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(key);
    e.u8_slice(preds);
    let mut bytes = e.into_vec();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Decodes the valid prefix of a log, returning it and its length in
/// bytes (`0` when even the header is wrong).
fn decode_prefix(bytes: &[u8]) -> (Checkpoint, usize) {
    let mut cp = Checkpoint::default();
    let mut d = Dec::new(bytes.to_vec());
    if d.u32("magic").ok() != Some(u32::from_le_bytes(CHECKPOINT_MAGIC))
        || d.u32("version").ok() != Some(CHECKPOINT_VERSION)
    {
        return (cp, 0);
    }
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut valid = bytes.len() - d.remaining();
    // A short read of any field is a torn record: stop there.
    while let (Ok(key), Ok(preds)) = (d.u64("key"), d.u8_slice("preds")) {
        let sealed = bytes.get(valid..bytes.len() - d.remaining());
        match (sealed, d.u32("crc")) {
            (Some(sealed), Ok(crc)) if crc == crc32(sealed) => {}
            _ => break,
        }
        valid = bytes.len() - d.remaining();
        match index.get(&key).and_then(|&i| cp.entries.get_mut(i)) {
            Some(entry) => entry.preds = preds,
            None => {
                index.insert(key, cp.entries.len());
                cp.entries.push(CheckpointEntry { key, preds });
            }
        }
    }
    (cp, valid)
}

/// One campaign's open checkpoint log, appended to as its shards land.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl CheckpointLog {
    /// Opens the log at `path` for appending and returns it with the
    /// records it already holds. A missing file, or one with another
    /// header, starts a new log. A torn or corrupt tail is cut off first,
    /// so new records never sit behind a bad one, where no load reaches
    /// them.
    ///
    /// # Errors
    ///
    /// Filesystem errors (unreadable file, unwritable directory).
    pub fn open(path: &Path) -> io::Result<(CheckpointLog, Checkpoint)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (cp, valid) = decode_prefix(&bytes);
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(valid as u64)?;
        if valid == 0 {
            file.write_all(&header())?;
        }
        let log = CheckpointLog {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        };
        Ok((log, cp))
    }

    /// Appends one shard's record. A failing write must not fail the
    /// campaign — it only weakens a future resume — so it is reported as a
    /// note, not an error.
    pub fn append(&self, key: u64, preds: &[u8]) {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = file.write_all(&record(key, preds)) {
            progress::note(format!(
                "nvfi server: checkpoint write to {} failed: {e}",
                self.path.display()
            ));
        }
    }
}

/// FNV-1a 64-bit hasher for content hashes and shard keys: tiny, dependency-free
/// and stable across platforms and runs (unlike `DefaultHasher`, whose
/// output is explicitly unspecified between releases).
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a u64 (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            entries: vec![
                CheckpointEntry {
                    key: 0xDEAD_BEEF_0BAD_F00D,
                    preds: vec![1, 2, 3, 4],
                },
                CheckpointEntry {
                    key: 3,
                    preds: vec![9, 9],
                },
                CheckpointEntry {
                    key: 17,
                    preds: vec![],
                },
            ],
        }
    }

    /// Byte offset where each record of `cp.encode()` ends.
    fn record_ends(cp: &Checkpoint) -> Vec<usize> {
        let mut end = header().len();
        cp.entries
            .iter()
            .map(|e| {
                end += record(e.key, &e.preds).len();
                end
            })
            .collect()
    }

    /// The checkpoint of the first `n` records.
    fn prefix(cp: &Checkpoint, n: usize) -> Checkpoint {
        Checkpoint {
            entries: cp.entries[..n].to_vec(),
        }
    }

    #[test]
    fn roundtrips_bit_identically() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&cp.encode()), cp);
        assert_eq!(decode_prefix(&cp.encode()).1, cp.encode().len());
        let empty = Checkpoint::default();
        assert_eq!(Checkpoint::decode(&empty.encode()), empty);
    }

    #[test]
    fn a_cut_at_every_byte_loads_a_prefix_of_the_records() {
        let cp = sample();
        let bytes = cp.encode();
        let ends = record_ends(&cp);
        for cut in 0..=bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                Checkpoint::decode(&bytes[..cut]),
                prefix(&cp, whole),
                "a cut at byte {cut} keeps exactly the records before it"
            );
        }
    }

    #[test]
    fn a_flipped_bit_drops_its_record_and_every_later_one() {
        let cp = sample();
        let bytes = cp.encode();
        let ends = record_ends(&cp);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                // Records wholly before byte i survive; a flipped header
                // byte loads an empty log.
                let kept = ends.iter().filter(|&&end| end <= i).count();
                assert_eq!(
                    Checkpoint::decode(&corrupt),
                    prefix(&cp, kept),
                    "bit {bit} of byte {i}"
                );
            }
        }
    }

    #[test]
    fn wrong_version_is_ignored() {
        let mut bytes = sample().encode();
        // Patch the version field (bytes 4..8); every record stays sealed,
        // so only the header check can drop them.
        bytes[4] = 0xFF;
        assert_eq!(decode_prefix(&bytes), (Checkpoint::default(), 0));
    }

    #[test]
    fn the_last_record_per_key_wins() {
        let mut bytes = sample().encode();
        bytes.extend(record(3, &[7, 7]));
        bytes.extend(record(3, &[5, 6]));
        let mut expect = sample();
        expect.entries[1].preds = vec![5, 6];
        assert_eq!(Checkpoint::decode(&bytes), expect);
    }

    #[test]
    fn store_load_remove_cycle() {
        let dir = std::env::temp_dir().join(format!("nvfi-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let (log, loaded) = CheckpointLog::open(&path).unwrap();
        assert_eq!(loaded, Checkpoint::default(), "a missing file starts empty");
        for e in &sample().entries {
            log.append(e.key, &e.preds);
        }
        drop(log);
        assert_eq!(Checkpoint::load(&path), Some(sample()));
        // A torn tail is cut off on reopen, so the next append is reachable.
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend(&record(99, &[1, 2, 3])[..5]);
        std::fs::write(&path, torn).unwrap();
        let (log, loaded) = CheckpointLog::open(&path).unwrap();
        assert_eq!(loaded, sample());
        log.append(5, &[0]);
        let mut more = sample();
        more.entries.push(CheckpointEntry {
            key: 5,
            preds: vec![0],
        });
        assert_eq!(Checkpoint::load(&path), Some(more));
        Checkpoint::remove(&path);
        assert_eq!(Checkpoint::load(&path), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write(b"abc");
        // Known FNV-1a 64 vector for "abc".
        assert_eq!(a.finish(), 0xE71F_A219_0541_574B);
        let mut b = Fnv64::new();
        b.write(b"cba");
        assert_ne!(a.finish(), b.finish());
    }
}
