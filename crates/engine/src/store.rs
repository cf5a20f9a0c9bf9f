//! The durable artifact store: warm starts across process restarts.
//!
//! A [`ProfileCache`] makes re-cleans cheap *within* one process; this
//! module makes them cheap *across* processes by persisting the cache's
//! fingerprint-keyed artifacts — learned column analyses and reports,
//! table feature sets, and session snapshot skeletons — to disk in a
//! versioned, checksummed binary format (the `datavinci_core::persist`
//! codec wrapped in framed records).
//!
//! Layout under the store directory:
//!
//! ```text
//! DIR/FORMAT                          "datavinci-store/v1\n" version marker
//! DIR/tenants/<tenant>/artifacts.dvs  one framed blob per tenant
//! ```
//!
//! Tenants are hard namespaces: artifacts never cross tenant blobs, so two
//! tenants cleaning byte-identical tables (equal fingerprints) still keep
//! disjoint state. Every record carries its own checksum (the stable
//! [`datavinci_table::Fingerprinter`] over the payload); a truncated or
//! bit-flipped record is *rejected, not trusted*: loading salvages every
//! record before the first bad one and reports the rest as skipped — the
//! engine simply rebuilds those entries cold. Nothing in this module
//! panics on hostile bytes.
//!
//! Flushes are atomic (write to a temp file, then rename over the blob)
//! and size-budgeted: records are written least-recently-used first, and
//! when the serialized blob would exceed the budget the LRU head is
//! dropped until it fits — the disk inherits the cache's recency policy.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::{Artifact, CachedColumn, ProfileCache};
use datavinci_core::{persist, MaskCache};
use datavinci_table::Fingerprinter;

/// Contents of the store directory's `FORMAT` marker. Bumped on any
/// incompatible layout change; a store written under a different marker is
/// refused (never silently reinterpreted).
pub const FORMAT_MARKER: &str = "datavinci-store/v1\n";

/// Magic prefix of a tenant blob.
const BLOB_MAGIC: &[u8; 4] = b"DVST";

/// Version number embedded in each tenant blob after the magic.
const BLOB_VERSION: u32 = 1;

/// Record kind tags.
const KIND_COLUMN: u8 = 1;
const KIND_SESSION: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;

/// Default on-disk size budget per tenant blob: 64 MiB.
pub const DEFAULT_STORE_BUDGET: u64 = 64 * 1024 * 1024;

/// Why a store could not be opened, loaded, or flushed. Every variant
/// carries the path it happened at, so the CLI can print a positioned
/// error and exit non-zero instead of silently starting cold.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (unwritable directory, permission, disk full).
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// What was being attempted ("create", "read", "write", "rename").
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The store was written by an incompatible format version.
    VersionMismatch {
        /// The marker or blob file that disagreed.
        path: PathBuf,
        /// What the file claims (trimmed), or a description of the defect.
        found: String,
        /// What this build writes.
        expected: String,
    },
    /// Tenant names become directory names, so they are restricted to
    /// `[A-Za-z0-9._-]` (and must be non-empty, not `.` or `..`).
    InvalidTenant {
        /// The offending name.
        tenant: String,
    },
    /// The engine was built with `cache: false`; there is nothing to
    /// persist or warm.
    CacheDisabled,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, source } => {
                write!(f, "store: cannot {op} {}: {source}", path.display())
            }
            StoreError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "store: {}: format {found:?} is not {expected:?} \
                 (written by an incompatible version; move or delete the store directory)",
                path.display()
            ),
            StoreError::InvalidTenant { tenant } => write!(
                f,
                "store: invalid tenant name {tenant:?} \
                 (allowed: letters, digits, '.', '_', '-')"
            ),
            StoreError::CacheDisabled => {
                write!(f, "store: engine cache is disabled; nothing to persist")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Is this a format-version problem (as opposed to I/O or misuse)?
    /// Lets the CLI map a store failure to its exit code without
    /// string-matching.
    pub fn is_version_mismatch(&self) -> bool {
        matches!(self, StoreError::VersionMismatch { .. })
    }
}

/// What a [`ArtifactStore::load_into`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Report-tier entries (analysis + report) restored.
    pub columns: usize,
    /// Session-tier feature sets restored.
    pub sessions: usize,
    /// Snapshot skeletons restored.
    pub snapshots: usize,
    /// Records rejected (bad checksum, truncation, undecodable payload).
    /// Rejection stops the scan: everything after the first bad byte is
    /// unrecoverable by construction and counted here as one.
    pub skipped: usize,
    /// Bytes of blob consumed by restored records.
    pub bytes: u64,
}

impl LoadStats {
    /// Records restored across all tiers.
    pub fn total(&self) -> usize {
        self.columns + self.sessions + self.snapshots
    }
}

/// What a [`ArtifactStore::flush_from`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Records written.
    pub records: usize,
    /// Blob size on disk, in bytes.
    pub bytes: u64,
    /// Least-recently-used records dropped to meet the size budget.
    pub evicted: usize,
}

/// A handle on one tenant's slice of a durable artifact store directory.
pub struct ArtifactStore {
    blob_path: PathBuf,
    budget: u64,
}

/// Is `tenant` safe to use as a directory name?
fn tenant_ok(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant != "."
        && tenant != ".."
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

fn io_err(path: &Path, op: &'static str, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

impl ArtifactStore {
    /// Opens (creating if absent) the store at `dir` for `tenant`, with the
    /// default size budget.
    ///
    /// Creation writes the `FORMAT` marker; opening verifies it. A
    /// directory that exists, is non-empty, and carries no (or a foreign)
    /// marker is refused with [`StoreError::VersionMismatch`] — it is
    /// either from an incompatible build or not a store at all, and
    /// overwriting it would destroy data this build cannot read.
    pub fn open(dir: impl AsRef<Path>, tenant: &str) -> Result<ArtifactStore, StoreError> {
        ArtifactStore::open_with_budget(dir, tenant, DEFAULT_STORE_BUDGET)
    }

    /// [`ArtifactStore::open`] with an explicit per-tenant size budget in
    /// bytes (min 4 KiB; flushes drop LRU records beyond it).
    pub fn open_with_budget(
        dir: impl AsRef<Path>,
        tenant: &str,
        budget: u64,
    ) -> Result<ArtifactStore, StoreError> {
        let dir = dir.as_ref();
        if !tenant_ok(tenant) {
            return Err(StoreError::InvalidTenant {
                tenant: tenant.to_string(),
            });
        }
        let marker = dir.join("FORMAT");
        match std::fs::read_to_string(&marker) {
            Ok(found) => {
                if found != FORMAT_MARKER {
                    return Err(StoreError::VersionMismatch {
                        path: marker,
                        found: found.trim_end().to_string(),
                        expected: FORMAT_MARKER.trim_end().to_string(),
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let occupied = std::fs::read_dir(dir)
                    .map(|mut entries| entries.next().is_some())
                    .unwrap_or(false);
                if occupied {
                    return Err(StoreError::VersionMismatch {
                        path: marker,
                        found: "missing marker in non-empty directory".to_string(),
                        expected: FORMAT_MARKER.trim_end().to_string(),
                    });
                }
                std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create", e))?;
                std::fs::write(&marker, FORMAT_MARKER).map_err(|e| io_err(&marker, "write", e))?;
            }
            Err(e) => return Err(io_err(&marker, "read", e)),
        }
        let tenant_dir = dir.join("tenants").join(tenant);
        std::fs::create_dir_all(&tenant_dir).map_err(|e| io_err(&tenant_dir, "create", e))?;
        Ok(ArtifactStore {
            blob_path: tenant_dir.join("artifacts.dvs"),
            budget: budget.max(4096),
        })
    }

    /// The tenant blob this handle reads and writes.
    pub fn path(&self) -> &Path {
        &self.blob_path
    }

    /// The per-tenant size budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Restores every intact record of the tenant blob into `cache`.
    /// `mask_cache` is the owning system's shared semantic memo — restored
    /// snapshots memoize into it exactly as live sessions do.
    ///
    /// A missing blob is an empty store (fresh tenant), not an error.
    /// Corruption is tolerated: the scan stops at the first bad record and
    /// reports it in [`LoadStats::skipped`]; whatever loaded before it is
    /// kept. Only a foreign blob header (wrong magic/version) is an error —
    /// that is a format problem, not damage.
    pub fn load_into(
        &self,
        cache: &ProfileCache,
        mask_cache: Arc<MaskCache>,
    ) -> Result<LoadStats, StoreError> {
        let blob = match std::fs::read(&self.blob_path) {
            Ok(blob) => blob,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadStats::default()),
            Err(e) => return Err(io_err(&self.blob_path, "read", e)),
        };
        if blob.len() < 8 || &blob[..4] != BLOB_MAGIC {
            return Err(StoreError::VersionMismatch {
                path: self.blob_path.clone(),
                found: "not a datavinci artifact blob".to_string(),
                expected: format!("DVST v{BLOB_VERSION}"),
            });
        }
        let version = u32::from_le_bytes(blob[4..8].try_into().expect("4 bytes"));
        if version != BLOB_VERSION {
            return Err(StoreError::VersionMismatch {
                path: self.blob_path.clone(),
                found: format!("DVST v{version}"),
                expected: format!("DVST v{BLOB_VERSION}"),
            });
        }

        let mut stats = LoadStats::default();
        let mut at = 8usize;
        while at < blob.len() {
            let Some((kind, payload, next)) = read_record(&blob, at) else {
                // Truncated or checksum-failed: everything from here on is
                // unframeable. Keep what loaded, rebuild the rest cold.
                stats.skipped += 1;
                break;
            };
            let restored = match (kind, read_u64(payload, 0)) {
                (KIND_COLUMN, _) => match decode_column_record(payload) {
                    Some(entry) => {
                        cache.insert_entry(Arc::new(entry));
                        stats.columns += 1;
                        true
                    }
                    None => false,
                },
                (KIND_SESSION, Some(key)) => {
                    let mut r = persist::Reader::new(&payload[8..]);
                    match persist::decode_feature_set(&mut r) {
                        Ok(features) if r.is_empty() => {
                            cache.insert_session(key, Arc::new(features));
                            stats.sessions += 1;
                            true
                        }
                        _ => false,
                    }
                }
                (KIND_SNAPSHOT, Some(key)) => {
                    let mut r = persist::Reader::new(&payload[8..]);
                    match persist::decode_snapshot(&mut r, Arc::clone(&mask_cache)) {
                        Ok(snapshot) if r.is_empty() => {
                            cache.insert_snapshot(key, snapshot);
                            stats.snapshots += 1;
                            true
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
            if !restored {
                stats.skipped += 1;
                break;
            }
            stats.bytes += (next - at) as u64;
            at = next;
        }
        Ok(stats)
    }

    /// Serializes the cache's current contents and atomically replaces the
    /// tenant blob (temp file + rename; a crash mid-flush leaves the prior
    /// blob intact). Records go out least-recently-used first and the LRU
    /// head is dropped while the blob would exceed the budget, so the most
    /// recently useful artifacts always survive to the next process.
    pub fn flush_from(&self, cache: &ProfileCache) -> Result<FlushStats, StoreError> {
        // Serialize outside any file I/O (and outside this fn's error
        // paths): each record framed as kind + len + payload + checksum.
        let mut records: Vec<Vec<u8>> = Vec::new();
        cache.export(|artifact| {
            let mut payload = Vec::new();
            let kind = match artifact {
                Artifact::Column(entry) => {
                    encode_column_record(entry, &mut payload);
                    KIND_COLUMN
                }
                Artifact::Session {
                    table_fingerprint,
                    features,
                } => {
                    payload.extend_from_slice(&table_fingerprint.to_le_bytes());
                    persist::encode_feature_set(features, &mut payload);
                    KIND_SESSION
                }
                Artifact::Snapshot {
                    header_key,
                    snapshot,
                } => {
                    payload.extend_from_slice(&header_key.to_le_bytes());
                    persist::encode_snapshot(snapshot, &mut payload);
                    KIND_SNAPSHOT
                }
            };
            let mut record = Vec::with_capacity(payload.len() + 21);
            record.push(kind);
            record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            record.extend_from_slice(&payload);
            record.extend_from_slice(&checksum(kind, &payload).to_le_bytes());
            records.push(record);
        });

        let mut total: u64 = 8 + records.iter().map(|r| r.len() as u64).sum::<u64>();
        let mut evicted = 0;
        let mut start = 0;
        while total > self.budget && start < records.len() {
            total -= records[start].len() as u64;
            start += 1;
            evicted += 1;
        }
        let survivors = &records[start..];

        let tmp_path = self.blob_path.with_extension("dvs.tmp");
        let mut tmp =
            std::fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, "create", e))?;
        let write = |tmp: &mut std::fs::File, bytes: &[u8]| {
            tmp.write_all(bytes)
                .map_err(|e| io_err(&tmp_path, "write", e))
        };
        write(&mut tmp, BLOB_MAGIC)?;
        write(&mut tmp, &BLOB_VERSION.to_le_bytes())?;
        for record in survivors {
            write(&mut tmp, record)?;
        }
        tmp.sync_all().map_err(|e| io_err(&tmp_path, "write", e))?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.blob_path)
            .map_err(|e| io_err(&self.blob_path, "rename", e))?;
        Ok(FlushStats {
            records: survivors.len(),
            bytes: total,
            evicted,
        })
    }
}

/// The record checksum: the toolchain-stable content fingerprint over the
/// kind tag and payload (covering the tag means a flipped kind byte cannot
/// reinterpret a valid payload as another record type), so a blob written
/// by one build verifies in any other.
fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut f = Fingerprinter::new();
    f.add_bytes(&[kind]);
    f.add_bytes(payload);
    f.finish()
}

/// Frames one record out of `blob` at `at`: returns `(kind, payload,
/// next_offset)` iff the record is complete and its checksum verifies.
fn read_record(blob: &[u8], at: usize) -> Option<(u8, &[u8], usize)> {
    let kind = *blob.get(at)?;
    let len = read_u64(blob, at + 1)? as usize;
    let payload_at = at + 9;
    // `checked_add` keeps a flipped length byte from wrapping past the end.
    let checksum_at = payload_at.checked_add(len)?;
    let next = checksum_at.checked_add(8)?;
    if next > blob.len() {
        return None;
    }
    let payload = &blob[payload_at..checksum_at];
    if read_u64(blob, checksum_at)? != checksum(kind, payload) {
        return None;
    }
    Some((kind, payload, next))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        buf.get(at..at + 8)?.try_into().expect("8 bytes"),
    ))
}

/// Column-record payload: the entry's identity fields followed by its
/// analysis and report in the `persist` codec.
fn encode_column_record(entry: &CachedColumn, out: &mut Vec<u8>) {
    out.extend_from_slice(&(entry.name.len() as u32).to_le_bytes());
    out.extend_from_slice(entry.name.as_bytes());
    out.extend_from_slice(&entry.fingerprint.to_le_bytes());
    out.extend_from_slice(&entry.table_fingerprint.to_le_bytes());
    out.extend_from_slice(&(entry.col as u64).to_le_bytes());
    out.extend_from_slice(&(entry.n_rows as u64).to_le_bytes());
    persist::encode_column_analysis(&entry.analysis, &mut *out);
    persist::encode_column_report(&entry.report, &mut *out);
}

fn decode_column_record(payload: &[u8]) -> Option<CachedColumn> {
    let name_len = u32::from_le_bytes(payload.get(..4)?.try_into().expect("4 bytes")) as usize;
    let name_end = 4usize
        .checked_add(name_len)
        .filter(|&e| e <= payload.len())?;
    let name = std::str::from_utf8(&payload[4..name_end]).ok()?.to_string();
    let fixed = payload.get(name_end..name_end + 32)?;
    let field = |i: usize| u64::from_le_bytes(fixed[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let mut r = persist::Reader::new(&payload[name_end + 32..]);
    let analysis = persist::decode_column_analysis(&mut r).ok()?;
    let report = persist::decode_column_report(&mut r).ok()?;
    if !r.is_empty() {
        return None;
    }
    Some(CachedColumn {
        name,
        fingerprint: field(0),
        table_fingerprint: field(1),
        col: field(2) as usize,
        n_rows: field(3) as usize,
        analysis: Arc::new(analysis),
        report,
    })
}
