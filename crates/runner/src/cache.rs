//! Content-addressed on-disk result cache.
//!
//! Finished [`RunReport`]s are stored as `<dir>/<scenario-hash>.json`
//! using the deterministic encoding in [`vrecon::report_json`]. Because
//! the file name is a content hash of the *inputs* and the file body is a
//! pure function of those inputs (the simulator is deterministic), a hit
//! can simply be decoded and returned — no validation beyond the decode
//! itself is needed. A corrupt or stale-schema file counts as a miss, is
//! quarantined aside (`<hash>.json.corrupt`), bumps the
//! [`CacheStats::corrupt_entries`] counter, and is replaced by the next
//! store.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so parallel workers (or parallel *processes*) racing on
//! the same key are harmless: both write identical bytes and the rename
//! is atomic either way.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use vrecon::{decode_report, encode_report, RunReport};

/// Hit/miss counters of one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that ran the simulator (including decode failures).
    pub misses: u64,
    /// Misses caused by an entry that *existed* but failed to decode
    /// (truncated write, disk corruption, stale schema). Each such entry is
    /// quarantined aside so subsequent lookups are clean misses; the next
    /// store overwrites the key with fresh bytes. A serving tier surfaces
    /// this counter because a growing value means the store itself is sick,
    /// not merely cold.
    pub corrupt_entries: u64,
}

/// A result cache rooted at a directory, or disabled entirely.
///
/// A disabled cache (`ResultCache::disabled()`, the `--no-cache` escape
/// hatch) reports every lookup as a miss and stores nothing.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

/// Process-global temp-file sequence. Deliberately *not* per-instance:
/// two `ResultCache` values rooted at the same directory (a server and a
/// CLI sharing `$VR_CACHE_DIR`, or the serve worker pool next to a sweep)
/// would otherwise both start at sequence 0 and collide on
/// `<hash>.tmp.<pid>.0`, letting one writer rename the other's
/// half-written temp file into place.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// Default cache directory name, relative to the working directory.
    pub const DEFAULT_DIR: &'static str = ".vr-cache";

    /// A cache rooted at `dir` (created on first store).
    pub fn at(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: Some(dir.into()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// A no-op cache: every lookup misses, stores are dropped.
    pub fn disabled() -> ResultCache {
        ResultCache {
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The file a given scenario hash lives at, if caching is enabled.
    pub fn path_for(&self, hash: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{hash}.json")))
    }

    /// Looks up a scenario hash, counting the outcome. Any read or decode
    /// failure (missing file, corruption, older schema version) is a miss.
    pub fn lookup(&self, hash: &str) -> Option<RunReport> {
        self.read_validated(hash).map(|(_, report)| report)
    }

    /// Like [`lookup`](Self::lookup), but returns the entry's original
    /// on-disk bytes. The text is still fully decoded first — a truncated
    /// or corrupt entry is never served — so callers (the `vr-serve` hot
    /// tier) get bytes that are guaranteed to round-trip.
    pub fn lookup_raw(&self, hash: &str) -> Option<String> {
        self.read_validated(hash).map(|(text, _)| text)
    }

    /// Shared hit path: read, validate by decoding, count, and quarantine
    /// corrupt entries so the next lookup is a clean (cheap) miss.
    fn read_validated(&self, hash: &str) -> Option<(String, RunReport)> {
        let Some(path) = self.path_for(hash) else {
            // Disabled cache: still a (counted) miss.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_report(&text) {
            Ok(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((text, report))
            }
            Err(_) => {
                // The entry exists but is unreadable: count it, move it
                // aside (best-effort — racing readers may have already
                // quarantined or a writer replaced it), and miss.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                let quarantine = path.with_extension("json.corrupt");
                if std::fs::rename(&path, &quarantine).is_err() {
                    let _ = std::fs::remove_file(&path);
                }
                None
            }
        }
    }

    /// Stores a report under a scenario hash (atomic temp-file + rename).
    ///
    /// # Errors
    ///
    /// Returns the failing path and I/O error; callers surface this once
    /// via telemetry rather than per-row.
    pub fn store(&self, hash: &str, report: &RunReport) -> Result<(), (PathBuf, std::io::Error)> {
        self.store_with_pause(hash, report, &|| {})
    }

    /// [`ResultCache::store`] with a hook between the temp-file write and
    /// the rename — the protocol's only window where a half-published
    /// entry exists on disk.
    ///
    /// Production code always passes a no-op (via [`ResultCache::store`]);
    /// tests pass a [`std::sync::Barrier`] wait to *force* two writers
    /// into the window simultaneously instead of hoping the scheduler
    /// produces the interleaving. Keeping the seam in the real code path
    /// means the stress test exercises the exact bytes production runs.
    ///
    /// # Errors
    ///
    /// Returns the failing path and I/O error, as [`ResultCache::store`].
    pub fn store_with_pause(
        &self,
        hash: &str,
        report: &RunReport,
        pause: &(dyn Fn() + Sync),
    ) -> Result<(), (PathBuf, std::io::Error)> {
        if self.dir.is_none() {
            // Disabled: skip the encode as well as the write.
            return Ok(());
        }
        self.write_text(hash, &encode_report(report), pause)
    }

    /// Stores a report already encoded by [`vrecon::encode_report`], for
    /// callers that need the text themselves (the `vr-serve` worker sends
    /// it on the wire) and so encode once.
    ///
    /// # Errors
    ///
    /// Returns the failing path and I/O error, as [`ResultCache::store`].
    pub fn store_text(&self, hash: &str, text: &str) -> Result<(), (PathBuf, std::io::Error)> {
        self.write_text(hash, text, &|| {})
    }

    /// The one write path every store takes: temp file, `pause`, rename.
    fn write_text(
        &self,
        hash: &str,
        text: &str,
        pause: &(dyn Fn() + Sync),
    ) -> Result<(), (PathBuf, std::io::Error)> {
        let Some(path) = self.path_for(hash) else {
            return Ok(());
        };
        // vr-lint::allow(panic-in-lib, reason = "path_for joins under the cache root, so a parent always exists")
        let dir = path.parent().expect("cache path always has a parent");
        std::fs::create_dir_all(dir).map_err(|e| (dir.to_path_buf(), e))?;
        // Unique temp name per process *and* per in-process write, so
        // concurrent stores — even from distinct `ResultCache` instances
        // sharing a directory — never clobber each other's half-written
        // file.
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("{hash}.tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| (tmp.clone(), e))?;
        pause();
        std::fs::rename(&tmp, &path).map_err(|e| (path.clone(), e))
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt_entries: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Resolves the cache directory from the environment: `VR_CACHE_DIR` if
/// set, else [`ResultCache::DEFAULT_DIR`].
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("VR_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(ResultCache::DEFAULT_DIR).to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vr_cluster::params::ClusterParams;
    use vr_cluster::units::Bytes;
    use vrecon::{PolicyKind, SimConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vr-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_report() -> RunReport {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(2);
        let trace = vr_workload::synth::blocking_scenario(2, Bytes::from_mb(64));
        crate::Scenario::new(
            SimConfig::new(cluster, PolicyKind::GLoadSharing).with_seed(3),
            Arc::new(trace),
        )
        .run()
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::at(&dir);
        let report = small_report();
        assert!(cache.lookup("abc").is_none());
        cache.store("abc", &report).unwrap();
        assert_eq!(cache.lookup("abc").unwrap(), report);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                corrupt_entries: 0
            }
        );
        // The raw bytes are exactly what was stored, and storing the
        // encoded text writes the same bytes as storing the report.
        assert_eq!(cache.lookup_raw("abc").unwrap(), encode_report(&report));
        cache.store_text("abc", &encode_report(&report)).unwrap();
        assert_eq!(cache.lookup_raw("abc").unwrap(), encode_report(&report));
        // No stray temp files survive the atomic write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("abc.json")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_counted_and_quarantined() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::at(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.json"), "{ not json").unwrap();
        assert!(cache.lookup("bad").is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().corrupt_entries, 1);
        // Quarantined aside: the next lookup is a clean miss, not another
        // corrupt entry.
        assert!(!dir.join("bad.json").exists());
        assert!(dir.join("bad.json.corrupt").exists());
        assert!(cache.lookup("bad").is_none());
        assert_eq!(cache.stats().corrupt_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss_then_repaired_by_store() {
        let dir = tmp_dir("truncated");
        let cache = ResultCache::at(&dir);
        let report = small_report();
        cache.store("t", &report).unwrap();
        // Truncate the entry mid-file, as a crashed writer without the
        // atomic-rename protocol (or a torn disk) would leave it.
        let full = std::fs::read_to_string(dir.join("t.json")).unwrap();
        std::fs::write(dir.join("t.json"), &full[..full.len() / 2]).unwrap();
        assert!(cache.lookup("t").is_none(), "truncated entry must miss");
        assert!(cache.lookup_raw("t").is_none());
        assert_eq!(cache.stats().corrupt_entries, 1);
        // A subsequent store overwrites the key; lookups hit again.
        cache.store("t", &report).unwrap();
        assert_eq!(cache.lookup("t").unwrap(), report);
        assert_eq!(cache.lookup_raw("t").unwrap(), full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits_and_never_writes() {
        let cache = ResultCache::disabled();
        let report = small_report();
        cache.store("xyz", &report).unwrap();
        cache.store_text("xyz", &encode_report(&report)).unwrap();
        assert!(cache.lookup("xyz").is_none());
        assert!(cache.lookup_raw("xyz").is_none());
        assert_eq!(cache.path_for("xyz"), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                corrupt_entries: 0
            }
        );
    }

    /// Satellite regression: two writers (in-process threads *and* two
    /// `ResultCache` instances standing in for a server + CLI sharing
    /// `$VR_CACHE_DIR`) hammering the same keys must never clobber each
    /// other's in-flight temp file — every lookup that hits decodes, and no
    /// temp file survives.
    #[test]
    fn concurrent_writers_on_shared_keys_never_corrupt() {
        let dir = tmp_dir("contention");
        let report = small_report();
        let caches = [ResultCache::at(&dir), ResultCache::at(&dir)];
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let caches = &caches;
                // RunReport is Send but not Sync (it carries a Cell-based
                // phase memo), so each thread owns its own clone.
                let report = report.clone();
                scope.spawn(move || {
                    let cache = &caches[worker % 2];
                    for round in 0..25 {
                        let hash = format!("key{}", round % 4);
                        cache.store(&hash, &report).unwrap();
                        if let Some(found) = cache.lookup(&hash) {
                            assert_eq!(found, report, "worker {worker} round {round}");
                        }
                    }
                });
            }
        });
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["key0.json", "key1.json", "key2.json", "key3.json"],
            "stray temp or quarantine files after contention"
        );
        for cache in &caches {
            assert_eq!(cache.stats().corrupt_entries, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The deterministic version of the contention test: a
    /// [`std::sync::Barrier`] inside [`ResultCache::store_with_pause`]
    /// *forces* every writer into the temp-written-but-not-renamed window
    /// at once — the exact interleaving the scheduler-driven test above
    /// may or may not produce — then releases them to race the renames.
    /// The last rename wins, but every intermediate state must be a
    /// complete file: the reader thread polling throughout must never see
    /// a missing or undecodable entry once the first rename lands.
    #[test]
    fn same_hash_writers_forced_into_rename_window_stay_atomic() {
        use std::sync::Barrier;

        const WRITERS: usize = 4;
        let dir = tmp_dir("interleave");
        let cache = ResultCache::at(&dir);
        let report = small_report();
        // All writers plus the coordinator meet at the window; a second
        // rendezvous holds them there while the coordinator inspects.
        let window = Barrier::new(WRITERS + 1);
        let release = Barrier::new(WRITERS + 1);
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let cache = &cache;
                let window = &window;
                let release = &release;
                let report = report.clone();
                scope.spawn(move || {
                    cache
                        .store_with_pause("shared", &report, &|| {
                            window.wait();
                            release.wait();
                        })
                        .unwrap();
                });
            }
            // Every writer now sits between write and rename: the entry
            // must not exist yet, and WRITERS distinct temp files must.
            window.wait();
            let temps = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .contains(".tmp.")
                })
                .count();
            assert_eq!(temps, WRITERS, "one temp file per paused writer");
            assert!(
                cache.lookup("shared").is_none(),
                "no rename may land before the barrier releases"
            );
            release.wait();
            // Poll while the renames race each other; every observation
            // after the first must decode to the full report.
            loop {
                match cache.lookup("shared") {
                    Some(found) => {
                        assert_eq!(found, report);
                        break;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        // All four renamed over each other; the survivor decodes and no
        // temp file is left behind.
        assert_eq!(cache.lookup("shared").unwrap(), report);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["shared.json"]);
        assert_eq!(cache.stats().corrupt_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
