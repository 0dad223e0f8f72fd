//! The per-job spool: crash-safe checkpoint artifacts and restart recovery.
//!
//! Layout, one directory per job under the spool root:
//!
//! ```text
//! <spool>/job-<id>/spec.json        fully-resolved JobSpec (provenance)
//! <spool>/job-<id>/shard-NNNNN.json ordinary fleet ShardReport artifacts
//! <spool>/job-<id>/report.json      final body, byte-identical to `fleet --json`
//! ```
//!
//! Every file is written via [`write_atomic`] (temp sibling + rename), so a
//! daemon killed mid-write leaves either the old content or the new — never
//! a truncated file. On restart the daemon rescans the spool: a job with a
//! `report.json` is already done; otherwise each shard artifact is admitted
//! only if its embedded [`ShardMeta`] matches what the job's spec *must*
//! produce ([`expected_meta`]) — the same provenance gate `fleet-merge`
//! applies — and only the missing ranges are re-run. An artifact that fails
//! the gate (engine upgrade, torn file from a pre-atomic writer, manual
//! tampering) is simply treated as missing and re-run, never merged.

use std::io;
use std::path::{Path, PathBuf};

use crate::sync::atomic::{AtomicU64, Ordering};

use fleet::{FleetReport, ShardMeta, ShardReport, SketchInfo, SketchedReport, ENGINE_VERSION};

use crate::job::JobSpec;

/// Writes `contents` to `path` crash-safely: the bytes go to a unique temp
/// sibling in the same directory (same filesystem, so the rename is atomic)
/// and the temp file is renamed over `path` only once fully written. A
/// process dying mid-write can leave a stray `.tmp-*` sibling, but `path`
/// itself is always either absent, the old content, or the new content.
///
/// # Errors
///
/// Propagates the underlying write/rename error; the temp file is removed on
/// a failed rename.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        // relaxed: RMW atomicity alone makes the ticket unique, which is
        // all the temp-file name needs.
        SEQUENCE.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// The [`ShardMeta`] a valid artifact of `(spec, index)` must carry — the
/// provenance gate of checkpoint recovery. `None` when the spec/index
/// combination is itself invalid (out-of-range index).
pub fn expected_meta(spec: &JobSpec, index: u32) -> Option<ShardMeta> {
    ShardMeta::new(
        &spec.shard_spec().ok()?,
        index,
        spec.seed,
        spec.resolved_mix(),
        spec.report_mode,
    )
}

/// Renders the final report body — exactly the bytes `fleet --json` prints
/// (pretty JSON + trailing newline, sketch runs wrapped in the
/// [`SketchedReport`] envelope), which is what makes HTTP-served reports
/// byte-identical to the CLI.
pub fn render_report_body(report: &FleetReport, sketch: Option<SketchInfo>) -> Vec<u8> {
    let json = match sketch {
        Some(sketch) => serde_json::to_string_pretty(&SketchedReport {
            sketch,
            report: report.clone(),
        }),
        None => serde_json::to_string_pretty(report),
    }
    .expect("fleet reports always serialize");
    let mut body = json.into_bytes();
    body.push(b'\n');
    body
}

/// Handle on a spool root directory.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The spool root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of job `id`.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("job-{id}"))
    }

    fn spec_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("spec.json")
    }

    fn shard_path(&self, id: u64, index: u32) -> PathBuf {
        self.job_dir(id).join(format!("shard-{index:05}.json"))
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("report.json")
    }

    /// Persists a job's fully-resolved spec (creating its directory); the
    /// first write of every accepted job, so a restart can always re-derive
    /// the work.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn persist_spec(&self, id: u64, spec: &JobSpec) -> io::Result<()> {
        std::fs::create_dir_all(self.job_dir(id))?;
        write_atomic(&self.spec_path(id), spec.to_json().as_bytes())
    }

    /// Checkpoints one finished shard artifact (index taken from its meta).
    ///
    /// # Errors
    ///
    /// Returns a daemon-log-worthy message naming the path.
    pub fn write_shard(&self, id: u64, shard: &ShardReport) -> Result<(), String> {
        let path = self.shard_path(id, shard.meta.shard_index);
        let json = serde_json::to_string_pretty(shard)
            .map_err(|e| format!("serializing shard artifact failed: {e}"))?;
        write_atomic(&path, format!("{json}\n").as_bytes())
            .map_err(|e| format!("writing {} failed: {e}", path.display()))
    }

    /// Persists the final report body.
    ///
    /// # Errors
    ///
    /// Returns a daemon-log-worthy message naming the path.
    pub fn write_report(&self, id: u64, body: &[u8]) -> Result<(), String> {
        let path = self.report_path(id);
        write_atomic(&path, body).map_err(|e| format!("writing {} failed: {e}", path.display()))
    }

    /// Whether job `id`'s final report body was persisted.
    pub fn has_report(&self, id: u64) -> bool {
        self.report_path(id).is_file()
    }

    /// The final report body of job `id`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path when the body is missing or
    /// unreadable.
    pub fn read_report(&self, id: u64) -> Result<Vec<u8>, String> {
        let path = self.report_path(id);
        std::fs::read(&path).map_err(|e| format!("reading {} failed: {e}", path.display()))
    }

    /// The provenance of shard `index` of job `id`, iff an artifact exists
    /// *and* passes the gate: its embedded meta must equal
    /// [`expected_meta`] exactly (engine version, seed, mix, report mode,
    /// fleet size, shard tiling and range). Anything else — missing file,
    /// torn JSON, stale engine, tampered seed — is `None`: treated as not
    /// checkpointed.
    pub fn shard_meta_if_valid(&self, id: u64, spec: &JobSpec, index: u32) -> Option<ShardMeta> {
        let expected = expected_meta(spec, index)?;
        let text = std::fs::read_to_string(self.shard_path(id, index)).ok()?;
        let provenance: fleet::ShardProvenance = serde_json::from_str(&text).ok()?;
        (provenance.meta == expected).then_some(provenance.meta)
    }

    /// Reads the full shard artifact, re-applying the provenance gate.
    ///
    /// # Errors
    ///
    /// Returns a daemon-log-worthy message when the artifact is missing,
    /// unparseable or fails the gate.
    pub fn read_shard(&self, id: u64, spec: &JobSpec, index: u32) -> Result<ShardReport, String> {
        let path = self.shard_path(id, index);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {} failed: {e}", path.display()))?;
        let shard: ShardReport = serde_json::from_str(&text)
            .map_err(|e| format!("parsing {} failed: {e}", path.display()))?;
        let expected = expected_meta(spec, index)
            .ok_or_else(|| format!("shard index {index} is out of range for the spec"))?;
        if shard.meta != expected {
            return Err(format!(
                "{} failed the provenance gate (expected shard {index} of seed {} \
                 on engine {ENGINE_VERSION})",
                path.display(),
                spec.seed,
            ));
        }
        Ok(shard)
    }

    /// Enumerates every `job-<id>` entry in the spool, sorted by id,
    /// with its spec when `spec.json` parses and validates (`None` marks a
    /// job that cannot be recovered but whose id stays taken). Only the
    /// canonical decimal form names a job: anything else under the root
    /// (temp siblings, foreign files, aliases such as `job-07` or `job-+7`
    /// that `u64::from_str` would read as job 7) is ignored.
    ///
    /// # Errors
    ///
    /// Propagates the root directory-listing error only; unreadable
    /// individual jobs come back as `None`.
    pub fn scan(&self) -> io::Result<Vec<(u64, Option<JobSpec>)>> {
        let mut jobs = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|name| name.strip_prefix("job-"))
                .and_then(|id| id.parse::<u64>().ok().filter(|n| n.to_string() == id))
            else {
                continue;
            };
            let spec = std::fs::read_to_string(self.spec_path(id))
                .ok()
                .and_then(|text| JobSpec::from_json(text.as_bytes()).ok());
            jobs.push((id, spec));
        }
        jobs.sort_by_key(|&(id, _)| id);
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::MetricsSnapshot;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("fleetd-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn artifact(spec: &JobSpec, index: u32) -> ShardReport {
        ShardReport {
            meta: expected_meta(spec, index).unwrap(),
            devices: Vec::new(),
            telemetry: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn write_atomic_replaces_content_and_leaves_no_temp_siblings() {
        let root = temp_root("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("out.json")]);
        // A missing parent directory surfaces as an error, not a panic.
        assert!(write_atomic(&root.join("nowhere/out.json"), b"x").is_err());
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn provenance_gate_admits_only_exactly_matching_artifacts() {
        let root = temp_root("gate");
        let spool = Spool::new(&root).unwrap();
        let spec = JobSpec::new(16);
        spool.persist_spec(1, &spec).unwrap();
        spool.write_shard(1, &artifact(&spec, 2)).unwrap();

        assert!(spool.shard_meta_if_valid(1, &spec, 2).is_some());
        assert!(spool.read_shard(1, &spec, 2).is_ok());
        // Missing artifact.
        assert!(spool.shard_meta_if_valid(1, &spec, 1).is_none());
        // Out-of-range index.
        assert!(spool.shard_meta_if_valid(1, &spec, 99).is_none());
        // A spec drift (different seed) must reject the artifact.
        let mut other = spec.clone();
        other.seed = 7;
        assert!(spool.shard_meta_if_valid(1, &other, 2).is_none());
        assert!(spool
            .read_shard(1, &other, 2)
            .unwrap_err()
            .contains("provenance gate"));
        // A torn artifact is treated as missing.
        std::fs::write(spool.job_dir(1).join("shard-00002.json"), "{ torn").unwrap();
        assert!(spool.shard_meta_if_valid(1, &spec, 2).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_recovers_jobs_and_ignores_foreign_entries() {
        let root = temp_root("scan");
        let spool = Spool::new(&root).unwrap();
        let small = JobSpec::new(8);
        let big = JobSpec::new(64);
        spool.persist_spec(3, &big).unwrap();
        spool.persist_spec(1, &small).unwrap();
        // Foreign/broken entries: a stray file, a dir without a spec, a dir
        // with an invalid spec.
        std::fs::write(root.join("notes.txt"), "x").unwrap();
        std::fs::create_dir_all(root.join("job-9")).unwrap();
        std::fs::create_dir_all(root.join("job-5")).unwrap();
        std::fs::write(root.join("job-5/spec.json"), r#"{"devices": 0}"#).unwrap();
        // Non-canonical aliases of job 7 must not recover it a second time.
        spool.persist_spec(7, &small).unwrap();
        for alias in ["job-07", "job-+7"] {
            std::fs::create_dir_all(root.join(alias)).unwrap();
            std::fs::write(root.join(alias).join("spec.json"), small.to_json()).unwrap();
        }

        let jobs = spool.scan().unwrap();
        assert_eq!(
            jobs,
            vec![
                (1, Some(small.clone())),
                (3, Some(big)),
                (5, None),
                (7, Some(small)),
                (9, None)
            ]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_round_trips_and_render_matches_cli_shape() {
        let root = temp_root("report");
        let spool = Spool::new(&root).unwrap();
        let spec = JobSpec::new(4);
        spool.persist_spec(2, &spec).unwrap();
        assert!(!spool.has_report(2));
        assert!(spool.read_report(2).unwrap_err().contains("report.json"));
        spool.write_report(2, b"{}\n").unwrap();
        assert!(spool.has_report(2));
        assert_eq!(spool.read_report(2).unwrap(), b"{}\n".to_vec());

        let report = FleetReport::from_devices(&[]);
        let body = render_report_body(&report, None);
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.ends_with("}\n"),
            "pretty JSON plus one trailing newline"
        );
        assert_eq!(
            text.trim_end(),
            serde_json::to_string_pretty(&report).unwrap()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
