//! Job specifications and the job state machine.
//!
//! A job is one fleet simulation, described by the same knobs as the `fleet`
//! CLI (`devices`, `seed`, `mix`, `threads`, `report_mode`) plus a `shards`
//! count that sets the checkpoint granularity: the scheduler
//! splits the device range into that many [`fleet::ShardSpec`] ranges and
//! spools each finished range as an ordinary shard artifact, so a restarted
//! daemon re-runs only the missing ranges.
//!
//! [`JobSpec`]'s serde implementations are hand-written (the vendored serde
//! derive has no `#[serde(default)]`): every field except `devices` is
//! optional with the same defaults as the CLI, unknown fields are rejected by
//! name, and serialization always writes the fully-resolved form — what
//! lands in the spool's `spec.json` is self-contained provenance. The
//! `profile_cache` field is still accepted and written but has no effect:
//! a pooled mix always replays its pool slots.

use fleet::{ReportMode, ScenarioMix, ShardSpec};
use serde::{map_field, Deserialize, Serialize, Value};

/// Default shard count when a spec omits `shards`: enough granularity that a
/// killed daemon loses at most a quarter of the work, without flooding tiny
/// jobs with empty shards.
pub const DEFAULT_SHARDS: u32 = 4;

/// Largest accepted `threads`. A fixed bound rather than the host's core
/// count, so a spec spooled on one host stays valid when a smaller host
/// recovers it.
pub const MAX_THREADS: usize = 1024;

/// One submitted fleet-simulation job, fully resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Number of simulated devices (required, ≥ 1).
    pub devices: u64,
    /// Master seed; fixes every device's scenario (default 42).
    pub seed: u64,
    /// Scenario-mix preset name (default `"balanced"`).
    pub mix: String,
    /// Worker threads per shard run; 0 = one per core (default 0, at most
    /// [`MAX_THREADS`]).
    pub threads: usize,
    /// Number of checkpoint shards the device range is split into
    /// (default [`DEFAULT_SHARDS`], capped by the device count).
    pub shards: u32,
    /// Aggregation mode (default [`ReportMode::Exact`]).
    pub report_mode: ReportMode,
    /// No effect on the run: a pooled mix always replays its pool slots.
    /// Kept because HTTP clients and spooled `spec.json` files carry it and
    /// the frozen benchmark harness sets it (default false); delete with the
    /// next change allowed to touch the benchmark.
    pub profile_cache: bool,
}

impl JobSpec {
    /// A spec for `devices` devices with every other knob at its default.
    pub fn new(devices: u64) -> Self {
        Self {
            devices,
            seed: 42,
            mix: "balanced".to_string(),
            threads: 0,
            shards: DEFAULT_SHARDS.min(u32::try_from(devices.max(1)).unwrap_or(u32::MAX)),
            report_mode: ReportMode::Exact,
            profile_cache: false,
        }
    }

    /// Parses and validates a spec from a JSON request body.
    ///
    /// # Errors
    ///
    /// Returns a request-worthy message naming the offending field for both
    /// syntactic (bad JSON, unknown field, wrong type) and semantic
    /// (`devices: 0`, `threads` above [`MAX_THREADS`], unknown mix) failures.
    pub fn from_json(body: &[u8]) -> Result<Self, String> {
        let text =
            std::str::from_utf8(body).map_err(|_| "job spec is not UTF-8 text".to_string())?;
        let spec: JobSpec =
            serde_json::from_str(text).map_err(|e| format!("invalid job spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the semantic constraints a well-typed spec can still violate.
    ///
    /// # Errors
    ///
    /// Returns a request-worthy message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("devices must be at least 1".to_string());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if self.threads > MAX_THREADS {
            return Err(format!("threads must be at most {MAX_THREADS}"));
        }
        self.validate_mix()
    }

    /// Checks that the mix names a preset; the `fleet` CLIs call this when
    /// parsing `--mix`, so both paths reject a bad name with one message.
    ///
    /// # Errors
    ///
    /// Returns the unknown name and the accepted presets.
    pub fn validate_mix(&self) -> Result<(), String> {
        if ScenarioMix::from_name(&self.mix).is_none() {
            return Err(format!(
                "unknown mix `{}`; expected one of {}",
                self.mix,
                ScenarioMix::PRESETS.join(", ")
            ));
        }
        Ok(())
    }

    /// The resolved scenario mix. Panics on an unvalidated mix name — call
    /// [`JobSpec::validate`] (or construct via [`JobSpec::from_json`]) first.
    pub fn resolved_mix(&self) -> ScenarioMix {
        ScenarioMix::from_name(&self.mix).expect("mix was validated at construction")
    }

    /// The checkpoint partition this spec describes.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`fleet::FleetError`] for an invalid
    /// devices/shards combination (unreachable after [`JobSpec::validate`]).
    pub fn shard_spec(&self) -> Result<ShardSpec, fleet::FleetError> {
        ShardSpec::new(self.devices, self.shards)
    }

    /// The executor options of one shard run of this job. The `fleet` and
    /// `fleet-shard` CLIs parse their flags into a [`JobSpec`] and call this
    /// too, so equal specs produce byte-identical reports over HTTP and on
    /// the command line.
    pub fn executor_options(&self) -> fleet::ExecutorOptions {
        fleet::ExecutorOptions {
            threads: self.threads,
            profile_cache: self.profile_cache.then_some(usize::MAX),
            report_mode: self.report_mode,
        }
    }

    /// Serializes the fully-resolved spec as compact JSON (the spool's
    /// `spec.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a job spec always serializes")
    }
}

impl Serialize for JobSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("devices".to_string(), Value::UInt(self.devices)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("mix".to_string(), Value::Str(self.mix.clone())),
            ("threads".to_string(), Value::UInt(self.threads as u64)),
            ("shards".to_string(), Value::UInt(u64::from(self.shards))),
            (
                "report_mode".to_string(),
                Value::Str(self.report_mode.name().to_string()),
            ),
            ("profile_cache".to_string(), Value::Bool(self.profile_cache)),
        ])
    }
}

impl Deserialize for JobSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("job spec must be a JSON object"))?;
        const KNOWN: [&str; 7] = [
            "devices",
            "seed",
            "mix",
            "threads",
            "shards",
            "report_mode",
            "profile_cache",
        ];
        for (index, (key, _)) in entries.iter().enumerate() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(serde::Error::custom(format!(
                    "unknown field `{key}`; expected one of {}",
                    KNOWN.join(", ")
                )));
            }
            // Reading the first of a repeated key would silently drop the
            // others, valid or not.
            if entries[..index].iter().any(|(earlier, _)| earlier == key) {
                return Err(serde::Error::custom(format!("repeated field `{key}`")));
            }
        }
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let uint = |key: &str| -> Result<Option<u64>, serde::Error> {
            field(key)
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        serde::Error::custom(format!("`{key}` must be a non-negative integer"))
                    })
                })
                .transpose()
        };

        let devices = map_field(entries, "devices")?
            .as_u64()
            .ok_or_else(|| serde::Error::custom("`devices` must be a non-negative integer"))?;
        let mut spec = JobSpec::new(devices);
        if let Some(seed) = uint("seed")? {
            spec.seed = seed;
        }
        if let Some(mix) = field("mix") {
            spec.mix = mix
                .as_str()
                .ok_or_else(|| serde::Error::custom("`mix` must be a string"))?
                .to_string();
        }
        if let Some(threads) = uint("threads")? {
            spec.threads = usize::try_from(threads)
                .map_err(|_| serde::Error::custom("`threads` is out of range"))?;
        }
        if let Some(shards) = uint("shards")? {
            spec.shards = u32::try_from(shards)
                .map_err(|_| serde::Error::custom("`shards` is out of range"))?;
        }
        if let Some(mode) = field("report_mode") {
            let name = mode
                .as_str()
                .ok_or_else(|| serde::Error::custom("`report_mode` must be a string"))?;
            spec.report_mode = name.parse().map_err(serde::Error::custom)?;
        }
        if let Some(flag) = field("profile_cache") {
            spec.profile_cache = flag
                .as_bool()
                .ok_or_else(|| serde::Error::custom("`profile_cache` must be a boolean"))?;
        }
        Ok(spec)
    }
}

/// The job state machine: `queued → running → done | failed`.
///
/// A resumed job re-enters as `queued` (its spooled shards counted as
/// already done), or straight as `done` / `failed` once every shard is
/// spooled and recovery has merged it; `done` and `failed` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, persisted to the spool, waiting for a worker.
    Queued,
    /// At least one shard has started (or finished) in this process.
    Running,
    /// All shards merged; the report is available.
    Done,
    /// A shard run, spool write or merge failed; see the status `error`.
    Failed,
}

impl JobState {
    /// The lowercase wire name used in status responses.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The `GET /jobs/{id}` response body: the state machine plus live progress
/// fed by the executor's [`fleet::ProgressSink`] adapter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id assigned at submission (stable across daemon restarts —
    /// it names the spool directory).
    pub id: u64,
    /// Wire name of the current [`JobState`].
    pub state: String,
    /// The fully-resolved spec the job runs.
    pub spec: JobSpec,
    /// Checkpoint shards finished (spooled), including shards recovered
    /// from the spool on restart.
    pub shards_done: u32,
    /// Total checkpoint shards of the job.
    pub shards_total: u32,
    /// Devices finished, including devices inside shards recovered on
    /// restart.
    pub devices_done: u64,
    /// Windows of the devices this daemon process finished, counted when
    /// each device completes (restart-recovered shards do not re-count
    /// their windows).
    pub windows_done: u64,
    /// Failure description, present iff `state` is `"failed"`.
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_gets_cli_defaults() {
        let spec = JobSpec::from_json(br#"{"devices": 64}"#).unwrap();
        assert_eq!(
            spec,
            JobSpec {
                devices: 64,
                seed: 42,
                mix: "balanced".to_string(),
                threads: 0,
                shards: 4,
                report_mode: ReportMode::Exact,
                profile_cache: false,
            }
        );
        // Tiny jobs cap the default shard count at the device count.
        assert_eq!(JobSpec::from_json(br#"{"devices": 2}"#).unwrap().shards, 2);
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = JobSpec {
            devices: 128,
            seed: 7,
            mix: "cohort".to_string(),
            threads: 2,
            shards: 8,
            report_mode: ReportMode::Sketch,
            profile_cache: true,
        };
        let parsed = JobSpec::from_json(spec.to_json().as_bytes()).unwrap();
        assert_eq!(parsed, spec);
        let ranges = parsed.shard_spec().unwrap().ranges();
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.last().unwrap().end, 128);
        assert_eq!(parsed.executor_options().report_mode, ReportMode::Sketch);
        assert!(parsed.executor_options().profile_cache.is_some());
    }

    #[test]
    fn bad_specs_name_the_offending_field() {
        let cases: [(&[u8], &str); 10] = [
            (br#"{"seed": 1}"#, "devices"),
            (br#"{"devices": 0}"#, "devices"),
            (br#"{"devices": 8, "shards": 0}"#, "shards"),
            (br#"{"devices": 8, "threads": 1025}"#, "threads"),
            (br#"{"devices": 8, "mix": "nope"}"#, "nope"),
            (br#"{"devices": 8, "report_mode": "fuzzy"}"#, "fuzzy"),
            (
                br#"{"devices": 8, "profile_cache": "yes"}"#,
                "profile_cache",
            ),
            (br#"{"devices": 8, "turbo": true}"#, "turbo"),
            (br#"[1, 2]"#, "object"),
            (b"not json at all", "invalid job spec"),
        ];
        for (body, needle) in cases {
            let err = JobSpec::from_json(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body={:?} err={err}",
                String::from_utf8_lossy(body)
            );
        }
        assert!(JobSpec::from_json(&[0xff, 0xfe])
            .unwrap_err()
            .contains("UTF-8"));
        let at_bound = format!(r#"{{"devices": 8, "threads": {MAX_THREADS}}}"#);
        assert!(JobSpec::from_json(at_bound.as_bytes()).is_ok());
    }

    #[test]
    fn repeated_fields_are_rejected_by_name() {
        for (body, field) in [
            (
                &br#"{"devices": 4, "mix": "cohort", "mix": "nope"}"#[..],
                "mix",
            ),
            (br#"{"devices": 4, "devices": 8}"#, "devices"),
            (br#"{"seed": 1, "devices": 4, "seed": 1}"#, "seed"),
        ] {
            let err = JobSpec::from_json(body).unwrap_err();
            assert!(
                err.contains(&format!("repeated field `{field}`")),
                "body={:?} err={err}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn status_serializes_with_nested_spec() {
        let status = JobStatus {
            id: 3,
            state: JobState::Running.name().to_string(),
            spec: JobSpec::new(16),
            shards_done: 1,
            shards_total: 4,
            devices_done: 5,
            windows_done: 120,
            error: None,
        };
        let json = serde_json::to_string(&status).unwrap();
        let parsed: JobStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, status);
        assert!(json.contains("\"state\":\"running\""));
    }

    #[test]
    fn state_names_cover_the_machine() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert_eq!(JobState::Running.name(), "running");
        assert_eq!(JobState::Done.name(), "done");
        assert_eq!(JobState::Failed.name(), "failed");
    }
}
