//! Live progress reporting for streaming fleet execution.
//!
//! The executor reports each device to a [`ProgressSink`] as it finishes —
//! its id and its window count — which is what the `--progress` flag of the
//! `fleet` / `fleet-shard` CLIs and fleetd's live job counters surface.
//! Progress is observational only: sinks receive callbacks from worker
//! threads in whatever order devices finish, and the simulation's reports
//! remain byte-identical whether a sink is attached or not.

/// Receiver of live fleet-execution progress.
///
/// Implementations must be [`Sync`]: the executor's worker threads call them
/// concurrently. Callbacks arrive in completion order, which depends on
/// scheduling — sinks must not assume device-id order. Run totals such as
/// the profile-cache hit/miss counts are telemetry series
/// ([`crate::PROFILE_CACHE_EVENTS_SERIES`]), read from the registry the run
/// recorded into, not callbacks.
pub trait ProgressSink: Sync {
    /// The device finished simulating; `windows` is its total window count.
    fn device_completed(&self, device_id: u64, windows: usize);

    /// Cooperative cancellation hook, polled by the executor before each
    /// device starts. Returning `true` makes the run abort at the next
    /// device boundary with [`crate::FleetError::Cancelled`] instead of
    /// producing a partial report — in-flight devices finish their current
    /// window stream first, so cancellation never tears a device
    /// mid-simulation. Default: never cancel, which keeps plain progress
    /// sinks byte-invisible.
    fn should_cancel(&self) -> bool {
        false
    }
}
