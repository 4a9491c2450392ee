//! Observability substrate: span tracing, per-device metrics, and profile
//! reports for the offload stack.
//!
//! Everything in this crate is driven by the *simulated* clocks — the
//! `DevClock` accumulators the runtime already keeps — never by wall time,
//! so traces are deterministic and comparable across machines. The two
//! recorders are:
//!
//! * [`Tracer`] — a lock-cheap span/event recorder covering the offload
//!   lifecycle (init, module load, H2D/D2H, launch, retries, faults, host
//!   fallback) plus in-kernel master/worker events. Exports Chrome
//!   trace-event JSON ([`Tracer::to_chrome_json`]), loadable in Perfetto,
//!   with one trace "process" per device.
//! * [`Metrics`] — per-device counters and log2-bucket histograms
//!   (launches, bytes moved, retries by site, fallbacks, occupancy-limited
//!   blocks).
//!
//! Both live behind an [`Obs`] handle that the runner threads through every
//! layer. A disabled handle is a single relaxed atomic load per event, so
//! instrumentation can stay unconditional in hot paths.
//!
//! This crate never reads the environment. The runner's config snapshot
//! resolves `OMPI_TRACE` (enable the tracer, write the trace on drop),
//! `OMPI_PROFILE` (print [`profile::render_profile`]'s table),
//! `OMPI_HOTSPOTS` (print [`hotspots::render_hotspots`]'s table) and
//! `OMPI_FLIGHT_DUMP` (the [`FlightRecorder`]'s post-mortem dump path),
//! and passes the values in through [`Obs::new`].

pub mod flight;
pub mod hotspots;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY};
pub use hotspots::{render_hotspots, HotLine};
pub use json::Json;
pub use metrics::{Hist, Metrics};
pub use profile::{render_profile, ProfileRow};
pub use trace::{ArgValue, Phase, SpanId, TraceEvent, Tracer};

/// The bundle of recorders threaded through the stack.
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: Metrics,
    /// Always-on post-mortem ring, shared with (and fed by) both
    /// recorders above.
    pub flight: Arc<FlightRecorder>,
}

impl Obs {
    /// A no-op handle: events are dropped at an atomic-load gate, metrics
    /// still count (they are cheap and power the profile table), and the
    /// flight ring keeps the most recent events for post-mortems.
    pub fn disabled() -> Arc<Obs> {
        Obs::new(false, None)
    }

    /// A recording handle.
    pub fn enabled() -> Arc<Obs> {
        Obs::new(true, None)
    }

    /// A handle with the tracer on or off, whose flight recorder dumps to
    /// `flight_dump` on its first post-mortem trigger (`None` = record
    /// only).
    pub fn new(tracing: bool, flight_dump: Option<PathBuf>) -> Arc<Obs> {
        let flight = Arc::new(FlightRecorder::with_path(flight_dump));
        Arc::new(Obs {
            tracer: Tracer::with_flight(tracing, flight.clone()),
            metrics: Metrics::with_flight(flight.clone()),
            flight,
        })
    }
}

/// Strict boolean parsing for `OMPI_*` env vars: `1/true/on/yes` and
/// `0/false/off/no` (case-insensitive, whitespace-trimmed) are the only
/// recognized spellings; anything else is `None` so callers can reject it
/// with a typed error instead of guessing. The historical "non-empty and
/// not `0` means true" rule silently read `OMPI_ASYNC=off` as *enabled*.
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracer.is_enabled())
            .field("events", &self.tracer.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::parse_bool;

    #[test]
    fn parse_bool_recognizes_both_vocabularies() {
        for v in ["1", "true", "TRUE", " on ", "Yes"] {
            assert_eq!(parse_bool(v), Some(true), "{v:?}");
        }
        for v in ["0", "false", "False", "off", " NO "] {
            assert_eq!(parse_bool(v), Some(false), "{v:?}");
        }
    }

    #[test]
    fn parse_bool_rejects_everything_else() {
        for v in ["", "2", "enable", "y", "n", "tru"] {
            assert_eq!(parse_bool(v), None, "{v:?}");
        }
    }
}
