//! The correctness gate every simulated run passes through.
//!
//! A run passes when its report keeps the engine's conservation laws,
//! drained completely, and serializes byte for byte like the first run
//! of the same inputs in this process: every repeat of a workload, and
//! the traced runs beside the untraced ones.

use otis_optics::QueueingReport;

/// The report's own laws: packet conservation, the dynamics counters'
/// laws, and a fully drained fabric (every workload here resolves every
/// packet).
pub fn check_laws(report: &QueueingReport) -> Result<(), String> {
    if report.injected == 0 {
        return Err("nothing was injected".into());
    }
    if !report.conserves_packets() {
        return Err(format!(
            "conservation violated: {} injected != {} delivered + {} dropped + {} in flight",
            report.injected,
            report.delivered,
            report.dropped(),
            report.in_flight
        ));
    }
    if !report.dynamics_consistent() {
        return Err("a dynamics counter broke its law".into());
    }
    if report.deadlocked || report.in_flight > 0 {
        return Err(format!(
            "run did not drain: {} in flight, deadlocked = {}",
            report.in_flight, report.deadlocked
        ));
    }
    Ok(())
}

/// The serialized report, the unit of byte-identity.
pub fn serialize(report: &QueueingReport) -> String {
    serde_json::to_string(report).expect("a queueing report always serializes")
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Byte-identity of every report of one set of inputs.
#[derive(Default)]
pub struct Gate {
    reference: Option<String>,
}

impl Gate {
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Check one run's report: its laws, then byte-identity against the
    /// first report this gate saw.
    pub fn check(&mut self, report: &QueueingReport) -> Result<(), String> {
        check_laws(report)?;
        let bytes = serialize(report);
        match &self.reference {
            Some(reference) if *reference == bytes => Ok(()),
            Some(_) => Err("report differs from the first run of the same inputs".into()),
            None => {
                self.reference = Some(bytes);
                Ok(())
            }
        }
    }

    /// FNV-1a digest of the reference report, once one was checked.
    pub fn digest(&self) -> Option<u64> {
        self.reference.as_ref().map(|r| fnv1a(r.as_bytes()))
    }
}
