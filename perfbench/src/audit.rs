//! Incremental reader of the kernel's audit log: counts the records the
//! output checks need (denials, shed events, allowed flow inserts) and the
//! records retention evicted before they could be read.

use sdnshield_controller::audit::AuditOutcome;
use sdnshield_controller::kernel::Kernel;

#[derive(Debug, Default, Clone)]
pub struct AuditWatch {
    cursor: u64,
    /// Highest sequence number read (records ever admitted, as far as read).
    pub seen: u64,
    /// Sequence numbers evicted before this reader got to them.
    pub unread: u64,
    /// Calls denied by the permission engine.
    pub denied: u64,
    /// App events shed from a full app queue.
    pub event_shed: u64,
    /// Allowed singleton `insert_flow` calls.
    pub insert_flow_allowed: u64,
}

impl AuditWatch {
    /// Reads every record admitted since the last poll.
    pub fn poll(&mut self, kernel: &Kernel) {
        for r in kernel.audit_records_since(self.cursor) {
            self.unread += r.seq.saturating_sub(self.cursor + 1);
            self.cursor = r.seq;
            match r.outcome {
                AuditOutcome::Denied => self.denied += 1,
                AuditOutcome::Dropped if r.operation == "event_shed" => self.event_shed += 1,
                AuditOutcome::Allowed if r.operation == "insert_flow" => {
                    self.insert_flow_allowed += 1;
                }
                _ => {}
            }
        }
        self.seen = self.cursor;
    }

    /// Records retention evicted in total: admitted minus still retained.
    pub fn evicted(kernel: &Kernel, seen: u64) -> u64 {
        seen.saturating_sub(kernel.audit_records().len() as u64)
    }
}
