//! Structured event log of an engine run.
//!
//! The engine optionally records dispatches, completions, frequency
//! changes, and cap-overshoot samples; the log is the raw material for
//! debugging schedules, rendering timelines, and asserting fine-grained
//! properties in tests (e.g. "the governor reacted within one sample of
//! the overshoot").

use crate::device::Device;
use crate::freq::FreqSetting;

/// One timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time, seconds.
    pub at_s: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A job was dispatched to a device.
    Dispatch {
        /// Dispatcher-chosen tag.
        tag: usize,
        /// Job name.
        name: String,
        /// Target device.
        device: Device,
    },
    /// A job completed.
    Complete {
        /// Dispatcher-chosen tag.
        tag: usize,
        /// Device it ran on.
        device: Device,
    },
    /// The package frequency setting changed (dispatch override or
    /// governor action).
    FreqChange {
        /// Previous setting.
        from: FreqSetting,
        /// New setting.
        to: FreqSetting,
    },
    /// A power sample exceeded the recorder's cap-of-interest.
    CapOvershoot {
        /// The sampled average power, watts.
        power_w: f64,
    },
}

/// A bounded in-memory event recorder.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    /// Cap used for `CapOvershoot` events (`None` disables them).
    pub cap_of_interest_w: Option<f64>,
    /// Hard limit on recorded events (oldest kept; recording stops at the
    /// limit to bound memory on long runs).
    pub limit: usize,
}

impl EventLog {
    /// New recorder with a default 100k-event limit.
    pub fn new(cap_of_interest_w: Option<f64>) -> Self {
        EventLog {
            events: Vec::new(),
            cap_of_interest_w,
            limit: 100_000,
        }
    }

    /// Record an event (no-op past the limit).
    pub fn push(&mut self, at_s: f64, kind: EventKind) {
        if self.events.len() < self.limit {
            self.events.push(Event { at_s, kind });
        }
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Dispatch events only.
    pub fn dispatches(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Dispatch { .. }))
    }

    /// Completion events only.
    pub fn completions(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
    }

    /// Frequency-change events only.
    pub fn freq_changes(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FreqChange { .. }))
    }

    /// Cap-overshoot events only.
    pub fn overshoots(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CapOvershoot { .. }))
    }

    /// Render the log as one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = match &e.kind {
                EventKind::Dispatch { tag, name, device } => {
                    writeln!(out, "{:>9.2}s dispatch  #{tag} {name} -> {device}", e.at_s)
                }
                EventKind::Complete { tag, device } => {
                    writeln!(out, "{:>9.2}s complete  #{tag} on {device}", e.at_s)
                }
                EventKind::FreqChange { from, to } => {
                    writeln!(out, "{:>9.2}s freq      {from} -> {to}", e.at_s)
                }
                EventKind::CapOvershoot { power_w } => {
                    writeln!(out, "{:>9.2}s overshoot {power_w:.2} W", e.at_s)
                }
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut log = EventLog::new(Some(15.0));
        log.push(
            0.0,
            EventKind::Dispatch {
                tag: 0,
                name: "a".into(),
                device: Device::Cpu,
            },
        );
        log.push(
            0.25,
            EventKind::FreqChange {
                from: FreqSetting::new(15, 9),
                to: FreqSetting::new(14, 9),
            },
        );
        log.push(0.5, EventKind::CapOvershoot { power_w: 16.2 });
        log.push(
            3.0,
            EventKind::Complete {
                tag: 0,
                device: Device::Cpu,
            },
        );
        assert_eq!(log.len(), 4);
        assert_eq!(log.dispatches().count(), 1);
        assert_eq!(log.completions().count(), 1);
        assert_eq!(log.freq_changes().count(), 1);
        assert_eq!(log.overshoots().count(), 1);
        let text = log.render();
        assert!(text.contains("dispatch"));
        assert!(text.contains("overshoot 16.20 W"));
    }

    #[test]
    fn limit_bounds_memory() {
        let mut log = EventLog::new(None);
        log.limit = 3;
        for i in 0..10 {
            log.push(
                i as f64,
                EventKind::Complete {
                    tag: i,
                    device: Device::Gpu,
                },
            );
        }
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new(None);
        assert!(log.is_empty());
        assert_eq!(log.render(), "");
    }
}
