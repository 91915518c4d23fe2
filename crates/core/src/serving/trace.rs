//! Arrival-trace record/replay: serialize the arrival timeline of any
//! queueing run to a deterministic JSON trace and replay it bit-exactly.
//!
//! Every traffic model in [`super::traffic`] generates its timeline from
//! `(seed, index, params)`; the closed loop feeds back from completions
//! inside the serial event loop. Either way, one run produces one
//! concrete sequence of arrival instants — and that sequence, not the
//! generator, is what a failure drill needs to pin: replaying the
//! recorded timeline through a different fleet/policy/fault
//! configuration answers "what would *this* fleet have done under *that*
//! morning's traffic". [`ArrivalTrace`] is that recording:
//!
//! * captured from a [`super::queueing::QueueOutcome`] (every offered
//!   request's arrival instant, in stream order — completed, shed and
//!   failed alike);
//! * rendered to JSON with the same fixed-format discipline as
//!   `BENCH_queue.json` (so traces are diffable and committable);
//! * parsed back without any JSON dependency (the format is our own);
//! * replayed through [`super::queueing::QueueConfig::with_trace`]:
//!   `simulate_queue` takes the recorded `times` as the arrival timeline
//!   verbatim, yielding a bit-identical
//!   [`super::queueing::QueueSummary`] when the rest of the
//!   configuration is unchanged. This is the regression seam for
//!   failure drills and for real production logs
//!   ([`ArrivalTrace::from_timestamp_log`]).

use std::fmt::Write as _;

/// A recorded arrival timeline: the traffic label it came from (kept so
/// a replayed run renders the identical summary) and the absolute
/// arrival instant of every offered request, in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    /// Label of the traffic model that generated the timeline (e.g.
    /// `bursty`, `closed:6`). Replay reports this label, not `trace`.
    pub traffic: String,
    /// Absolute arrival time (cycles) per request slot, non-decreasing.
    pub times: Vec<u64>,
}

impl ArrivalTrace {
    /// Builds a trace, validating monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if the times are not non-decreasing (a decreasing
    /// timeline cannot have come out of any arrival source).
    pub fn new(traffic: impl Into<String>, times: Vec<u64>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "arrival trace times must be non-decreasing"
        );
        ArrivalTrace {
            traffic: traffic.into(),
            times,
        }
    }

    /// Offered request count.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace records no arrivals.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Deterministic JSON rendering (fixed field order, 8 times per
    /// line) — diffable, committable, byte-identical across thread
    /// counts because the recorded timeline is.
    pub fn to_json(&self) -> String {
        let traffic = self.traffic.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::with_capacity(64 + 12 * self.times.len());
        out.push_str("{\n  \"trace\": \"sgcn-arrivals\",\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"traffic\": \"{traffic}\",");
        let _ = writeln!(out, "  \"requests\": {},", self.times.len());
        out.push_str("  \"times\": [");
        for (i, t) in self.times.iter().enumerate() {
            if i % 8 == 0 {
                out.push_str("\n    ");
            } else {
                out.push(' ');
            }
            let _ = write!(out, "{t}");
            if i + 1 < self.times.len() {
                out.push(',');
            }
        }
        if self.times.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parses a trace rendered by [`Self::to_json`]. `None` when the
    /// text is not a version-1 `sgcn-arrivals` trace, the request count
    /// disagrees with the timeline, or the times decrease. The parser
    /// is hand-rolled against our own fixed format (no JSON dependency)
    /// but whitespace-tolerant, so hand-edited traces load too.
    pub fn parse(text: &str) -> Option<ArrivalTrace> {
        if string_field(text, "trace")? != "sgcn-arrivals" {
            return None;
        }
        if number_field(text, "version")? != 1 {
            return None;
        }
        let traffic = string_field(text, "traffic")?;
        let requests = number_field(text, "requests")?;
        let times = array_field(text, "times")?;
        if times.len() as u64 != requests {
            return None;
        }
        if !times.windows(2).all(|w| w[0] <= w[1]) {
            return None;
        }
        Some(ArrivalTrace { traffic, times })
    }

    /// Ingests a plain timestamp-per-line production log into an
    /// arrival trace. One finite, non-decreasing timestamp per line (any
    /// unit — seconds, millis, whatever the log emits); blank lines and
    /// `#` comments are skipped. The timeline is normalized to start at
    /// 0 and **rescaled** so its mean inter-arrival gap equals
    /// `target_mean_gap_cycles` — the seam that lets one real morning's
    /// burstiness drive a simulated fleet at any offered load. Logs with
    /// fewer than two distinct instants carry no rate information and
    /// ingest as all-zero arrival times (an instantaneous burst).
    ///
    /// # Errors
    ///
    /// A malformed line (non-numeric, non-finite, or decreasing vs its
    /// predecessor) is a hard error naming the 1-based line number —
    /// real logs are ingested verbatim or not at all, never silently
    /// patched.
    pub fn from_timestamp_log(
        text: &str,
        target_mean_gap_cycles: f64,
    ) -> Result<ArrivalTrace, String> {
        assert!(
            target_mean_gap_cycles.is_finite() && target_mean_gap_cycles >= 0.0,
            "target mean gap must be finite and non-negative, got {target_mean_gap_cycles}"
        );
        let mut stamps: Vec<f64> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let stamp: f64 = line
                .parse()
                .map_err(|_| format!("line {}: {line:?} is not a timestamp", lineno + 1))?;
            if !stamp.is_finite() {
                return Err(format!(
                    "line {}: non-finite timestamp {line:?}",
                    lineno + 1
                ));
            }
            if let Some(&prev) = stamps.last() {
                if stamp < prev {
                    return Err(format!(
                        "line {}: timestamp {stamp} decreases below {prev} — arrival logs must be sorted",
                        lineno + 1
                    ));
                }
            }
            stamps.push(stamp);
        }
        let times = match (stamps.first(), stamps.last()) {
            (Some(&first), Some(&last)) if last > first => {
                // Observed mean gap over n-1 intervals; scale it onto
                // the requested one. Rounding each instant (not each
                // gap) keeps the rescaled timeline non-decreasing.
                let scale = target_mean_gap_cycles * (stamps.len() - 1) as f64 / (last - first);
                stamps
                    .iter()
                    .map(|&s| ((s - first) * scale).round() as u64)
                    .collect()
            }
            _ => vec![0; stamps.len()],
        };
        Ok(ArrivalTrace::new(format!("log:{}", times.len()), times))
    }

    /// [`Self::from_timestamp_log`] over a file path — the
    /// `SGCN_LOG_INGEST` seam.
    ///
    /// # Panics
    ///
    /// A missing/unreadable path or a malformed log is a hard error
    /// describing the expected format (the same no-silent-fallback
    /// convention as the dispatch knobs): one finite, non-decreasing
    /// timestamp per line, blank lines and `#` comments ignored.
    pub fn from_timestamp_file(path: &str, target_mean_gap_cycles: f64) -> ArrivalTrace {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!(
                "cannot read timestamp log {path:?}: {e} — expected a plain timestamp log: \
                 {TIMESTAMP_LOG_FORMAT}"
            )
        });
        ArrivalTrace::from_timestamp_log(&text, target_mean_gap_cycles).unwrap_or_else(|e| {
            panic!(
                "malformed timestamp log {path:?}: {e} — expected a plain timestamp log: \
                 {TIMESTAMP_LOG_FORMAT}"
            )
        })
    }
}

/// The one-line contract of a `SGCN_LOG_INGEST` timestamp log, quoted
/// verbatim by both [`ArrivalTrace::from_timestamp_file`]'s hard errors
/// and the knob reference (`docs/KNOBS.md`) — a single constant so the
/// error message and the documentation cannot drift apart (a unit test
/// pins the exact wording).
pub const TIMESTAMP_LOG_FORMAT: &str = "one finite, non-decreasing timestamp per line \
     (any unit), blank lines and '#' comments ignored";

/// Extracts the string value of `"key": "value"`, unescaping the two
/// escapes [`ArrivalTrace::to_json`] emits.
fn string_field(text: &str, key: &str) -> Option<String> {
    let rest = field_value(text, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// Extracts the numeric value of `"key": N`.
fn number_field(text: &str, key: &str) -> Option<u64> {
    let rest = field_value(text, key)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Extracts the `u64` array value of `"key": [...]`.
fn array_field(text: &str, key: &str) -> Option<Vec<u64>> {
    let rest = field_value(text, key)?;
    let rest = rest.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut out = Vec::new();
    for item in body.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(item.parse().ok()?);
    }
    Some(out)
}

/// The text immediately after `"key":` (whitespace skipped).
fn field_value<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_exact() {
        let trace = ArrivalTrace::new("bursty", (0..20).map(|i| i * 37).collect());
        let json = trace.to_json();
        let back = ArrivalTrace::parse(&json).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), json, "render is canonical");
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = ArrivalTrace::new("exponential", Vec::new());
        let back = ArrivalTrace::parse(&trace.to_json()).expect("parses");
        assert_eq!(back, trace);
        assert!(back.is_empty());
    }

    #[test]
    fn traffic_label_escapes_survive() {
        let trace = ArrivalTrace::new("odd \"label\" \\ here", vec![5, 9]);
        let back = ArrivalTrace::parse(&trace.to_json()).expect("parses");
        assert_eq!(back.traffic, "odd \"label\" \\ here");
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        let good = ArrivalTrace::new("exponential", vec![1, 2, 3]).to_json();
        assert!(ArrivalTrace::parse(&good).is_some());
        for bad in [
            "{}",
            "not json at all",
            // Wrong magic.
            &good.replace("sgcn-arrivals", "other-trace"),
            // Wrong version.
            &good.replace("\"version\": 1", "\"version\": 2"),
            // Count/timeline mismatch.
            &good.replace("\"requests\": 3", "\"requests\": 4"),
            // Decreasing times.
            &good.replace("1, 2, 3", "3, 2, 1"),
            // Non-numeric entry.
            &good.replace("1, 2, 3", "1, x, 3"),
        ] {
            assert_eq!(ArrivalTrace::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_times_panic() {
        let _ = ArrivalTrace::new("exponential", vec![5, 3]);
    }

    #[test]
    fn timestamp_log_ingests_normalizes_and_rescales() {
        // Seconds-unit log with comments/blanks: gaps 1, 3, 0, 2 (mean
        // 1.5 s). Rescaling to a 3000-cycle mean gap doubles into
        // cycles per second = 2000.
        let log = "# morning burst\n10.0\n11.0\n\n14.0\n14.0\n16.0\n";
        let trace = ArrivalTrace::from_timestamp_log(log, 3000.0).expect("ingests");
        assert_eq!(trace.times, vec![0, 2000, 8000, 8000, 12000]);
        assert_eq!(trace.traffic, "log:5");
        // The rescaled mean gap hits the target exactly.
        assert_eq!(trace.times.last().unwrap() / (trace.len() as u64 - 1), 3000);
    }

    #[test]
    fn timestamp_log_hard_errors_name_the_line() {
        let unsorted = ArrivalTrace::from_timestamp_log("5.0\n4.0\n", 1000.0);
        assert!(
            unsorted.as_ref().unwrap_err().contains("line 2"),
            "{unsorted:?}"
        );
        assert!(unsorted.unwrap_err().contains("must be sorted"));
        let garbage = ArrivalTrace::from_timestamp_log("1.0\nbogus\n", 1000.0);
        assert!(garbage.unwrap_err().contains("line 2"));
        let nonfinite = ArrivalTrace::from_timestamp_log("1.0\ninf\n3.0\n", 1000.0);
        assert!(nonfinite.unwrap_err().contains("non-finite"));
    }

    #[test]
    fn degenerate_timestamp_logs_ingest_as_bursts() {
        // Empty and single-line logs carry no rate information.
        assert!(ArrivalTrace::from_timestamp_log("", 1000.0)
            .expect("empty ok")
            .is_empty());
        assert_eq!(
            ArrivalTrace::from_timestamp_log("42.0\n", 1000.0)
                .expect("single ok")
                .times,
            vec![0]
        );
        // All-identical stamps: an instantaneous burst, all zeros.
        assert_eq!(
            ArrivalTrace::from_timestamp_log("7.0\n7.0\n7.0\n", 1000.0)
                .expect("flat ok")
                .times,
            vec![0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "expected a plain timestamp log")]
    fn missing_timestamp_file_is_a_hard_error() {
        let _ = ArrivalTrace::from_timestamp_file("/nonexistent/arrivals.log", 1000.0);
    }

    #[test]
    fn timestamp_log_format_wording_is_pinned() {
        // The knob reference (docs/KNOBS.md) quotes this sentence
        // verbatim for SGCN_LOG_INGEST; changing the wording here means
        // updating the reference in the same commit.
        assert_eq!(
            TIMESTAMP_LOG_FORMAT,
            "one finite, non-decreasing timestamp per line (any unit), \
             blank lines and '#' comments ignored"
        );
    }

    #[test]
    fn whitespace_tolerant_parse() {
        let text = "{ \"trace\": \"sgcn-arrivals\", \"version\": 1,\n  \"traffic\" : \"closed:6\" , \"requests\": 2, \"times\": [ 7 , 11 ] }";
        let back = ArrivalTrace::parse(text).expect("parses");
        assert_eq!(back.traffic, "closed:6");
        assert_eq!(back.times, vec![7, 11]);
    }
}
