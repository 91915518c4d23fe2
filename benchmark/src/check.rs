//! Output checks: digests of every simulated statistic and the invariants
//! the serving stack promises.

use sgcn::serving::queueing::{PreparedRequest, QueueOutcome};
use sgcn::SimReport;

/// 64-bit FNV-1a over a stream of byte strings. Debug renderings of the
/// reports cover every field, and Rust prints each `f64` with the fewest
/// digits that round-trip, so equal digests mean bit-equal statistics.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn add_debug(&mut self, value: &impl std::fmt::Debug) {
        self.add(format!("{value:?}").as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Every report simulated some work.
pub fn cycles_nonzero<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> bool {
    reports.into_iter().all(|r| r.cycles > 0)
}

/// Every cold report of one prepared record: the reference report, the
/// (class, format) matrix and the brownout rung.
pub fn record_reports(p: &PreparedRequest) -> impl Iterator<Item = &SimReport> {
    std::iter::once(&p.report)
        .chain(&p.class_reports)
        .chain(&p.lite_reports)
}

/// Request conservation: every offered request ends completed, shed or
/// failed, and the per-request records agree with the summary.
pub fn conserved(out: &QueueOutcome, offered: usize) -> bool {
    let s = &out.summary;
    s.requests == offered
        && s.completed as u64 + s.shed + s.failed == offered as u64
        && out.records.len() == s.completed
        && out.shed.len() as u64 == s.shed
        && out.failed.len() as u64 == s.failed
}

/// No `inf`, `-inf` or `NaN` outside string literals of a rendered JSON.
pub fn json_finite(json: &str) -> bool {
    let mut in_string = false;
    let mut escaped = false;
    let mut token = String::new();
    for c in json.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+') {
            token.push(c);
            continue;
        }
        if !finite_token(&token) {
            return false;
        }
        token.clear();
        in_string = c == '"';
    }
    finite_token(&token)
}

fn finite_token(token: &str) -> bool {
    let t = token.trim_start_matches(['-', '+']).to_ascii_lowercase();
    !(t == "inf" || t == "infinity" || t == "nan")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_finite_flags_bare_non_finite_values_only() {
        assert!(json_finite(
            r#"{"a": 1.5, "label": "inf nan", "b": [0, -2e-3]}"#
        ));
        assert!(!json_finite(r#"{"a": inf}"#));
        assert!(!json_finite(r#"{"a": [1, -inf]}"#));
        assert!(!json_finite(r#"{"a": NaN}"#));
        assert!(json_finite(r#"{"q": "say \"NaN\"", "n": true}"#));
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::new();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::new();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.value(), b.value());
    }
}
