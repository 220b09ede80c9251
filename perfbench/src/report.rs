//! What one benchmark run prints: human-readable metric lines with
//! units and sample counts, correctness failures, and the final JSON
//! line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was formed (sample count, percentile level...).
    pub note: String,
}

/// The outcome of one `--workload` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Correctness failures; empty means correct.
    pub failures: Vec<String>,
    /// Operations attempted (pair runs or requests sent).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Extra lines printed before the metrics (digests, diagnostics).
    pub lines: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric { name: name.into(), value, unit, note: note.into() });
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds an informational line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Whether every check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable block (every metric) followed by the final
    /// JSON line, which carries exactly the `wanted` metrics in that
    /// order; a wanted metric the run did not produce is a failure.
    pub fn render(&mut self, header: &str, wanted: &[String]) -> String {
        for name in wanted {
            if !self.metrics.iter().any(|m| &m.name == name) {
                self.failures.push(format!("metric {name} was not measured"));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {header}");
        for line in &self.lines {
            let _ = writeln!(out, "   {line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "   {:<28} {:>14} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "   CHECK FAILED: {f}");
        }
        let _ = writeln!(out, "   correct: {}", self.correct());
        out.push_str(&self.json(wanted));
        out
    }

    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` over
    /// the `wanted` metrics.
    pub fn json(&self, wanted: &[String]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| &m.name == name))
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_num(v), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite float as JSON with every digit Rust's shortest round-trip
/// form keeps.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// FNV-1a over a string: the digest of a run's simulated output.
pub fn fnv1a(text: &str, mut hash: u64) -> u64 {
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of a process in MB (`VmHWM`), `None` when
/// `/proc` does not say.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("sweep_s", 1.25, "s", "");
        r.metric("setup_s", 2.0, "s", "");
        r.metric("extra", 3.0, "s", "");
        let wanted = vec!["sweep_s".to_string(), "setup_s".to_string()];
        assert_eq!(
            r.json(&wanted),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"sweep_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"setup_s\":{\"value\":2.0,\"unit\":\"s\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(r.json(&wanted).starts_with("{\"correct\":false"));
        let mut r = Report::default();
        let text = r.render("x", &wanted);
        assert!(text.contains("metric sweep_s was not measured"));
        assert!(text.lines().last().unwrap().starts_with("{\"correct\":false"));
    }

    #[test]
    fn non_finite_values_are_incorrect() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s", "");
        assert!(!r.correct());
    }
}
