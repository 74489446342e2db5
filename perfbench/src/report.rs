//! Named metrics, correctness checks and the result formats: a readable
//! table, the one-line JSON summary, and a TSV result file that carries the
//! run's provenance for later comparison.

use crate::provenance::Provenance;
use std::fmt::Write as _;
use std::path::Path;

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// How the value was formed (percentile used, what was divided by what).
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics named in `BENCHMARK.json` for this run's mode.
    pub metrics: Vec<Metric>,
    /// The workload's own names for the same measurements (printed only).
    pub aliases: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of the run's seed-determined outputs (loss bits and
    /// GEMM counts): equal seeds must give equal digests across processes.
    pub digest: Option<u64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metric_note(name, unit, value, samples, String::new());
    }

    pub fn metric_note(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: String,
    ) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        if !value.is_finite() {
            self.check(
                &format!("finite {name}"),
                false,
                format!("{name} = {value}"),
            );
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note,
        });
    }

    /// A workload-specific name for a measurement (human output only).
    pub fn alias(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        self.aliases.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: String::new(),
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report: every metric with unit and sample count,
    /// then every check.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let row = |s: &mut String, m: &Metric| {
            let _ = writeln!(
                s,
                "  {:<34} {:>14.4} {:<6} n={:<6} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        };
        let _ = writeln!(s, "metrics:");
        for m in &self.metrics {
            row(&mut s, m);
        }
        if !self.aliases.is_empty() {
            let _ = writeln!(s, "workload metrics:");
            for m in &self.aliases {
                row(&mut s, m);
            }
        }
        let _ = writeln!(s, "checks:");
        for c in &self.checks {
            let _ = writeln!(
                s,
                "  [{}] {:<40} {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        let _ = writeln!(s, "attempted {} failed {}", self.attempted, self.failed);
        s
    }

    /// The one-line JSON summary (the last line a run prints).
    pub fn summary_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file: the seed and output digest, provenance rows, then
    /// one row per metric.
    pub fn to_tsv(&self, seed: u64, prov: &Provenance) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "seed\t{seed}");
        if let Some(d) = self.digest {
            let _ = writeln!(s, "digest\t{d:016x}");
        }
        for (k, v) in prov.entries() {
            let _ = writeln!(s, "provenance\t{k}\t{v}");
        }
        for m in self.metrics.iter().chain(&self.aliases) {
            let _ = writeln!(
                s,
                "metric\t{}\t{}\t{}\t{}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        s
    }

    pub fn write_tsv(&self, seed: u64, prov: &Provenance, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_tsv(seed, prov))
    }
}

/// A result file read back: seed, digest, provenance and
/// `(name, value, unit)` rows.
pub struct Stored {
    pub seed: Option<u64>,
    pub digest: Option<u64>,
    pub provenance: Provenance,
    pub metrics: Vec<(String, f64, String)>,
}

pub fn read_tsv(text: &str) -> Result<Stored, String> {
    let mut prov = Vec::new();
    let mut metrics = Vec::new();
    let (mut seed, mut digest) = (None, None);
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = |what: &str| format!("line {}: bad {what} {line:?}", i + 1);
        match f.as_slice() {
            ["seed", v] => seed = Some(v.parse().map_err(|_| bad("seed"))?),
            ["digest", v] => digest = Some(u64::from_str_radix(v, 16).map_err(|_| bad("digest"))?),
            ["provenance", k, v] => prov.push((k.to_string(), v.to_string())),
            ["metric", name, value, unit, _samples] => {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
                metrics.push((name.to_string(), v, unit.to_string()));
            }
            _ => return Err(format!("line {}: unrecognised row {line:?}", i + 1)),
        }
    }
    Ok(Stored {
        seed,
        digest,
        provenance: Provenance::from_entries(prov),
        metrics,
    })
}

/// FNV-1a over a sequence of words.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Shortest round-tripping decimal form, always with a digit after the point
/// or an exponent so JSON readers see a number, never `inf`/`NaN`.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_the_contract_pattern() {
        for ok in [
            "setup_s",
            "lx.kernels.gemm_calls.tiny",
            "serve.queue_wait_ms.p90",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "lat{p=90}",
            "ms/step",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_metric_name_is_legal() {
        let e2e = crate::END_TO_END.iter().map(|(n, _, _)| n.to_string());
        for name in e2e.chain(crate::per_layer_names().into_iter().map(|(n, _, _)| n)) {
            assert!(valid_name(&name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn reporting_an_illegal_name_panics() {
        Report::default().metric("bad name", "ms", 1.0, 1);
    }

    #[test]
    fn summary_is_one_json_line_with_the_contract_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", "ms", 1.25, 10);
        r.metric("count", "count", 3.0, 1);
        r.attempted = 4;
        r.check("c", true, String::new());
        let s = r.summary_json();
        assert!(!s.contains('\n'));
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("x", "ms", f64::NAN, 1);
        assert!(!r.correct());
        assert!(r.summary_json().contains("\"correct\": false"));
    }

    #[test]
    fn tsv_round_trips_metrics_and_provenance() {
        let mut r = Report::default();
        r.metric("lx_tok_s", "tok/s", 1234.5678, 100);
        r.digest = Some(0xdead_beef_0000_0001);
        let prov = Provenance::from_entries(vec![("cores".into(), "2".into())]);
        let back = read_tsv(&r.to_tsv(7, &prov)).expect("parse");
        assert_eq!(back.seed, Some(7));
        assert_eq!(back.digest, Some(0xdead_beef_0000_0001));
        assert_eq!(back.provenance, prov);
        assert_eq!(
            back.metrics,
            vec![("lx_tok_s".to_string(), 1234.5678, "tok/s".to_string())]
        );
    }
}
