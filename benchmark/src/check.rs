//! Output checks: every timed operation is judged against an expected
//! output, and every failure is counted against the operations
//! attempted.

/// The paper's fused false-negative rates (DATE 2015, Table of FN
/// rates), in percent, for the three trojans the repository models
/// after it. They are the only reference the model is validated
/// against.
pub const PAPER_FN_PCT: [(&str, f64); 3] = [("HT 1", 26.0), ("HT 2", 17.0), ("HT 3", 5.0)];

/// Attempted and failed operations of one run, with the first few
/// failure reasons for the log.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a non-zero exit, an `error` or `busy`
    /// reply, no reply, or output that differs from the expected bytes.
    pub failed: u64,
    reasons: Vec<String>,
}

impl Ops {
    /// Records one operation that succeeded iff `ok`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
        ok
    }

    /// Records one operation whose output must equal `expected`
    /// byte for byte. `actual` is `None` when the operation produced no
    /// output (it failed before writing).
    pub fn judge(&mut self, what: &str, actual: Option<&[u8]>, expected: &[u8]) -> bool {
        match actual {
            None => self.record(false, || format!("{what}: no output")),
            Some(bytes) => self.record(bytes == expected, || {
                format!("{what}: output differs from the expected report")
            }),
        }
    }

    /// Share of attempted operations that succeeded, in percent.
    pub fn ok_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The recorded failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// The fused analytic FN rate (a fraction) of every row of a stored
/// multi-channel report, keyed by the row's trojan name, in row order.
pub fn fused_fn_rates(report: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut row: Option<String> = None;
    for line in report.lines() {
        if let Some(rest) = line.strip_prefix("row \"") {
            row = rest.split('"').next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("fused \"fused\" ") {
            // fused "fused" <mu> <sigma> <analytic fn> <empirical fn> <empirical fp>
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if let (Some(name), Some(fnr)) = (row.take(), fields.get(2)) {
                if let Ok(fnr) = fnr.parse::<f64>() {
                    out.push((name, fnr));
                }
            }
        }
    }
    out
}

/// Mean |fused FN − paper FN| in percentage points over every row of
/// `rates` naming one of the paper's three trojans. `None` when no row
/// does.
pub fn fn_err_pp(rates: &[(String, f64)]) -> Option<f64> {
    let errs: Vec<f64> = rates
        .iter()
        .filter_map(|(name, fnr)| {
            PAPER_FN_PCT
                .iter()
                .find(|(paper_name, _)| paper_name == name)
                .map(|(_, paper)| (100.0 * fnr - paper).abs())
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "htdstore 1 report\n\
dies 8\n\
row \"HT 1\" 0.1 2 1\n\
result \"EM\" 1 2 0.4 0.5 0.3\n\
fused \"fused\" 0.9 2.1 0.41 0.59 0.34\n\
row \"HT 2\" 0.1 2 1\n\
fused \"fused\" 3.1 2.4 0.26 0.34 0.21\n\
row \"HT 3\" 0.1 2 1\n\
fused \"fused\" 7.9 2.6 0.07 0.09 0.03\n\
row \"HT-seq\" 0.1 2 1\n\
fused \"fused\" 17.3 1.9 0.0 0 0\n\
checksum fnv1a64 0000000000000000\n";

    #[test]
    fn fused_rates_are_read_per_row() {
        let rates = fused_fn_rates(REPORT);
        let names: Vec<&str> = rates.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["HT 1", "HT 2", "HT 3", "HT-seq"]);
        // |41 − 26| + |26 − 17| + |7 − 5| = 15 + 9 + 2 → mean 26/3.
        let err = fn_err_pp(&rates).expect("paper rows present");
        assert!((err - 26.0 / 3.0).abs() < 1e-9, "{err}");
        assert_eq!(fn_err_pp(&rates[3..]), None);
    }

    #[test]
    fn a_changed_expected_report_counts_the_op_as_failed() {
        let actual = REPORT.as_bytes();
        let mut ops = Ops::default();
        assert!(ops.judge("score", Some(actual), REPORT.as_bytes()));
        assert_eq!((ops.attempted, ops.failed), (1, 0));
        assert_eq!(ops.ok_pct(), 100.0);

        let tampered = REPORT.replace("0.41", "0.42");
        assert!(!ops.judge("score", Some(actual), tampered.as_bytes()));
        assert!(!ops.judge("score", None, REPORT.as_bytes()));
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.reasons().len(), 2);
        assert!((ops.ok_pct() - 100.0 / 3.0).abs() < 1e-9);
    }
}
