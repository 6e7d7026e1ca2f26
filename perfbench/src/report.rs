//! Named metrics and the result line.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as in `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A metric `name` of `value` `unit`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The end-to-end metrics every untraced run reports, with their units,
/// in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_req_per_wall_s", "1/s"),
    ("wall_s_per_sim_s", "s/s"),
    ("slice_wall_ms_p50", "ms"),
    ("slice_wall_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Whether `name` is made only of `[A-Za-z0-9_.-]` and is not empty.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Display for f64 never uses an exponent and round-trips, so
            // the value keeps every digit. Callers count a non-finite
            // value as a failed check; 0 keeps the line valid JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn name_rule_accepts_metric_names_and_refuses_others() {
        assert!(valid_name("simkernel.drain_ns_per_event"));
        assert!(valid_name("paper_4x4-observed"));
        for bad in ["", "a b", "x/y", "p95%", "naïve"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_workload_and_metric_name_is_valid() {
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
        for (name, _) in END_TO_END {
            assert!(valid_name(name), "{name}");
        }
        for m in crate::per_layer_names() {
            assert!(valid_name(&m), "{m}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(3, 1, &[Metric::new("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
