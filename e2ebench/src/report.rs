//! Metric records and the result line.

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// True for a metric name the result schema accepts.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a unit the result schema accepts.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Problems with a metric set: bad names or units, duplicates, values
/// JSON cannot carry.
pub fn check_metrics(metrics: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            problems.push(format!("metric name `{}` is not [A-Za-z0-9_.-]+", m.name));
        }
        if !valid_unit(m.unit) {
            problems.push(format!("metric `{}` has bad unit `{}`", m.name, m.unit));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric `{}` = {} is not finite", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            problems.push(format!("metric `{}` emitted twice", m.name));
        }
    }
    problems
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values are flagged by `check_metrics` (and make the
            // run incorrect); emit null so the line stays valid JSON.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_schema() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("linalg.shard_reuse_ratio"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("peak rss"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn check_flags_duplicates_and_non_finite() {
        let metrics = [
            Metric::new("a", "ms", 1.0),
            Metric::new("a", "ms", 2.0),
            Metric::new("b", "ms", f64::NAN),
        ];
        assert_eq!(check_metrics(&metrics).len(), 2);
        assert!(check_metrics(&metrics[..1]).is_empty());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[Metric::new("x_ms", "ms", 1.203_456_789)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }
}
