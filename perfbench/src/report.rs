//! Metric lists and the JSON lines the benchmark's children print.

/// How a number was obtained: read from a clock or a meter of the run
/// (`measured`), or derived from other numbers (`computed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Measured,
    Computed,
}

impl Tag {
    fn label(self) -> &'static str {
        match self {
            Tag::Measured => "measured",
            Tag::Computed => "computed",
        }
    }
}

/// Named metrics with unit and tag, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str, Tag)>);

impl Metrics {
    pub fn measured(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit, Tag::Measured));
    }

    pub fn computed(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit, Tag::Computed));
    }

    /// `{"name": {"value": v, "unit": u, "tag": t}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit, tag)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"tag\": \"{}\"}}",
                    num(*v),
                    tag.label()
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of strings.
pub fn strs(vs: &[String]) -> String {
    let body: Vec<String> = vs.iter().map(|s| string(s)).collect();
    format!("[{}]", body.join(", "))
}
