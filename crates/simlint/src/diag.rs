//! Diagnostics and their output formats: human-readable text
//! (`file:line:col: rule: message`), machine-readable JSON for CI, and
//! SARIF 2.1.0 for code-scanning UIs.

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Rule id (`D01` … `S02`, `X01`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub fix: String,
}

impl Diagnostic {
    /// Sort key giving a stable, reader-friendly report order.
    pub fn sort_key(&self) -> (String, usize, usize, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule)
    }
}

/// Renders diagnostics as text, one finding per two lines.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}:{}:{}: {}: {}\n    fix: {}",
            d.file, d.line, d.col, d.rule, d.message, d.fix
        );
    }
    let _ = match diags.len() {
        0 => writeln!(out, "simlint: clean"),
        n => writeln!(out, "simlint: {n} finding(s)"),
    };
    out
}

/// Renders diagnostics as a JSON document:
/// `{"findings": [...], "count": N}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"fix\":{}}}",
            json_str(&d.file),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(&d.message),
            json_str(&d.fix)
        );
    }
    let _ = write!(out, "],\"count\":{}}}", diags.len());
    out.push('\n');
    out
}

/// Renders diagnostics as a SARIF 2.1.0 log (one run, tool `simlint`).
/// Rule metadata covers every known rule id so `ruleIndex` is stable
/// across runs regardless of which rules fired.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let rules = crate::rules::RULE_DESCRIPTIONS;
    let mut out = String::from(
        "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":\
         {\"driver\":{\"name\":\"simlint\",\"informationUri\":\
         \"https://example.invalid/simlint\",\"rules\":[",
    );
    for (i, (id, desc)) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_str(id),
            json_str(desc)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = rules
            .iter()
            .position(|(id, _)| *id == d.rule)
            .map(|p| p as isize)
            .unwrap_or(-1);
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"ruleIndex\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}],\"fixes\":[{{\
             \"description\":{{\"text\":{}}}}}]}}",
            json_str(d.rule),
            rule_index,
            json_str(&d.message),
            json_str(&d.file),
            d.line,
            d.col,
            json_str(&d.fix)
        );
    }
    let _ = write!(out, "]}}]}}");
    out.push('\n');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            rule: "D02",
            message: "wall-clock \"time\" in sim".into(),
            fix: "move timing to the bench harness".into(),
        }
    }

    #[test]
    fn text_format_is_grep_friendly() {
        let t = render_text(&[sample()]);
        assert!(t.starts_with("crates/x/src/lib.rs:3:9: D02: "));
        assert!(t.contains("fix: move timing"));
        assert!(t.contains("1 finding(s)"));
        assert!(render_text(&[]).contains("clean"));
    }

    #[test]
    fn sarif_names_the_rule_and_location() {
        let s = render_sarif(&[sample()]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"D02\""));
        assert!(s.contains("\"uri\":\"crates/x/src/lib.rs\""));
        assert!(s.contains("\"startLine\":3"));
        assert!(s.contains("\"name\":\"simlint\""));
        // Rule metadata is always present, findings or not.
        let empty = render_sarif(&[]);
        assert!(empty.contains("\"results\":[]"));
        assert!(empty.contains("\"id\":\"R04\""));
        assert!(empty.contains("\"id\":\"P03\""));
        assert!(empty.contains("\"id\":\"X02\""));
    }

    #[test]
    fn json_escapes_and_counts() {
        let j = render_json(&[sample()]);
        assert!(j.contains("\\\"time\\\""));
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"rule\":\"D02\""));
        let empty = render_json(&[]);
        assert!(empty.contains("\"findings\":[]"));
        assert!(empty.contains("\"count\":0"));
    }
}
