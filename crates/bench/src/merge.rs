//! The markdown report every `figures` run writes: the plain worker's and
//! the supervisor's, which renders it from the journal it verified.

use crate::Scale;

/// The report header every `figures` markdown artifact starts with.
pub fn report_prologue(scale: &Scale) -> String {
    format!(
        "# Regenerated figures\n\nScale: {} records/app across {} applications; \
         CBP-5 suite {}x{}; IPC-1 suite {}x{}.\n\n",
        scale.trace_len,
        scale.apps.len(),
        scale.cbp_count,
        scale.cbp_len,
        scale.ipc1_count,
        scale.ipc1_len
    )
}

/// The markdown report: the prologue, then every figure's section. With
/// figures `missing`, a `Status: incomplete` stamp naming each of them and
/// `reason` sits between the two, and the sections are the survivors'.
pub fn report(scale: &Scale, sections: &[String], missing: &[String], reason: &str) -> String {
    let mut out = report_prologue(scale);
    if !missing.is_empty() {
        out.push_str(&format!(
            "> **Status: incomplete** — {} figure(s) missing: {reason}.\n>\n",
            missing.len()
        ));
        for id in missing {
            out.push_str(&format!("> - `{id}`\n"));
        }
        out.push('\n');
    }
    for section in sections {
        out.push_str(section);
    }
    out
}
