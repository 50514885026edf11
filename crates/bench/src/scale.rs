//! Experiment scale configuration.

use std::env::VarError;

use btb_workloads::AppSpec;

/// How big each experiment runs. Every knob has an environment override so
/// figures can be regenerated quickly (smoke) or at full fidelity:
///
/// | Variable             | Default   | Meaning                               |
/// |----------------------|-----------|---------------------------------------|
/// | `THERMO_TRACE_LEN`   | 2,000,000 | records per application trace         |
/// | `THERMO_CBP_COUNT`   | 96        | CBP-5-style traces (paper: 663)       |
/// | `THERMO_CBP_LEN`     | 200,000   | records per CBP trace                 |
/// | `THERMO_IPC1_COUNT`  | 50        | IPC-1-style traces (paper: 50)        |
/// | `THERMO_IPC1_LEN`    | 400,000   | records per IPC-1 trace               |
/// | `THERMO_APPS`        | all 13    | comma-separated application filter    |
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Records per application trace.
    pub trace_len: usize,
    /// Number of CBP-5-style traces.
    pub cbp_count: usize,
    /// Records per CBP-5 trace.
    pub cbp_len: usize,
    /// Number of IPC-1-style traces.
    pub ipc1_count: usize,
    /// Records per IPC-1 trace.
    pub ipc1_len: usize,
    /// Applications under test.
    pub apps: Vec<AppSpec>,
}

/// A count knob: its default when unset, an error naming the variable when
/// set to anything but a whole number.
fn env_usize(key: &str, default: usize) -> Result<usize, String> {
    // simlint: allow(D04) -- THERMO_* scale knobs are documented in README.md
    match std::env::var(key) {
        Ok(raw) => parse_usize(key, &raw),
        Err(VarError::NotPresent) => Ok(default),
        Err(e) => Err(format!("{key}: {e}")),
    }
}

fn parse_usize(key: &str, raw: &str) -> Result<usize, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{key}={raw:?} is not a whole number (e.g. {key}=10000)"))
}

/// The applications `filter` (comma-separated names) selects, in canonical
/// order. An unknown name is an error listing the valid ones.
fn parse_apps(filter: &str) -> Result<Vec<AppSpec>, String> {
    let all = AppSpec::all();
    let wanted: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .collect();
    let unknown: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|name| !all.iter().any(|s| s.name == *name))
        .collect();
    if wanted.is_empty() || !unknown.is_empty() {
        let valid: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        return Err(format!(
            "THERMO_APPS={filter:?}: unknown application(s) [{}]; valid names: {}",
            unknown.join(", "),
            valid.join(", ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|s| wanted.contains(&s.name.as_str()))
        .collect())
}

impl Scale {
    /// The paper-fidelity defaults: all 13 applications at 2M records.
    pub fn paper() -> Self {
        Self {
            trace_len: 2_000_000,
            cbp_count: 96,
            cbp_len: 200_000,
            ipc1_count: 50,
            ipc1_len: 400_000,
            apps: AppSpec::all(),
        }
    }

    /// [`Scale::paper`] with the environment overrides applied.
    ///
    /// # Errors
    ///
    /// A message naming the variable when a count knob is not a whole
    /// number, or when `THERMO_APPS` names an unknown application (the
    /// message lists the valid names).
    pub fn from_env() -> Result<Self, String> {
        let paper = Self::paper();
        // simlint: allow(D04) -- THERMO_APPS filter is documented in README.md
        let apps = match std::env::var("THERMO_APPS") {
            Ok(filter) => parse_apps(&filter)?,
            Err(VarError::NotPresent) => paper.apps,
            Err(e) => return Err(format!("THERMO_APPS: {e}")),
        };
        Ok(Self {
            trace_len: env_usize("THERMO_TRACE_LEN", paper.trace_len)?,
            cbp_count: env_usize("THERMO_CBP_COUNT", paper.cbp_count)?,
            cbp_len: env_usize("THERMO_CBP_LEN", paper.cbp_len)?,
            ipc1_count: env_usize("THERMO_IPC1_COUNT", paper.ipc1_count)?,
            ipc1_len: env_usize("THERMO_IPC1_LEN", paper.ipc1_len)?,
            apps,
        })
    }

    /// A tiny scale for tests: three applications, short traces.
    pub fn smoke() -> Self {
        let apps = AppSpec::all()
            .into_iter()
            .filter(|s| ["kafka", "finagle-http", "python"].contains(&s.name.as_str()))
            .collect();
        Self {
            trace_len: 60_000,
            cbp_count: 6,
            cbp_len: 20_000,
            ipc1_count: 6,
            ipc1_len: 20_000,
            apps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_small() {
        let s = Scale::smoke();
        assert_eq!(s.apps.len(), 3);
        assert!(s.trace_len <= 100_000);
    }

    #[test]
    fn env_parsing_falls_back() {
        assert_eq!(env_usize("THERMO_DOES_NOT_EXIST_XYZ", 7), Ok(7));
    }

    #[test]
    fn unparsable_count_names_the_variable() {
        assert_eq!(parse_usize("THERMO_TRACE_LEN", " 10000 "), Ok(10_000));
        let err = parse_usize("THERMO_TRACE_LEN", "10k").unwrap_err();
        assert!(
            err.contains("THERMO_TRACE_LEN") && err.contains("10k"),
            "{err}"
        );
    }

    #[test]
    fn unknown_app_is_rejected_with_the_valid_names() {
        let err = parse_apps("kafka,memcached").unwrap_err();
        assert!(
            err.contains("THERMO_APPS") && err.contains("memcached"),
            "{err}"
        );
        for spec in AppSpec::all() {
            assert!(err.contains(&spec.name), "{err} lacks {}", spec.name);
        }
        assert!(
            parse_apps(" , ").is_err(),
            "an empty filter selects nothing"
        );
    }

    #[test]
    fn app_filter_keeps_canonical_order() {
        let names: Vec<String> = parse_apps(" python,kafka ,")
            .expect("known names")
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["kafka", "python"]);
    }
}
