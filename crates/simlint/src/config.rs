//! `simlint.toml`: the central suppression / scope file, parsed with an
//! in-repo TOML-subset reader (no external dependencies).
//!
//! Recognised sections:
//!
//! ```toml
//! [deterministic]
//! crates = ["btb", "core", "trace", "uarch", "workloads"]
//!
//! [exclude]
//! paths = ["crates/simlint/tests/fixtures"]
//!
//! [allow.D02]
//! "crates/sim-support/src/bench.rs" = "the bench harness measures wall-clock by design"
//!
//! [registry.policy-zoo]
//! table = "crates/core/src/policy_kind.rs#policies"
//! tests = ["tests/storage_differential.rs"]
//! figures = ["crates/bench/src/figures"]
//!
//! [registry.policy-zoo.exempt]
//! "random" = "control-only policy, deliberately not plotted"
//!
//! [hotpath]
//! functions = [
//!     "crates/btb/src/storage.rs#find",
//! ]
//! ```
//!
//! Every `[allow.<RULE>]` entry maps a path *prefix* (workspace-relative,
//! forward slashes) to a mandatory non-empty reason string — a central
//! suppression without a justification is a parse error, mirroring the
//! in-source rule that `simlint: allow(...)` needs `-- reason`. Allow,
//! exempt, and hotpath entries record their `simlint.toml` line so the
//! dead-suppression rule (X02) can point at the exact stale entry.
//!
//! A `[registry.<id>]`'s `table` is a `"path#macro"` reference to the
//! table-macro invocation that lists the members (one
//! `"name" => Variant(Type)` row each); `tests` and `figures` are lists of
//! path prefixes. String arrays may span multiple
//! lines (one element per line).

use std::collections::BTreeMap;

/// A central path allowlist entry for one rule.
#[derive(Clone, Debug)]
pub struct PathAllow {
    /// Workspace-relative path prefix the allow applies to.
    pub path: String,
    /// Why the rule does not apply there.
    pub reason: String,
    /// 1-based `simlint.toml` line of the entry (0 for entries built in
    /// code, e.g. unit tests).
    pub line: usize,
}

/// A `"path#item"` reference to one leg of a registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemRef {
    /// Workspace-relative file path.
    pub path: String,
    /// Item name inside that file (a function or table-macro name).
    pub item: String,
}

/// A registry exemption: a member excused from the reference legs
/// (R04/R05) with a mandatory reason.
#[derive(Clone, Debug)]
pub struct RegistryExempt {
    /// The member's canonical (table) name, lowercase.
    pub name: String,
    pub reason: String,
    /// 1-based `simlint.toml` line of the entry.
    pub line: usize,
}

/// One `[registry.<id>]` section: the member table and the legs every
/// member must appear on.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    pub id: String,
    /// 1-based `simlint.toml` line of the section header.
    pub line: usize,
    /// Table-macro invocation whose rows are the members.
    pub table: Option<ItemRef>,
    /// Path prefixes of the differential-test leg (R04).
    pub tests: Vec<String>,
    /// Path prefixes of the figure-suite leg (R05).
    pub figures: Vec<String>,
    /// Members excused from the reference legs.
    pub exempt: Vec<RegistryExempt>,
}

/// One `[hotpath]` entry: a function that must stay allocation-free.
#[derive(Clone, Debug)]
pub struct HotPathFn {
    /// Workspace-relative path prefix (a file or a directory).
    pub path: String,
    /// Function name; every non-test `fn` with this name under `path` is
    /// checked.
    pub func: String,
    /// 1-based `simlint.toml` line of the entry.
    pub line: usize,
}

/// Parsed lint configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate directory names (under `crates/`) whose code must be
    /// bit-reproducible; D01 applies only to these.
    pub deterministic_crates: Vec<String>,
    /// Path prefixes skipped entirely (e.g. rule-violation fixtures).
    pub exclude: Vec<String>,
    /// Per-rule central allowlists, keyed by rule id.
    pub allows: BTreeMap<String, Vec<PathAllow>>,
    /// Cross-file registries (R-rules).
    pub registries: Vec<Registry>,
    /// Hot-path hygiene targets (P-rules).
    pub hotpath: Vec<HotPathFn>,
}

impl Default for Config {
    /// The scopes named in the repo's determinism contract, used when no
    /// `simlint.toml` is present (e.g. unit tests on synthetic sources).
    fn default() -> Self {
        Config {
            deterministic_crates: ["btb", "core", "trace", "uarch", "workloads"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            exclude: Vec::new(),
            allows: BTreeMap::new(),
            registries: Vec::new(),
            hotpath: Vec::new(),
        }
    }
}

impl Config {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config {
            deterministic_crates: Vec::new(),
            exclude: Vec::new(),
            allows: BTreeMap::new(),
            registries: Vec::new(),
            hotpath: Vec::new(),
        };
        let lines: Vec<&str> = text.lines().collect();
        let mut section = String::new();
        let mut i = 0usize;
        while i < lines.len() {
            let lineno = i + 1;
            let line = strip_comment(lines[i]).trim().to_owned();
            i += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                section = name.trim().to_owned();
                if section.is_empty() {
                    return Err(format!("simlint.toml:{lineno}: empty section header"));
                }
                if let Some(id) = section
                    .strip_prefix("registry.")
                    .filter(|rest| !rest.contains('.'))
                {
                    if cfg.registry_mut(id).is_none() {
                        cfg.registries.push(Registry {
                            id: id.to_owned(),
                            line: lineno,
                            ..Registry::default()
                        });
                    }
                }
                continue;
            }
            let Some((key, value)) = split_key_value(&line) else {
                return Err(format!("simlint.toml:{lineno}: expected `key = value`"));
            };
            // Multi-line arrays: `key = [` on one line, one quoted element
            // per following line, closed by `]`. Elements keep their own
            // line numbers.
            let mut elems: Vec<(String, usize)> = Vec::new();
            let list_value = if value.starts_with('[') && !value.ends_with(']') {
                let mut open = value.clone();
                loop {
                    let Some(raw) = lines.get(i) else {
                        return Err(format!("simlint.toml:{lineno}: unterminated array"));
                    };
                    let el_lineno = i + 1;
                    let el = strip_comment(raw).trim().to_owned();
                    i += 1;
                    for part in el.split(',') {
                        let part = part.trim().trim_end_matches(']').trim();
                        if part.starts_with('"') {
                            elems.push((parse_string(part)?, el_lineno));
                        }
                    }
                    open.push_str(&el);
                    if el.ends_with(']') {
                        break;
                    }
                }
                Some(open)
            } else if value.starts_with('[') {
                for part in value[1..value.len() - 1].split(',') {
                    let part = part.trim();
                    if part.starts_with('"') {
                        elems.push((parse_string(part)?, lineno));
                    }
                }
                Some(value.clone())
            } else {
                None
            };
            let string_list = || -> Result<Vec<String>, String> {
                if list_value.is_none() {
                    return Err(format!(
                        "simlint.toml:{lineno}: expected a string array, got `{value}`"
                    ));
                }
                Ok(elems.iter().map(|(s, _)| s.clone()).collect())
            };
            match section.as_str() {
                "deterministic" if key == "crates" => {
                    cfg.deterministic_crates = string_list()?;
                }
                "exclude" if key == "paths" => {
                    cfg.exclude = string_list()?;
                }
                "hotpath" if key == "functions" => {
                    if list_value.is_none() {
                        return Err(format!(
                            "simlint.toml:{lineno}: expected a string array, got `{value}`"
                        ));
                    }
                    for (el, el_line) in &elems {
                        let (path, func) = split_item_ref(el).ok_or_else(|| {
                            format!(
                                "simlint.toml:{el_line}: hotpath entry `{el}` must be \
                                 `path#function`"
                            )
                        })?;
                        cfg.hotpath.push(HotPathFn {
                            path,
                            func,
                            line: *el_line,
                        });
                    }
                }
                s if s.starts_with("allow.") => {
                    let rule = s["allow.".len()..].to_owned();
                    let reason =
                        parse_string(&value).map_err(|e| format!("simlint.toml:{lineno}: {e}"))?;
                    if reason.trim().is_empty() {
                        return Err(format!(
                            "simlint.toml:{lineno}: allow for {rule} at `{key}` has an \
                             empty reason; every suppression must be justified"
                        ));
                    }
                    cfg.allows.entry(rule).or_default().push(PathAllow {
                        path: key,
                        reason,
                        line: lineno,
                    });
                }
                s if s.starts_with("registry.") && s.ends_with(".exempt") => {
                    let id = s["registry.".len()..s.len() - ".exempt".len()].to_owned();
                    let reason =
                        parse_string(&value).map_err(|e| format!("simlint.toml:{lineno}: {e}"))?;
                    if reason.trim().is_empty() {
                        return Err(format!(
                            "simlint.toml:{lineno}: exempt `{key}` has an empty reason"
                        ));
                    }
                    let Some(reg) = cfg.registry_mut(&id) else {
                        return Err(format!(
                            "simlint.toml:{lineno}: exempt for unknown registry `{id}` \
                             (declare [registry.{id}] first)"
                        ));
                    };
                    reg.exempt.push(RegistryExempt {
                        name: key.to_lowercase(),
                        reason,
                        line: lineno,
                    });
                }
                s if s.starts_with("registry.") => {
                    let id = s["registry.".len()..].to_owned();
                    match key.as_str() {
                        "tests" | "figures" => {
                            let list = string_list()?;
                            // justified expect: the section header created it
                            let reg = cfg.registry_mut(&id).expect("registry exists");
                            if key == "tests" {
                                reg.tests = list;
                            } else {
                                reg.figures = list;
                            }
                        }
                        "table" => {
                            let raw = parse_string(&value)
                                .map_err(|e| format!("simlint.toml:{lineno}: {e}"))?;
                            let (path, item) = split_item_ref(&raw).ok_or_else(|| {
                                format!(
                                    "simlint.toml:{lineno}: `{key}` must be `path#item`, \
                                     got `{raw}`"
                                )
                            })?;
                            // justified expect: the section header created it
                            let reg = cfg.registry_mut(&id).expect("registry exists");
                            reg.table = Some(ItemRef { path, item });
                        }
                        other => {
                            return Err(format!(
                                "simlint.toml:{lineno}: unknown registry key `{other}`"
                            ));
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "simlint.toml:{lineno}: unknown key `{key}` in section `[{other}]`"
                    ));
                }
            }
        }
        Ok(cfg)
    }

    fn registry_mut(&mut self, id: &str) -> Option<&mut Registry> {
        self.registries.iter_mut().find(|r| r.id == id)
    }

    /// Whether `rel_path` lives in a deterministic crate (`crates/<name>/…`).
    pub fn is_deterministic(&self, rel_path: &str) -> bool {
        self.deterministic_crates
            .iter()
            .any(|c| rel_path.starts_with(&format!("crates/{c}/")))
    }

    /// Whether `rel_path` is excluded from linting entirely.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_prefix(rel_path, p))
    }

    /// Whether the central allowlist exempts `rel_path` from `rule`.
    pub fn is_path_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.allows
            .get(rule)
            .is_some_and(|list| list.iter().any(|a| path_prefix(rel_path, &a.path)))
    }
}

/// Prefix match on path components: `crates/bench` covers
/// `crates/bench/src/grid.rs` but not `crates/bench2/...`; exact file
/// paths match themselves.
pub(crate) fn path_prefix(rel_path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    rel_path == prefix
        || rel_path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Splits a `"path#item"` reference.
fn split_item_ref(s: &str) -> Option<(String, String)> {
    let (path, item) = s.split_once('#')?;
    if path.is_empty() || item.is_empty() {
        return None;
    }
    Some((path.to_owned(), item.to_owned()))
}

/// Drops a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = in_str && c == '\\' && !prev_escape;
    }
    line
}

/// Splits `key = value`, unquoting the key if it is a string literal.
fn split_key_value(line: &str) -> Option<(String, String)> {
    let eq = if let Some(rest) = line.strip_prefix('"') {
        // Quoted key: find the `=` after the closing quote.
        let close = rest.find('"')? + 1;
        close + line[close..].find('=')?
    } else {
        line.find('=')?
    };
    let key_raw = line[..eq].trim();
    let value = line[eq + 1..].trim().to_owned();
    let key = if key_raw.starts_with('"') && key_raw.ends_with('"') && key_raw.len() >= 2 {
        key_raw[1..key_raw.len() - 1].to_owned()
    } else {
        key_raw.to_owned()
    };
    if key.is_empty() || value.is_empty() {
        return None;
    }
    Some((key, value))
}

/// Parses a double-quoted string value (no escape support needed for
/// paths and prose reasons, but `\"` is handled).
fn parse_string(value: &str) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))?;
    Ok(inner.replace("\\\"", "\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# central suppressions
[deterministic]
crates = ["btb", "core"]

[exclude]
paths = ["crates/simlint/tests/fixtures"]

[allow.D02]
"crates/sim-support/src/bench.rs" = "bench harness measures wall-clock by design"
[allow.D03]
"crates/sim-support/src/pool.rs" = "the deterministic thread pool is the one concurrency site"
"#;

    #[test]
    fn parses_sections_and_scopes() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.deterministic_crates, vec!["btb", "core"]);
        assert!(cfg.is_deterministic("crates/btb/src/lib.rs"));
        assert!(!cfg.is_deterministic("crates/bench/src/grid.rs"));
        assert!(cfg.is_excluded("crates/simlint/tests/fixtures/d01_hit.rs"));
        assert!(!cfg.is_excluded("crates/simlint/tests/rules.rs"));
        assert!(cfg.is_path_allowed("D02", "crates/sim-support/src/bench.rs"));
        assert!(!cfg.is_path_allowed("D02", "crates/sim-support/src/pool.rs"));
        assert!(cfg.is_path_allowed("D03", "crates/sim-support/src/pool.rs"));
    }

    #[test]
    fn allow_entries_record_their_lines() {
        let cfg = Config::parse(SAMPLE).unwrap();
        let d02 = &cfg.allows["D02"][0];
        assert_eq!(d02.line, 10, "1-based line of the entry");
    }

    #[test]
    fn registry_sections_parse() {
        let toml = r#"
[registry.zoo]
table = "crates/core/src/policy_kind.rs#policies"
tests = ["tests/storage_differential.rs", "tests/policy_differential.rs"]
figures = ["crates/bench/src/figures"]

[registry.zoo.exempt]
"random" = "not plotted"
"#;
        let cfg = Config::parse(toml).unwrap();
        assert_eq!(cfg.registries.len(), 1);
        let reg = &cfg.registries[0];
        assert_eq!(reg.id, "zoo");
        assert_eq!(
            reg.table,
            Some(ItemRef {
                path: "crates/core/src/policy_kind.rs".into(),
                item: "policies".into()
            })
        );
        assert_eq!(reg.tests.len(), 2);
        assert_eq!(reg.exempt[0].name, "random");
        assert!(reg.exempt[0].line > 0);
    }

    #[test]
    fn hotpath_multiline_array_keeps_entry_lines() {
        let toml = "[hotpath]\nfunctions = [\n    \"crates/btb/src/storage.rs#find\",\n    \"crates/btb/src/policies#choose_victim\",\n]\n";
        let cfg = Config::parse(toml).unwrap();
        assert_eq!(cfg.hotpath.len(), 2);
        assert_eq!(cfg.hotpath[0].path, "crates/btb/src/storage.rs");
        assert_eq!(cfg.hotpath[0].func, "find");
        assert_eq!(cfg.hotpath[0].line, 3);
        assert_eq!(cfg.hotpath[1].line, 4);
    }

    #[test]
    fn malformed_item_refs_are_rejected() {
        assert!(Config::parse("[registry.z]\ntable = \"no-hash\"\n").is_err());
        assert!(Config::parse("[hotpath]\nfunctions = [\"no-hash\"]\n").is_err());
        assert!(Config::parse("[registry.z.exempt]\n\"x\" = \"r\"\n").is_err());
    }

    #[test]
    fn empty_reason_is_rejected() {
        let bad = "[allow.D01]\n\"crates/x/src/a.rs\" = \"\"\n";
        let err = Config::parse(bad).unwrap_err();
        assert!(err.contains("empty reason"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(Config::parse("[deterministic]\nfoo = \"bar\"\n").is_err());
        assert!(Config::parse("nosection = 1\n").is_err());
    }

    #[test]
    fn prefix_matching_respects_components() {
        assert!(path_prefix("crates/bench/src/grid.rs", "crates/bench"));
        assert!(!path_prefix("crates/bench2/src/grid.rs", "crates/bench"));
        assert!(path_prefix("tests/a.rs", "tests/a.rs"));
    }

    #[test]
    fn default_matches_repo_contract() {
        let cfg = Config::default();
        for c in ["btb", "core", "trace", "uarch", "workloads"] {
            assert!(
                cfg.is_deterministic(&format!("crates/{c}/src/lib.rs")),
                "{c}"
            );
        }
        assert!(!cfg.is_deterministic("crates/sim-support/src/pool.rs"));
        assert!(!cfg.is_deterministic("crates/bench/src/grid.rs"));
    }
}
