//! Pass 1 of the cross-file analysis: a per-file item index built from the
//! token stream ([`crate::tokens`]), aggregated into a workspace index.
//!
//! The extractor is syntactic and forgiving — it recognizes exactly the
//! shapes the registry and hot-path rules consume:
//!
//! * `name! { "member" => Variant(Type) …, … }` — rows of a table-macro
//!   invocation (the registry's `table` leg, e.g. `policies!`),
//! * `fn name(…) { … }` definitions with their body line/token span,
//!   skipping anything inside a `mod tests { … }` block,
//! * the set of all identifiers and (lowercased) string literals in the
//!   file (the reference legs).

use crate::tokens::{TokKind, Token};
use std::collections::BTreeSet;

/// One `"member" => Variant(Type)` row of a table-macro invocation.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// The member's canonical (string) name.
    pub name: String,
    pub variant: String,
    /// First identifier inside the variant's payload (`Lru` in
    /// `Lru(Lru)`, `ThermometerPolicy` in `Thermometer(ThermometerPolicy)`).
    pub payload: String,
    pub line: usize,
}

/// A `name! { … }` macro invocation and the table rows inside it.
#[derive(Clone, Debug)]
pub struct Table {
    pub name: String,
    pub rows: Vec<TableRow>,
}

/// A function definition and its extent.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Last line of the body.
    pub end_line: usize,
    /// Line holding the body's opening `{` (where the self-check inserts
    /// its seeded statements).
    pub body_open_line: usize,
    /// Token index range `[start, end]` from the `fn` keyword to the
    /// closing brace, inclusive.
    pub tok_range: (usize, usize),
    /// Whether the definition sits inside a `mod tests { … }` block.
    pub in_tests: bool,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileIndex {
    pub tokens: Vec<Token>,
    pub tables: Vec<Table>,
    pub fns: Vec<FnDef>,
    /// Every identifier in the file (including test modules: a policy
    /// exercised only from `#[cfg(test)]` code still counts as exercised).
    pub idents: BTreeSet<String>,
    /// Every string-literal value, lowercased (figure column headers use
    /// display case: `"SRRIP"`, `"Hawkeye"`).
    pub strings_lower: BTreeSet<String>,
}

impl FileIndex {
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Non-test function definitions named `name`.
    pub fn fns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FnDef> {
        self.fns
            .iter()
            .filter(move |f| f.name == name && !f.in_tests)
    }
}

/// The whole workspace, keyed by forward-slash relative path, in walk
/// (sorted) order.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceIndex {
    pub files: Vec<(String, FileIndex)>,
}

impl WorkspaceIndex {
    pub fn file(&self, rel: &str) -> Option<&FileIndex> {
        self.files
            .iter()
            .find(|(r, _)| r == rel)
            .map(|(_, idx)| idx)
    }
}

/// Indexes one file from its (comment-free) token stream.
pub fn index_file(tokens: Vec<Token>) -> FileIndex {
    let n = tokens.len();
    let mut idx = FileIndex::default();

    for t in &tokens {
        match t.kind {
            TokKind::Ident => {
                idx.idents.insert(t.text.clone());
            }
            TokKind::Str => {
                idx.strings_lower.insert(t.text.to_lowercase());
            }
            _ => {}
        }
    }

    // `mod tests { … }` spans, so fn extraction can skip them.
    let test_spans = test_mod_spans(&tokens);
    let in_tests = |i: usize| test_spans.iter().any(|&(a, b)| i > a && i < b);

    let mut i = 0usize;
    while i < n {
        let t = &tokens[i];
        if t.kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            if let Some(table) = parse_table(&tokens, i) {
                idx.tables.push(table);
            }
        } else if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if let Some(f) = parse_fn(&tokens, i, in_tests(i)) {
                idx.fns.push(f);
            }
        }
        i += 1;
    }

    idx.tokens = tokens;
    idx
}

/// Finds the token spans of `mod tests { … }` blocks (the repo convention
/// for unit-test modules).
fn test_mod_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            if let Some(close) = matching_brace(tokens, i + 2) {
                spans.push((i + 2, close));
            }
        }
    }
    spans
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `name! { … }`, collecting its `"member" => Variant(Type …` rows.
/// Returns `None` when the braces hold no such row.
fn parse_table(tokens: &[Token], at: usize) -> Option<Table> {
    let close = matching_brace(tokens, at + 2)?;
    let is_ident = |k: usize| tokens[k].kind == TokKind::Ident;
    let rows: Vec<TableRow> = (at + 3..close.saturating_sub(5))
        .filter(|&k| {
            tokens[k].kind == TokKind::Str
                && tokens[k + 1].is_punct('=')
                && tokens[k + 2].is_punct('>')
                && is_ident(k + 3)
                && tokens[k + 4].is_punct('(')
                && is_ident(k + 5)
        })
        .map(|k| TableRow {
            name: tokens[k].text.clone(),
            variant: tokens[k + 3].text.clone(),
            payload: tokens[k + 5].text.clone(),
            line: tokens[k].line,
        })
        .collect();
    (!rows.is_empty()).then(|| Table {
        name: tokens[at].text.clone(),
        rows,
    })
}

/// `fn name … { … }`. Returns `None` for bodyless declarations (trait
/// methods, extern fns).
fn parse_fn(tokens: &[Token], at: usize, in_tests: bool) -> Option<FnDef> {
    let name_tok = &tokens[at + 1];
    // The body `{` is the first one at zero paren/bracket/angle-free
    // nesting after the signature; a `;` first means no body.
    let mut j = at + 2;
    let mut paren = 0isize;
    let mut bracket = 0isize;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') if paren == 0 && bracket == 0 => break,
            TokKind::Punct(';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let close = matching_brace(tokens, j)?;
    Some(FnDef {
        name: name_tok.text.clone(),
        line: name_tok.line,
        end_line: tokens[close].line,
        body_open_line: tokens[j].line,
        tok_range: (at, close),
        in_tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    const SRC: &str = r#"
macro_rules! zoo {
    ($($name:literal => $variant:ident($ty:ty) = $ctor:expr;)*) => {};
}

zoo! {
    /// docs
    "lru" => Lru(Lru) = Lru::new();
    "opt" => Opt(BeladyOpt) = BeladyOpt::new();
}

fn hot(xs: &[u64]) -> u64 {
    xs[0]
}

mod tests {
    fn helper() {}
}
"#;

    #[test]
    fn table_rows_with_payloads_and_lines() {
        let idx = index_file(tokenize(SRC).tokens);
        assert_eq!(
            idx.tables.len(),
            1,
            "the macro_rules! definition is no table"
        );
        let t = idx.table("zoo").expect("zoo indexed");
        let rows: Vec<_> = t
            .rows
            .iter()
            .map(|r| {
                (
                    r.name.as_str(),
                    r.variant.as_str(),
                    r.payload.as_str(),
                    r.line,
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![("lru", "Lru", "Lru", 8), ("opt", "Opt", "BeladyOpt", 9)]
        );
    }

    #[test]
    fn fns_and_test_mods() {
        let idx = index_file(tokenize(SRC).tokens);
        let hot = idx.fns_named("hot").next().expect("hot indexed");
        assert!(hot.body_open_line > 0 && hot.end_line > hot.body_open_line);
        assert!(idx.fns_named("helper").next().is_none(), "tests skipped");
        assert!(idx.fns.iter().any(|f| f.name == "helper" && f.in_tests));
        assert!(idx.idents.contains("Lru"));
        assert!(idx.strings_lower.contains("lru"));
    }
}
