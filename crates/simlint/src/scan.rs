//! The per-line view of a Rust source: code with comments and literal
//! contents blanked, and comment text apart, so rule matching never fires
//! inside a string, a char literal, or a comment.
//!
//! The view is derived from the lexer's output ([`crate::tokens`]), not
//! lexed again: every char inside a literal token's or a comment's span is
//! replaced by one space in [`Line::code`], so a rule hit's column points
//! at its source location. A blanked non-ASCII char counts as one column.

use crate::tokens::{tokenize, Lexed, TokKind};

/// One scanned source line.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line with comments and literal *contents* blanked to spaces
    /// (column-preserving). Rule matching happens on this.
    pub code: String,
    /// Concatenated text of every comment on this line (line comments and
    /// any block-comment portion), without the `//` / `/*` markers.
    pub comment: String,
    /// Whether the comment on this line is a doc comment (`///` or `//!`).
    pub doc_comment: bool,
}

impl Line {
    /// Whether the line holds no code at all (blank or comment-only).
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// Whether the line carries any comment text.
    pub fn has_comment(&self) -> bool {
        !self.comment.trim().is_empty()
    }
}

/// An in-source suppression: `// simlint: allow(D01, D03) -- reason`.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule ids named in the `allow(...)` list.
    pub rules: Vec<String>,
    /// Text after `--`; `None` when the author forgot the justification
    /// (which is itself a diagnostic, rule X01).
    pub reason: Option<String>,
}

/// A whole scanned file.
#[derive(Clone, Debug)]
pub struct Scanned {
    pub lines: Vec<Line>,
    pub suppressions: Vec<Suppression>,
}

impl Scanned {
    /// Whether a diagnostic of `rule` on 1-based `line` is suppressed by an
    /// in-source `simlint: allow`. A suppression covers its own line; a
    /// comment-only suppression line also covers the next line, so it can
    /// sit above the offending statement.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppression_covering(rule, line).is_some()
    }

    /// Index (into [`Scanned::suppressions`]) of the suppression covering a
    /// diagnostic of `rule` on 1-based `line`, if any. The engine uses the
    /// index to track which suppressions actually fired (rule X02).
    pub fn suppression_covering(&self, rule: &str, line: usize) -> Option<usize> {
        self.suppressions.iter().position(|s| {
            if !s.rules.iter().any(|r| r == rule) || s.reason.is_none() {
                return false;
            }
            if s.line == line {
                return true;
            }
            s.line + 1 == line && self.lines[s.line - 1].is_comment_only()
        })
    }

    /// Whether a `SAFETY:` comment covers 1-based `line`: on the line
    /// itself or in the contiguous comment block immediately above it.
    pub fn has_safety_comment(&self, line: usize) -> bool {
        let idx = line - 1;
        if self.lines[idx].comment.contains("SAFETY:") {
            return true;
        }
        let mut i = idx;
        while i > 0 && self.lines[i - 1].is_comment_only() && self.lines[i - 1].has_comment() {
            i -= 1;
            if self.lines[i].comment.contains("SAFETY:") {
                return true;
            }
        }
        false
    }
}

/// Derives the per-line view of `source` from its lexed form: every char
/// of a literal token or a comment becomes one space in [`Line::code`]
/// (newlines stay, so lines and columns keep their places), and each
/// comment's text goes to the lines it spans.
pub fn view(source: &str, lexed: &Lexed) -> Scanned {
    let mut code: Vec<char> = source.chars().collect();
    let literals = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokKind::Str | TokKind::Char))
        .map(|t| t.span);
    for (start, end) in literals.chain(lexed.comments.iter().map(|c| c.span)) {
        for c in code[start..end].iter_mut().filter(|c| **c != '\n') {
            *c = ' ';
        }
    }
    let mut lines: Vec<Line> = code
        .split(|&c| c == '\n')
        .map(|l| Line {
            code: l.iter().collect(),
            comment: String::new(),
            doc_comment: false,
        })
        .collect();
    for c in &lexed.comments {
        for (k, piece) in c.text.split('\n').enumerate() {
            lines[c.line - 1 + k].comment.push_str(piece);
        }
        lines[c.line - 1].doc_comment |= c.doc;
    }
    let suppressions = parse_suppressions(&lines);
    Scanned {
        lines,
        suppressions,
    }
}

/// Lexes `source` and derives its per-line view.
pub fn scan(source: &str) -> Scanned {
    view(source, &tokenize(source))
}

/// The marker in-source suppressions start with.
pub const ALLOW_MARKER: &str = "simlint: allow(";

fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Doc comments describe the suppression syntax, they do not use
        // it — otherwise every doc example would register as a (dead)
        // suppression under X02.
        if line.doc_comment {
            continue;
        }
        let Some(start) = line.comment.find(ALLOW_MARKER) else {
            continue;
        };
        let rest = &line.comment[start + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            out.push(Suppression {
                line: idx + 1,
                rules: Vec::new(),
                reason: None,
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = &rest[close + 1..];
        let reason = tail
            .find("--")
            .map(|dash| tail[dash + 2..].trim().to_owned());
        let reason = match reason {
            Some(r) if !r.is_empty() => Some(r),
            _ => None,
        };
        out.push(Suppression {
            line: idx + 1,
            rules,
            reason,
        });
    }
    out
}

/// Finds 0-based byte columns where `word` occurs in `code` delimited by
/// non-identifier characters on both sides (so `DetHashMap` never matches
/// `HashMap`).
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            cols.push(at);
        }
        from = at + word.len().max(1);
    }
    cols
}

/// Like [`find_word`] but only requires a word boundary on the left, for
/// prefix families such as `Atomic*` (`AtomicU64`, `AtomicBool`, …).
pub fn find_word_prefix(code: &str, prefix: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(prefix) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        if before_ok {
            cols.push(at);
        }
        from = at + prefix.len().max(1);
    }
    cols
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_separated_from_code() {
        let s = scan("let x = 1; // trailing note\n// full line\nlet y = 2;\n");
        assert!(s.lines[0].code.contains("let x = 1;"));
        assert!(!s.lines[0].code.contains("trailing"));
        assert_eq!(s.lines[0].comment.trim(), "trailing note");
        assert!(s.lines[1].is_comment_only());
        assert!(s.lines[2].code.contains("let y = 2;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let s = scan("let s = \"Instant::now() // not code\"; let t = 1;\n");
        assert!(!s.lines[0].code.contains("Instant"));
        assert!(!s.lines[0].code.contains("not code"));
        assert!(s.lines[0].code.contains("let t = 1;"));
        assert!(!s.lines[0].has_comment());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = scan("let a = r#\"Mutex \" inside\"#; let b = \"q\\\"uo\"; done()\n");
        assert!(!s.lines[0].code.contains("Mutex"));
        assert!(s.lines[0].code.contains("done()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = scan("fn f<'env>(c: char) { let x = 'a'; let y = '\\n'; g::<'env>() }\n");
        assert!(s.lines[0].code.contains("'env"));
        assert!(!s.lines[0].code.contains("'a'"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scan("a(); /* one /* two */ still */ b();\n/* open\nInstant\n*/ c();\n");
        assert!(s.lines[0].code.contains("a();"));
        assert!(s.lines[0].code.contains("b();"));
        assert!(!s.lines[0].code.contains("one"));
        assert!(!s.lines[2].code.contains("Instant"));
        assert!(s.lines[2].comment.contains("Instant"));
        assert!(s.lines[3].code.contains("c();"));
    }

    #[test]
    fn suppression_with_reason_parses() {
        let s = scan("use x::Mutex; // simlint: allow(D03, D02) -- test serialization lock\n");
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].rules, vec!["D03", "D02"]);
        assert_eq!(
            s.suppressions[0].reason.as_deref(),
            Some("test serialization lock")
        );
        assert!(s.is_suppressed("D03", 1));
        assert!(!s.is_suppressed("D01", 1));
    }

    #[test]
    fn suppression_without_reason_does_not_suppress() {
        let s = scan("use x::Mutex; // simlint: allow(D03)\n");
        assert_eq!(s.suppressions[0].reason, None);
        assert!(!s.is_suppressed("D03", 1));
    }

    #[test]
    fn doc_comment_examples_are_not_suppressions() {
        let s = scan(
            "/// In-source escape hatch: `// simlint: allow(D03) -- reason`.\nuse x::Mutex;\n",
        );
        assert!(s.suppressions.is_empty(), "{:?}", s.suppressions);
        let t = scan("//! // simlint: allow(D02) -- doc example\n");
        assert!(t.suppressions.is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let s = scan("// simlint: allow(D02) -- timing harness\nlet t = Instant::now();\n");
        assert!(s.is_suppressed("D02", 2));
        assert!(!s.is_suppressed("D02", 3));
    }

    #[test]
    fn safety_comment_block_is_found() {
        let src = "// SAFETY: the scope outlives\n// every borrow.\nlet j = unsafe { f() };\n";
        let s = scan(src);
        assert!(s.has_safety_comment(3));
        let t = scan("let j = unsafe { f() }; // SAFETY: inline\n");
        assert!(t.has_safety_comment(1));
        let u = scan("let j = unsafe { f() };\n");
        assert!(!u.has_safety_comment(1));
    }

    #[test]
    fn blanked_non_ascii_char_counts_one_column() {
        let src = "use std::collections::HashMap;\nlet s = \"é\"; let m: HashMap<u8, u8>;\n";
        let diags = crate::lint_source("crates/btb/src/f.rs", src, &crate::Config::default());
        let at: Vec<_> = diags.iter().map(|d| (d.rule, d.line, d.col)).collect();
        assert!(at.contains(&("D01", 2, 21)), "{diags:?}");
    }

    #[test]
    fn doc_comment_flags_and_text() {
        let s = scan("/// doc text\n//// four\n/** blockdoc simlint: allow(D01) -- r */\n");
        assert_eq!(s.lines[0].comment, "/ doc text");
        assert!(s.lines[0].doc_comment);
        assert_eq!(s.lines[1].comment, "// four");
        assert!(s.lines[1].doc_comment);
        assert!(!s.lines[2].doc_comment);
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].line, 3);
        assert_eq!(s.suppressions[0].rules, vec!["D01"]);
        assert_eq!(s.suppressions[0].reason.as_deref(), Some("r"));
    }

    #[test]
    fn nested_block_comment_keeps_inner_open_only() {
        let s = scan("a(); /* one /* two */ still */ b();\n");
        assert_eq!(s.lines[0].comment, " one /* two  still ");
        assert_eq!(s.lines[0].code, format!("a(); {} b();", " ".repeat(25)));
    }

    #[test]
    fn string_continuation_blanks_and_keeps_lines() {
        let s = scan("let s = \"ab\\\ncd\"; x();\ny();\n");
        assert_eq!(s.lines.len(), 4);
        assert_eq!(s.lines[0].code, "let s =     ");
        assert_eq!(s.lines[1].code, "   ; x();");
        assert_eq!(s.lines[2].code, "y();");
    }

    #[test]
    fn byte_char_and_raw_byte_string_blank_exactly() {
        let s = scan("let c = b'\"'; let r = br#\"Mutex\"#; y();\n");
        assert_eq!(s.lines[0].code, "let c = b   ; let r =            ; y();");
    }

    #[test]
    fn word_boundaries_exclude_det_variants() {
        assert_eq!(
            find_word("DetHashMap<u64, u8>", "HashMap"),
            Vec::<usize>::new()
        );
        assert_eq!(find_word("HashMap<u64, u8>", "HashMap"), vec![0]);
        assert_eq!(find_word("a HashMap b HashMapX", "HashMap"), vec![2]);
        assert_eq!(find_word_prefix("AtomicU64::new", "Atomic"), vec![0]);
        assert!(find_word_prefix("MyAtomicU64", "Atomic").is_empty());
    }
}
