//! simlint's one lexer.
//!
//! A single pass over a Rust source yields two things. The first is the
//! comment-free token stream the item index ([`crate::index`]) matches
//! on: identifiers, string-literal values, numbers, lifetimes, and
//! single-character punctuation, each carrying its 1-based source line.
//! Multi-character operators arrive as adjacent punctuation tokens (`::`
//! is `':' ':'`, `=>` is `'=' '>'`), which is what the indexer's patterns
//! expect. The second is the file's comments, kept beside the tokens.
//! Every token and comment carries its char span, and [`crate::scan`]
//! derives the per-line code/comment view from the literal and comment
//! spans. This is deliberately not a full lexer: it understands exactly
//! what the rules need:
//!
//! * line comments (`//`, and the doc forms `///` / `//!`),
//! * nested block comments (`/* /* */ */`),
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`),
//!   byte-string variants (`b"…"`, `br#"…"#`),
//! * char literals vs. lifetimes (`'a'` is a literal, `'env` is not).

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `PolicyKind`, `lru`).
    Ident,
    /// A string or byte-string literal; the token text is the *inner*
    /// value with escape sequences left as written (`\n` stays two chars —
    /// the registry names this feeds on never use escapes).
    Str,
    /// A char literal (`'a'`, `'\n'`); value not preserved.
    Char,
    /// A lifetime (`'a`, `'static`); text is the name without the quote.
    Lifetime,
    /// A numeric literal (`12`, `0x5eed`, `1_000u64`).
    Num,
    /// One punctuation character.
    Punct(char),
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    /// Ident/lifetime name, string value, or number text; empty for
    /// `Char` and `Punct`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Char offsets `[start, end)` of the whole token, a literal's prefix
    /// and quotes included.
    pub span: (usize, usize),
}

impl Token {
    /// Whether this is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One line comment or one whole (possibly nested) block comment.
#[derive(Clone, Debug)]
pub struct Comment {
    /// The text without the `//` or the outer `/*` … `*/`. A nested block
    /// keeps its inner `/*` but not its inner `*/`; a block comment's
    /// newlines stay in the text.
    pub text: String,
    /// Whether a line comment opens with `///` or `//!` (so `////` counts
    /// too); block comments never do.
    pub doc: bool,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Char offsets `[start, end)`, markers included.
    pub span: (usize, usize),
}

/// A lexed file: its tokens and, apart from them, its comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lexes `source`. Never fails: anything unrecognized becomes
/// punctuation, which the indexer ignores.
pub fn tokenize(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < n {
        let (start, start_line) = (i, line);
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let (kind, text) = match c {
            '\n' => {
                line += 1;
                i += 1;
                continue;
            }
            c if c.is_whitespace() => {
                i += 1;
                continue;
            }
            '/' if next == Some('/') => {
                // Line comment: runs to the end of the line.
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: chars[start + 2..i].iter().collect(),
                    doc: matches!(chars.get(start + 2), Some('/' | '!')),
                    line,
                    span: (start, i),
                });
                continue;
            }
            '/' if next == Some('*') => {
                let mut text = String::new();
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    match (chars[i], chars.get(i + 1)) {
                        ('/', Some('*')) => {
                            depth += 1;
                            text.push_str("/*");
                            i += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        (c, _) => {
                            if c == '\n' {
                                line += 1;
                            }
                            text.push(c);
                            i += 1;
                        }
                    }
                }
                out.comments.push(Comment {
                    text,
                    doc: false,
                    line: start_line,
                    span: (start, i),
                });
                continue;
            }
            '"' => {
                let (value, end, endline) = read_string(&chars, i + 1, line);
                line = endline;
                i = end;
                (TokKind::Str, value)
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                let mut j = i + 1;
                if c == 'b' && chars.get(j) == Some(&'r') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                let (value, end, endline) = if c == 'b' && j == i + 1 {
                    // Plain byte string b"…": ordinary escapes.
                    read_string(&chars, j + 1, line)
                } else {
                    read_raw_string(&chars, j + 1, hashes, line)
                };
                line = endline;
                i = end;
                (TokKind::Str, value)
            }
            '\'' => {
                // Char literal vs lifetime: `'\…'` and `'x'` are literals,
                // `'ident` is a lifetime.
                let char_end = if next == Some('\\') {
                    // Past the backslash and the escaped char.
                    let mut j = (i + 3).min(n);
                    while j < n && chars[j] != '\'' {
                        j += 1;
                    }
                    Some((j + 1).min(n))
                } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                    Some(i + 3)
                } else {
                    None
                };
                if let Some(end) = char_end {
                    // Only invalid Rust puts a newline here, but the
                    // lines of everything after it must stay right.
                    line += chars[i..end].iter().filter(|&&c| c == '\n').count();
                    i = end;
                    (TokKind::Char, String::new())
                } else if next.is_some_and(is_ident_start) {
                    let (text, end) = read_ident(&chars, i + 1);
                    i = end;
                    (TokKind::Lifetime, text)
                } else {
                    i += 1;
                    (TokKind::Punct('\''), String::new())
                }
            }
            c if is_ident_start(c) => {
                let (text, end) = read_ident(&chars, i);
                i = end;
                (TokKind::Ident, text)
            }
            c if c.is_ascii_digit() => {
                // Digits plus suffix/base letters and separators; dots are
                // punctuation so ranges (`0..n`) stay intact.
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                (TokKind::Num, chars[start..i].iter().collect())
            }
            c => {
                i += 1;
                (TokKind::Punct(c), String::new())
            }
        };
        out.tokens.push(Token {
            kind,
            text,
            line: start_line,
            span: (start, i),
        });
    }
    out
}

/// Whether the `r`/`b` at `i` opens a raw or byte string rather than
/// starting an identifier (`row`, `base`).
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if chars[i] == 'b' && chars.get(j) == Some(&'r') {
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Reads a `"…"` body starting just past the opening quote. Returns
/// (value, index past closing quote, line after the literal).
fn read_string(chars: &[char], mut i: usize, mut line: usize) -> (String, usize, usize) {
    let n = chars.len();
    let mut value = String::new();
    while i < n {
        match chars[i] {
            '\\' => {
                value.push('\\');
                if let Some(&e) = chars.get(i + 1) {
                    if e == '\n' {
                        line += 1;
                    }
                    value.push(e);
                }
                i += 2;
            }
            '"' => return (value, i + 1, line),
            '\n' => {
                value.push('\n');
                line += 1;
                i += 1;
            }
            c => {
                value.push(c);
                i += 1;
            }
        }
    }
    (value, n, line)
}

/// Reads a raw string body (`r#"…"#` with `hashes` hashes) starting just
/// past the opening quote.
fn read_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    mut line: usize,
) -> (String, usize, usize) {
    let n = chars.len();
    let mut value = String::new();
    while i < n {
        if chars[i] == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
            return (value, i + 1 + hashes, line);
        }
        if chars[i] == '\n' {
            line += 1;
        }
        value.push(chars[i]);
        i += 1;
    }
    (value, n, line)
}

fn read_ident(chars: &[char], i: usize) -> (String, usize) {
    let mut j = i;
    while j < chars.len() && is_ident_continue(chars[j]) {
        j += 1;
    }
    (chars[i..j].iter().collect(), j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_strings_and_puncts() {
        let toks = kinds("const NAMES: [&str; 2] = [\"lru\", \"fifo\"];");
        assert!(toks.contains(&(TokKind::Ident, "NAMES".into())));
        assert!(toks.contains(&(TokKind::Str, "lru".into())));
        assert!(toks.contains(&(TokKind::Str, "fifo".into())));
        assert!(toks.contains(&(TokKind::Num, "2".into())));
    }

    #[test]
    fn comments_are_dropped_but_lines_advance() {
        let toks = tokenize("a // note\n/* block\nspans */ b\n").tokens;
        let idents: Vec<_> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(idents, vec![("a".to_owned(), 1), ("b".to_owned(), 3)]);
    }

    #[test]
    fn string_values_survive_with_lines() {
        let toks = tokenize("x\n\"keep me\"\ny").tokens;
        assert_eq!(toks[1].kind, TokKind::Str);
        assert_eq!(toks[1].text, "keep me");
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let a = r#"raw "quoted""#; let b = b"bytes"; let r = row;"##);
        assert!(toks.contains(&(TokKind::Str, "raw \"quoted\"".into())));
        assert!(toks.contains(&(TokKind::Str, "bytes".into())));
        assert!(toks.contains(&(TokKind::Ident, "row".into())));
    }

    #[test]
    fn chars_vs_lifetimes() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'q'; let y = '\\n'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Char).count(),
            2,
            "{toks:?}"
        );
        assert!(!toks.contains(&(TokKind::Ident, "q".into())));
    }

    #[test]
    fn lines_stay_right_after_multiline_raw_string() {
        let toks = tokenize("let a = r#\"x\n\"y\n\"#;\nq\n").tokens;
        let str_tok = toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("raw string");
        assert_eq!((str_tok.text.as_str(), str_tok.line), ("x\n\"y\n", 1));
        let q = toks.last().expect("q");
        assert!(q.is_ident("q"));
        assert_eq!(q.line, 4);
    }

    #[test]
    fn lines_stay_right_after_a_newline_inside_a_char_literal() {
        for src in ["'\\\n'; a\n// c\n", "'\n'; a\n// c\n"] {
            let lexed = tokenize(src);
            let a = lexed.tokens.iter().find(|t| t.is_ident("a")).expect("a");
            assert_eq!(a.line, 2, "{src:?}");
            assert_eq!(lexed.comments[0].line, 3, "{src:?}");
        }
    }

    #[test]
    fn arrow_and_path_arrive_as_adjacent_puncts() {
        let toks = tokenize("\"lru\" => Self::Lru(Lru::new()),").tokens;
        assert_eq!(toks[0].kind, TokKind::Str);
        assert!(toks[1].is_punct('='));
        assert!(toks[2].is_punct('>'));
        assert!(toks[3].is_ident("Self"));
        assert!(toks[4].is_punct(':'));
        assert!(toks[5].is_punct(':'));
        assert!(toks[6].is_ident("Lru"));
    }
}
