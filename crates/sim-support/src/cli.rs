//! The command-line cursor the workspace binaries parse with (`simlint`
//! keeps its own: it does not depend on this crate). A [`Cursor`] yields
//! one flag or positional at a time and takes a flag's value; every error
//! names the flag, [`fail`] turns an error into exit 2 before any work,
//! and `--help`/`-h` prints the usage and exits 0 in every binary alike.

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over one binary's arguments; see the [module docs](self).
pub struct Cursor {
    args: std::vec::IntoIter<String>,
    current: String,
    usage: String,
}

impl Cursor {
    /// A cursor over `args` (without the program name); `usage` is what
    /// `--help` prints.
    pub fn new(args: impl IntoIterator<Item = String>, usage: impl Into<String>) -> Self {
        Cursor {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            current: String::new(),
            usage: usage.into(),
        }
    }

    /// Whether the argument [`Iterator::next`] yielded last is a flag.
    pub fn at_flag(&self) -> bool {
        self.current.len() > 1 && self.current.starts_with('-')
    }

    /// The value of the flag [`Iterator::next`] yielded last.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{} needs a value", self.current))
    }

    /// The value of the current flag, parsed.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| format!("bad value {value:?} for {}", self.current))
    }

    /// The value of the current flag, parsed and at least `min`.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&mut self, min: T) -> Result<T, String> {
        let value: T = self.parse()?;
        if value < min {
            return Err(format!("{} must be >= {min} (got {value})", self.current));
        }
        Ok(value)
    }

    /// The error for an argument the binary has no use for: an unknown
    /// flag or a stray positional.
    pub fn unexpected(&self) -> String {
        if self.at_flag() {
            format!("unknown flag {}", self.current)
        } else {
            format!("unexpected argument {:?}", self.current)
        }
    }
}

impl Iterator for Cursor {
    type Item = String;

    /// The next flag or positional argument. `--help` or `-h` prints the
    /// usage and exits 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            eprintln!("{}", self.usage);
            std::process::exit(0);
        }
        self.current.clone_from(&arg);
        Some(arg)
    }
}

/// Prints `error` and `usage` to stderr, then exits 2.
pub fn fail(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(args: &[&str]) -> Cursor {
        Cursor::new(args.iter().map(|s| s.to_string()), "usage")
    }

    #[test]
    fn every_error_names_the_flag() {
        let mut args = cursor(&["--ways", "x", "--entries", "0", "--policy"]);
        args.next();
        assert_eq!(
            args.parse::<usize>(),
            Err("bad value \"x\" for --ways".into())
        );
        args.next();
        assert_eq!(
            args.at_least(1usize),
            Err("--entries must be >= 1 (got 0)".into())
        );
        args.next();
        assert_eq!(args.value(), Err("--policy needs a value".into()));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn unexpected_tells_flags_from_positionals() {
        let mut args = cursor(&["--polcy", "lru", "-"]);
        args.next();
        assert!(args.at_flag());
        assert_eq!(args.unexpected(), "unknown flag --polcy");
        args.next();
        assert_eq!(args.unexpected(), "unexpected argument \"lru\"");
        args.next();
        assert!(!args.at_flag(), "a lone dash is a positional");
    }
}
