//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed positional arguments and `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pub options: HashMap<String, String>,
    pub flags: Vec<String>,
}

/// Splits `argv` into positionals, `--key value` options (when the next
/// token is not itself a flag) and bare `--flag`s.
pub fn parse(argv: &[String]) -> Args {
    let mut out = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let tok = &argv[i];
        if let Some(key) = tok.strip_prefix("--") {
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                out.options.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                out.flags.push(key.to_string());
                i += 1;
            }
        } else {
            out.positional.push(tok.clone());
            i += 1;
        }
    }
    out
}

impl Args {
    /// Option value, or an error naming the missing key.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Option value parsed as `T`, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad value for --{key}: {s}")),
        }
    }

    /// Option value parsed as `T`, with a default; a rejected value is
    /// reported in the parser's own words (which name the accepted ones).
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |s: &String| s.parse().map_err(|e: T::Err| e.to_string());
        self.options.get(key).map_or(Ok(default), parse)
    }

    /// Whether a bare flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Rejects anything the subcommand does not understand: every
    /// `--key value` must name one of `options` and every bare `--flag` one
    /// of `flags`. The error names the offending token, so a typo or a
    /// removed flag fails loudly instead of silently running the defaults.
    pub fn expect_only(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        for key in self.options.keys() {
            if flags.contains(&key.as_str()) {
                return Err(format!("flag --{key} takes no value"));
            }
            if !options.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
        }
        for flag in &self.flags {
            if options.contains(&flag.as_str()) {
                return Err(format!("option --{flag} needs a value"));
            }
            if !flags.contains(&flag.as_str()) {
                return Err(format!("unknown option --{flag}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&argv(&["cc", "g.mtx", "--algo", "lacc", "--flat"]));
        assert_eq!(a.positional, vec!["cc", "g.mtx"]);
        assert_eq!(a.require("algo").unwrap(), "lacc");
        assert!(a.has_flag("flat"));
    }

    #[test]
    fn get_or_parses_with_default() {
        let a = parse(&argv(&["--ranks", "16"]));
        assert_eq!(a.get_or("ranks", 4usize).unwrap(), 16);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert!(a.get_or::<usize>("ranks", 0).is_ok());
        let bad = parse(&argv(&["--ranks", "xyz"]));
        assert!(bad.get_or::<usize>("ranks", 0).is_err());
    }

    #[test]
    fn expect_only_names_the_offending_token() {
        let a = parse(&argv(&["cc-dist", "g.mtx", "--ranks", "4", "--flat"]));
        assert!(a.expect_only(&["ranks"], &["flat"]).is_ok());
        let err = a.expect_only(&["rank"], &["flat"]).unwrap_err();
        assert!(err.contains("--ranks"), "{err}");
        let err = a.expect_only(&["ranks"], &[]).unwrap_err();
        assert!(err.contains("--flat"), "{err}");
        // A value-taking option with its value missing, and a bare flag
        // that swallowed the next token, are errors too.
        let a = parse(&argv(&["cc-dist", "g.mtx", "--ranks"]));
        let err = a.expect_only(&["ranks"], &["flat"]).unwrap_err();
        assert!(err.contains("--ranks needs a value"), "{err}");
        let a = parse(&argv(&["cc-dist", "--flat", "g.mtx"]));
        let err = a.expect_only(&["ranks"], &["flat"]).unwrap_err();
        assert!(err.contains("--flat takes no value"), "{err}");
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&argv(&["stats", "--quiet"]));
        assert!(a.has_flag("quiet"));
        assert!(a.require("quiet").is_err());
    }
}
