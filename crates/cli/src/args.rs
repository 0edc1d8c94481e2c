//! Minimal flag parser: `--key value`, `--flag`, and positionals, checked
//! against the arguments the subcommand declares it reads.

use std::collections::HashMap;

/// Arguments a subcommand (or a helper it calls) reads. A command's full
/// set is a list of these, so shared helpers declare theirs once.
pub struct Spec {
    /// Keys of `--key value` options.
    pub options: &'static [&'static str],
    /// Names of flags that take no value.
    pub flags: &'static [&'static str],
}

/// Parsed command-line arguments.
pub struct ArgParser {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
    specs: &'static [&'static Spec],
}

impl ArgParser {
    /// Splits raw arguments into options, bare flags and positionals.
    /// Any `--name` no spec in `specs` declares is an error naming it.
    pub fn new(argv: Vec<String>, specs: &'static [&'static Spec]) -> Result<Self, String> {
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            if specs.iter().any(|s| s.flags.contains(&name)) {
                flags.push(name.to_string());
            } else if specs.iter().any(|s| s.options.contains(&name)) {
                // A trailing option without value records empty; callers
                // report a good error via `require`.
                options.insert(name.to_string(), it.next().unwrap_or_default());
            } else {
                return Err(format!("unknown option '{arg}'"));
            }
        }
        Ok(ArgParser {
            options,
            flags,
            positionals,
            specs,
        })
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.specs.iter().any(|s| s.options.contains(&key)),
            "--{key} is read but not declared"
        );
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// An optional f64 option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// A required f64 option.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.require(key)?
            .parse()
            .map_err(|e| format!("--{key}: {e}"))
    }

    /// An optional u64 option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// Whether the bare flag `--flag` was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        debug_assert!(
            self.specs.iter().any(|s| s.flags.contains(&flag)),
            "--{flag} is read but not declared"
        );
        self.flags.iter().any(|f| f == flag)
    }

    /// The positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        options: &["seed", "thresh", "radius", "out", "data-dir"],
        flags: &["noise"],
    };

    fn parse(args: &[&str]) -> Result<ArgParser, String> {
        ArgParser::new(args.iter().map(|s| s.to_string()).collect(), &[&SPEC])
    }

    #[test]
    fn options_flags_and_positionals() {
        let p = parse(&[
            "--seed", "7", "--noise", "a.csv", "b.csv", "--thresh", "0.5",
        ])
        .unwrap();
        assert_eq!(p.get("seed"), Some("7"));
        assert!(p.has_flag("noise"));
        assert_eq!(p.positionals(), &["a.csv".to_string(), "b.csv".to_string()]);
        assert_eq!(p.get_f64("thresh", 0.0).unwrap(), 0.5);
    }

    #[test]
    fn defaults_and_requirements() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.get_f64("thresh", 0.5).unwrap(), 0.5);
        assert_eq!(p.get_u64("seed", 42).unwrap(), 42);
        assert!(p.require("data-dir").is_err());
    }

    #[test]
    fn bad_numbers_error_with_key() {
        let p = parse(&["--radius", "abc"]).unwrap();
        let err = p.require_f64("radius").unwrap_err();
        assert!(err.contains("--radius"));
    }

    #[test]
    fn trailing_option_without_value() {
        let p = parse(&["--out"]).unwrap();
        assert!(p.get("out").is_none());
        assert!(p.require("out").is_err());
    }

    #[test]
    fn undeclared_options_and_flags_are_rejected_by_name() {
        let err = parse(&["--seed", "7", "--tolerence", "5"]).err().unwrap();
        assert!(err.contains("'--tolerence'"), "{err}");
        // A flag some other command reads is still unknown here.
        let err = parse(&["--coverage"]).err().unwrap();
        assert!(err.contains("'--coverage'"), "{err}");
        // Options are checked against the union of the given specs.
        const EXTRA: Spec = Spec {
            options: &["tolerance"],
            flags: &[],
        };
        let argv = vec!["--tolerance".to_string(), "5".to_string()];
        assert!(ArgParser::new(argv.clone(), &[&SPEC]).is_err());
        let p = ArgParser::new(argv, &[&SPEC, &EXTRA]).unwrap();
        assert_eq!(p.get_f64("tolerance", 10.0).unwrap(), 5.0);
    }
}
