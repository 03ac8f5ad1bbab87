//! Shared command-line parsing for the uve-bench binaries.
//!
//! Each binary names the flags it accepts in a [`Usage`]; [`Cli::parse`]
//! checks the process arguments against it. An unknown flag, a value flag
//! without its value, a malformed value or one positional argument too
//! many is a usage error: the process prints what was wrong and exits
//! with code 2 ([`usage_error`]), rather than running with a default.

/// The flags and positional arguments one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Usage<'a> {
    /// Flags that take no value (`--quiet`).
    pub switches: &'a [&'a str],
    /// Flags that take one value (`--jobs N`).
    pub values: &'a [&'a str],
    /// The most positional (non-flag) arguments accepted.
    pub positional: usize,
}

/// Parsed command line: the switches present, each value flag's value,
/// and the positional arguments in order.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Cli {
    /// Parses the process arguments (without the program name) against
    /// `usage`, exiting with code 2 on a usage error.
    pub fn parse(usage: &Usage<'_>) -> Self {
        Self::try_parse(std::env::args().skip(1), usage).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `args` against `usage`.
    ///
    /// # Errors
    ///
    /// Names the first argument `usage` does not accept: an unknown flag,
    /// a value flag followed by nothing or by another flag, or a
    /// positional argument past `usage.positional`.
    fn try_parse(
        args: impl IntoIterator<Item = String>,
        usage: &Usage<'_>,
    ) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if usage.switches.contains(&arg.as_str()) {
                cli.switches.push(arg);
            } else if usage.values.contains(&arg.as_str()) {
                match args.next() {
                    Some(value) if !value.starts_with('-') => cli.values.push((arg, value)),
                    _ => return Err(format!("{arg} needs a value")),
                }
            } else if arg.starts_with('-') {
                let accepted: Vec<&str> =
                    usage.switches.iter().chain(usage.values).copied().collect();
                return Err(format!(
                    "unknown flag {arg}; accepted: {}",
                    accepted.join(" ")
                ));
            } else if cli.positional.len() < usage.positional {
                cli.positional.push(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(cli)
    }

    /// `true` if the switch (e.g. `--quiet`) is present.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|a| a == flag)
    }

    /// The value of `flag` (e.g. `--out FILE`), if present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// [`Cli::value`] parsed into `T`; `None` if the flag is absent. A
    /// value that does not parse is a usage error naming the flag.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| parse_or_exit(flag, v))
    }

    /// [`Cli::list`] with every entry parsed as [`Cli::parsed`] parses.
    pub fn parsed_list<T: std::str::FromStr>(&self, flag: &str) -> Vec<T> {
        self.list(flag)
            .iter()
            .map(|v| parse_or_exit(flag, v))
            .collect()
    }

    /// The positional (non-flag) arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A comma-separated list value (`--kernels a,b,c`), empty when the
    /// flag is absent.
    pub fn list(&self, flag: &str) -> Vec<String> {
        self.value(flag)
            .map(|v| {
                v.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Prints `message` to stderr and exits with code 2, the usage-error code.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad {flag} value {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: Usage<'static> = Usage {
        switches: &["--quiet", "--serial"],
        values: &["--jobs", "--timeout", "--check-every", "--cores", "--out"],
        positional: 1,
    };

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::try_parse(args.iter().map(|s| (*s).to_string()), &USAGE)
    }

    #[test]
    fn flags_and_values() {
        let c = cli(&["--jobs", "4", "--quiet", "saxpy", "--out", "x.json"]).unwrap();
        assert!(c.has("--quiet"));
        assert!(!c.has("--serial"));
        assert_eq!(c.value("--out"), Some("x.json"));
        assert_eq!(c.parsed::<usize>("--jobs"), Some(4));
        assert_eq!(c.parsed::<usize>("--timeout"), None);
        assert_eq!(c.positional(), ["saxpy"]);
    }

    #[test]
    fn arguments_outside_the_usage_are_errors() {
        for (args, error) in [
            (&["--jbos", "4"][..], "unknown flag --jbos"),
            (&["--out"], "--out needs a value"),
            (&["--out", "--quiet"], "--out needs a value"),
            (&["a", "b"], "unexpected argument \"b\""),
        ] {
            let e = cli(args).unwrap_err();
            assert!(e.starts_with(error), "{args:?}: {e}");
        }
    }

    /// Runs in a child copy of this test binary with `UVE_CLI_ARGS` set:
    /// parses the arguments the way the binaries do, then exits 0.
    /// Arguments starting with `figures` are parsed as the `figures`
    /// binary parses them, plan included.
    #[test]
    fn usage_errors_exit_2() {
        const NAME: &str = "cli::tests::usage_errors_exit_2";
        if let Ok(args) = std::env::var("UVE_CLI_ARGS") {
            let args: Vec<String> = args.split(' ').map(str::to_string).collect();
            if args[0] == "figures" {
                let usage = crate::figures::USAGE;
                let parsed = Cli::try_parse(args[1..].iter().cloned(), &usage)
                    .unwrap_or_else(|e| usage_error(&e));
                crate::figures::plan(&parsed);
            } else {
                let c = Cli::try_parse(args.iter().cloned(), &USAGE)
                    .unwrap_or_else(|e| usage_error(&e));
                if args[0] == "--cores" {
                    c.parsed_list::<u64>(&args[0]);
                } else {
                    c.parsed::<u64>(&args[0]);
                }
            }
            std::process::exit(0);
        }
        for (args, code, message) in [
            ("--jobs x", 2, "bad --jobs value"),
            ("--timeout x", 2, "bad --timeout value"),
            ("--check-every 6k", 2, "bad --check-every value"),
            ("--check-every 64", 0, ""),
            ("--cores 1,x", 2, "bad --cores value"),
            ("--cores 1,2", 0, ""),
            ("--jobs 4 --jbos 4", 2, "unknown flag --jbos"),
            ("--jobs", 2, "--jobs needs a value"),
            ("figures fig9 --jbos 4", 2, "unknown flag --jbos"),
            ("figures dsp --json", 2, "--json needs a value"),
            ("figures fig8 --panel", 2, "--panel needs a value"),
            ("figures fig8 --panel z", 2, "unknown panel \"z\""),
            ("figures fig12", 2, "unknown figure \"fig12\""),
            ("figures fig8 fig9 --panel b", 0, ""),
        ] {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME, "--nocapture", "--test-threads", "1"])
                .env("UVE_CLI_ARGS", args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{args}: {stderr}");
            if code == 2 {
                assert!(stderr.contains(message), "{args}: {stderr}");
            }
        }
    }

    #[test]
    fn lists_split_on_commas() {
        let c = cli(&["--out", "a,b,c", "--cores", "1,2,4"]).unwrap();
        assert_eq!(c.list("--out"), vec!["a", "b", "c"]);
        assert_eq!(c.list("--cores"), vec!["1", "2", "4"]);
        assert!(c.list("--jobs").is_empty());
    }
}
