//! Shared command-line parsing for the figure binaries.
//!
//! Every binary under `src/bin` accepts the same core flags (`--jobs N`,
//! `--serial`, `--quiet`, `--explain`, `--timeout SECS`) plus a few
//! binary-specific ones; this module centralises the `--flag value`
//! scanning they previously each reimplemented. Unrecognized flags are
//! ignored, so binaries can layer their own on top of the
//! [`Runner`](crate::Runner) set.

/// Parsed command line: the raw argument list plus `--flag [value]`
/// accessors.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parses the process arguments (without the program name).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds a `Cli` from an explicit argument list (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        Self { args }
    }

    /// `true` if the boolean flag (e.g. `--quiet`) is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The argument following `flag` (e.g. `--out FILE`), if both exist.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// [`Cli::value`] parsed into `T`; `None` if the flag is absent. A
    /// value that does not parse is a usage error: the process exits with
    /// code 2 and names the flag, rather than falling back to a default.
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

    /// Positional (non-flag) arguments, skipping the values of the listed
    /// value-taking flags.
    pub fn free(&self, value_flags: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.args {
            if skip {
                skip = false;
                continue;
            }
            if value_flags.iter().any(|f| f == a) {
                skip = true;
                continue;
            }
            if !a.starts_with("--") {
                out.push(a.as_str());
            }
        }
        out
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

fn parse_or_exit<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad {flag} value {v:?}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_vec(args.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn flags_and_values() {
        let c = cli(&["--jobs", "4", "--quiet", "saxpy", "--out", "x.json"]);
        assert!(c.has("--quiet"));
        assert!(!c.has("--serial"));
        assert_eq!(c.value("--out"), Some("x.json"));
        assert_eq!(c.parsed::<usize>("--jobs"), Some(4));
        assert_eq!(c.parsed::<usize>("--timeout"), None);
        assert_eq!(c.free(&["--jobs", "--out"]), vec!["saxpy"]);
    }

    /// Runs in a child copy of this test binary with `UVE_CLI_ARGS` set:
    /// parses its first flag the way the binaries do, then exits 0.
    #[test]
    fn malformed_value_exits_2_naming_the_flag() {
        const NAME: &str = "cli::tests::malformed_value_exits_2_naming_the_flag";
        if let Ok(args) = std::env::var("UVE_CLI_ARGS") {
            let args: Vec<&str> = args.split(' ').collect();
            if args[0] == "--cores" {
                cli(&args).parsed_list::<u64>(args[0]);
            } else {
                cli(&args).parsed::<u64>(args[0]);
            }
            std::process::exit(0);
        }
        for (args, code) in [
            ("--jobs x", 2),
            ("--timeout x", 2),
            ("--check-every 6k", 2),
            ("--check-every 64", 0),
            ("--cores 1,x", 2),
            ("--cores 1,2", 0),
        ] {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME, "--nocapture", "--test-threads", "1"])
                .env("UVE_CLI_ARGS", args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{args}: {stderr}");
            let flag = args.split(' ').next().unwrap();
            assert_eq!(
                code == 2,
                stderr.contains(&format!("bad {flag} value")),
                "{stderr}"
            );
        }
    }

    #[test]
    fn lists_split_on_commas() {
        let c = cli(&["--kernels", "a,b,c", "--cores", "1,2,4"]);
        assert_eq!(c.list("--kernels"), vec!["a", "b", "c"]);
        assert_eq!(c.list("--cores"), vec!["1", "2", "4"]);
        assert!(c.list("--modes").is_empty());
    }

    #[test]
    fn missing_value_is_none() {
        let c = cli(&["--out"]);
        assert_eq!(c.value("--out"), None);
        assert!(c.free(&["--out"]).is_empty());
    }
}
