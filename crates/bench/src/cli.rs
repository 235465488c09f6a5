//! Command-line plumbing shared by the harness binaries: one flag parser
//! and one report emitter.
//!
//! Exit codes are the same for every binary: 0 after `--help`, 2 for a
//! usage error or a failed write. (3, a failed self-check, is each
//! binary's own.)

use std::str::FromStr;

use icbtc::sim::obs::MetricsRegistry;

/// The arguments of one harness binary, read left to right.
///
/// A binary loops over [`Flags::next_flag`], matches each flag by name
/// and reads its value with [`Flags::value`]. `--help` / `-h` print the
/// usage text to stderr and exit 0. A missing or unparsable value, an
/// unknown argument ([`Flags::unknown`]) or a failed cross-flag check
/// ([`Flags::fail`]) print the error and the usage text and exit 2.
///
/// # Examples
///
/// ```
/// use icbtc_bench::cli::Flags;
///
/// let argv = ["--seed", "7", "--json"].map(String::from);
/// let mut flags = Flags::new("usage: demo [--seed N] [--json]", argv);
/// let (mut seed, mut json) = (42u64, false);
/// while let Some(flag) = flags.next_flag() {
///     match flag.as_str() {
///         "--seed" => seed = flags.value("a u64"),
///         "--json" => json = true,
///         other => flags.unknown(other),
///     }
/// }
/// assert_eq!((seed, json), (7, true));
/// ```
#[derive(Debug)]
pub struct Flags {
    usage: String,
    args: std::vec::IntoIter<String>,
    current: String,
}

impl Flags {
    /// Reads the process arguments (after the program name).
    pub fn from_env(usage: impl Into<String>) -> Flags {
        Flags::new(usage, std::env::args().skip(1))
    }

    /// Reads `args`; `usage` is printed on `--help` and after every error.
    pub fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        Flags { usage: usage.into(), args: args.into_iter(), current: String::new() }
    }

    /// The next argument, or `None` once all are read. Handles `--help`
    /// and `-h` itself.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            eprintln!("{}", self.usage);
            std::process::exit(0);
        }
        self.current.clone_from(&flag);
        Some(flag)
    }

    /// Parses the value following the current flag; `expected` completes
    /// the error "`<flag>` must be …" (e.g. `"a u64"`).
    pub fn value<T: FromStr>(&mut self, expected: &str) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(&format!("{} needs a value", self.current));
        };
        raw.parse().unwrap_or_else(|_| self.fail(&format!("{} must be {expected}", self.current)))
    }

    /// Parses the binary's one optional positional argument, `name`,
    /// which must also be its last.
    pub fn positional<T: FromStr>(&mut self, name: &str, expected: &str) -> Option<T> {
        let raw = self.next_flag()?;
        let value = raw.parse();
        let value = value.unwrap_or_else(|_| self.fail(&format!("{name} must be {expected}")));
        if let Some(extra) = self.next_flag() {
            self.unknown(&extra);
        }
        Some(value)
    }

    /// Rejects an argument the binary does not know.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown argument `{flag}`"))
    }

    /// Prints `error` and the usage text, then exits 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("error: {error}\n\n{}", self.usage);
        std::process::exit(2);
    }
}

/// Writes `contents` to `path`, or exits 2 naming `what` could not be written.
pub fn write_or_exit(path: &str, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {what} to {path}: {e}");
        std::process::exit(2);
    }
}

/// Prints a soak report, writes it to `out` with a trailing newline and
/// `metrics`' JSON snapshot to `metrics_out`; exits 2 if a write fails.
pub fn emit_report(
    report: &str,
    out: Option<&str>,
    metrics_out: Option<&str>,
    metrics: &MetricsRegistry,
) {
    println!("{report}");
    if let Some(path) = out {
        write_or_exit(path, "report", &format!("{report}\n"));
    }
    if let Some(path) = metrics_out {
        write_or_exit(path, "metrics", &metrics.snapshot_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str]) -> Flags {
        Flags::new("usage: test", argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_is_optional() {
        assert_eq!(flags(&[]).positional::<u32>("scale", "a count"), None);
        assert_eq!(flags(&["4"]).positional::<u32>("scale", "a count"), Some(4));
    }
}
