//! Flag parsing shared by the `vega-serve` and `vega-loadgen` binaries.
//!
//! Every flag value is checked: a missing or malformed value is a
//! [`FlagError`] naming the flag and the value, never a silent default.
//! Both binaries print the error and exit with status 2.

use std::fmt;
use std::str::FromStr;

/// A missing, malformed or unknown command-line flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError(pub String);

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

/// Walks an argument list flag by flag; the flag-taking arms of a binary's
/// `match` pull their value with [`Flags::value`] or [`Flags::choice`].
///
/// # Examples
/// ```
/// use vega_serve::cli::Flags;
/// let mut flags = Flags::new(["--threads", "4", "--shutdown"].map(String::from));
/// assert_eq!(flags.next().as_deref(), Some("--threads"));
/// assert_eq!(flags.value::<usize>("--threads"), Ok(4));
/// assert_eq!(flags.next().as_deref(), Some("--shutdown"));
/// assert_eq!(flags.next(), None);
/// ```
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Flags over `argv` (without the program name).
    pub fn new(argv: impl IntoIterator<Item = String>) -> Flags {
        Flags(argv.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// Flags over the process arguments.
    pub fn from_env() -> Flags {
        Flags::new(std::env::args().skip(1))
    }

    /// The argument after `flag`, parsed as `T`.
    ///
    /// # Errors
    /// [`FlagError`] naming `flag` when the value is missing, and naming
    /// both when it does not parse.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, FlagError> {
        let value = self.raw(flag)?;
        value
            .parse()
            .map_err(|_| FlagError(format!("invalid value `{value}` for {flag}")))
    }

    /// The argument after `flag`, which must be one of the names in
    /// `choices`; returns the matching value.
    ///
    /// # Errors
    /// [`FlagError`] naming `flag` when the value is missing, and naming
    /// both, with the accepted names, when it matches none of them.
    pub fn choice<T: Copy>(&mut self, flag: &str, choices: &[(&str, T)]) -> Result<T, FlagError> {
        let value = self.raw(flag)?;
        match choices.iter().find(|(name, _)| *name == value) {
            Some(&(_, v)) => Ok(v),
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                Err(FlagError(format!(
                    "invalid value `{value}` for {flag} (expected one of: {})",
                    names.join(", ")
                )))
            }
        }
    }

    fn raw(&mut self, flag: &str) -> Result<String, FlagError> {
        self.0
            .next()
            .ok_or_else(|| FlagError(format!("{flag} needs a value")))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str]) -> Flags {
        Flags::new(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_parse_or_name_the_flag_and_value() {
        let mut f = flags(&["--threads", "4", "--cache-cap", "1k", "--deadline-ms"]);
        assert_eq!(f.next().as_deref(), Some("--threads"));
        assert_eq!(f.value::<usize>("--threads"), Ok(4));

        assert_eq!(f.next().as_deref(), Some("--cache-cap"));
        let err = f.value::<usize>("--cache-cap").unwrap_err();
        assert!(
            err.0.contains("--cache-cap") && err.0.contains("`1k`"),
            "{err}"
        );

        assert_eq!(f.next().as_deref(), Some("--deadline-ms"));
        let err = f.value::<u64>("--deadline-ms").unwrap_err();
        assert_eq!(err.0, "--deadline-ms needs a value");
        assert_eq!(f.next(), None);
    }

    #[test]
    fn choices_accept_only_listed_names() {
        const ONOFF: &[(&str, bool)] = &[("0", false), ("1", true)];
        let mut f = flags(&["1", "yes"]);
        assert_eq!(f.choice("--prefault", ONOFF), Ok(true));
        let err = f.choice("--prefault", ONOFF).unwrap_err();
        assert!(
            err.0.contains("--prefault") && err.0.contains("`yes`") && err.0.contains("0, 1"),
            "{err}"
        );
        assert!(f.choice("--prefault", ONOFF).is_err(), "missing value");
    }
}
