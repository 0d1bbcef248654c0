//! Shared command-line parsing for the `repro` front end.
//!
//! The binary hand-rolls its argument loop (no clap offline), which
//! historically meant each numeric flag reinvented its own error message —
//! some of them dropping the offending value from the diagnostic. These
//! helpers centralize the contract: every failure names the *flag* (or
//! positional), echoes the *value* verbatim, and states what was expected,
//! so a typo like `--group-size 1e6` is diagnosable from the error alone.
//! They return `Result` (rather than exiting) so the error paths are
//! unit-testable; the binary wraps them in its `die()`.

use crate::runner::ExperimentScale;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Fetch the value following `flag`, or a "needs a value" error.
pub fn require_value<'a>(
    flag: &str,
    value: Option<&'a str>,
    expected: &str,
) -> Result<&'a str, String> {
    value.ok_or_else(|| format!("{flag} needs a value (expected {expected})"))
}

/// Parse `value` for `flag`, echoing the offending value on failure.
pub fn parse_value<T: FromStr>(
    flag: &str,
    value: Option<&str>,
    expected: &str,
) -> Result<T, String> {
    let value = require_value(flag, value, expected)?;
    value
        .parse::<T>()
        .map_err(|_| format!("invalid {flag} '{value}' (expected {expected})"))
}

/// Parse an integer that must lie in `range` (`usize::MAX` as the end
/// means no upper bound), echoing the offending value on failure.
pub fn parse_in(
    flag: &str,
    value: Option<&str>,
    range: RangeInclusive<usize>,
) -> Result<usize, String> {
    let expected = match *range.end() {
        usize::MAX => format!("an integer >= {}", range.start()),
        end => format!("an integer in {}..={end}", range.start()),
    };
    let n: usize = parse_value(flag, value, &expected)?;
    if !range.contains(&n) {
        let shown = value.unwrap_or_default();
        return Err(format!("invalid {flag} '{shown}' (expected {expected})"));
    }
    Ok(n)
}

/// Parse an `--scale` value, listing the valid names on failure.
pub fn parse_scale(flag: &str, value: Option<&str>) -> Result<ExperimentScale, String> {
    let expected = ExperimentScale::NAMES.join("|");
    let value = require_value(flag, value, &expected)?;
    ExperimentScale::parse(value)
        .ok_or_else(|| format!("unknown scale '{value}' (valid: {expected})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_values_name_the_flag_and_expectation() {
        let err = parse_value::<usize>("--jobs", None, "integer >= 1").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.contains("integer >= 1"), "{err}");
    }

    #[test]
    fn bad_values_are_echoed_verbatim() {
        let err =
            parse_value::<usize>("--group-size", Some("1e6"), "integer in 1..=64").unwrap_err();
        assert!(err.contains("--group-size"), "{err}");
        assert!(err.contains("'1e6'"), "{err}");
        let err = parse_value::<f64>("--max-regress", Some("lots"), "fraction >= 0").unwrap_err();
        assert!(err.contains("'lots'"), "{err}");
        // Negative numbers fail usize parsing and still echo.
        let err = parse_value::<usize>("--jobs", Some("-3"), "integer >= 1").unwrap_err();
        assert!(err.contains("'-3'"), "{err}");
    }

    #[test]
    fn good_values_parse() {
        assert_eq!(parse_value::<usize>("--jobs", Some("4"), "n").unwrap(), 4);
        assert_eq!(
            parse_value::<f64>("--max-regress", Some("0.25"), "f").unwrap(),
            0.25
        );
        assert_eq!(
            require_value("--json", Some("x.json"), "path").unwrap(),
            "x.json"
        );
    }

    #[test]
    fn minimum_bounds_are_enforced_with_echo() {
        assert_eq!(parse_in("--jobs", Some("2"), 1..=usize::MAX).unwrap(), 2);
        let err = parse_in("--jobs", Some("0"), 1..=usize::MAX).unwrap_err();
        assert!(err.contains("--jobs '0'"), "{err}");
        assert!(err.contains("an integer >= 1"), "{err}");
        let err = parse_in("procs", Some("65"), 1..=64).unwrap_err();
        assert!(err.contains("procs '65'"), "{err}");
        assert!(err.contains("an integer in 1..=64"), "{err}");
    }

    #[test]
    fn scale_errors_list_valid_names() {
        assert!(matches!(
            parse_scale("--scale", Some("tiny")),
            Ok(ExperimentScale::Tiny)
        ));
        let err = parse_scale("--scale", Some("huge")).unwrap_err();
        assert!(err.contains("'huge'"), "{err}");
        for name in ExperimentScale::NAMES {
            assert!(err.contains(name), "{err} missing {name}");
        }
        let err = parse_scale("--scale", None).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn positional_errors_echo_too() {
        let err = parse_in("n", Some("many"), 1..=usize::MAX).unwrap_err();
        assert!(err.contains("n 'many'"), "{err}");
        assert_eq!(parse_in("n", Some("512"), 1..=usize::MAX).unwrap(), 512);
    }
}
