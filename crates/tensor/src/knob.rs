//! Shared environment-knob parsing.
//!
//! An integer `STOD_*` knob follows one contract: an *unset* variable
//! takes its default, a *set but invalid* variable is a typed error —
//! never a silent default. This module is the workspace's one
//! digits-then-range parser; the serving registry reads its
//! `STOD_MODEL_MEM` budget through [`env_knob`].
//!
//! Accepted values are plain base-10 unsigned integers: no signs, no
//! whitespace, no separators, no empty strings. Anything else is
//! [`KnobError::NotANumber`]; a parse that succeeds but falls outside
//! the knob's documented range is [`KnobError::OutOfRange`].

use std::fmt;

/// A rejected environment knob. Carries the variable name and offending
/// value so the message an operator sees names exactly what to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobError {
    /// The value is not a plain base-10 unsigned integer.
    NotANumber {
        /// Which environment variable.
        var: &'static str,
        /// The rejected value, verbatim.
        value: String,
    },
    /// The value parsed but falls outside the knob's valid range.
    OutOfRange {
        /// Which environment variable.
        var: &'static str,
        /// The parsed value (`u64::MAX` when the digits overflow u64).
        value: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::NotANumber { var, value } => {
                write!(f, "{var} must be a plain unsigned integer, got {value:?}")
            }
            KnobError::OutOfRange {
                var,
                value,
                min,
                max,
            } => {
                write!(f, "{var} must be in {min}..={max}, got {value}")
            }
        }
    }
}

impl std::error::Error for KnobError {}

/// Parses one knob value: digits only, then range-checked against
/// `min..=max`. Digit strings that overflow `u64` report
/// [`KnobError::OutOfRange`] with `value = u64::MAX`.
pub fn parse_knob(var: &'static str, value: &str, min: u64, max: u64) -> Result<u64, KnobError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(KnobError::NotANumber {
            var,
            value: value.to_string(),
        });
    }
    let parsed: u64 = value.parse().map_err(|_| KnobError::OutOfRange {
        var,
        value: u64::MAX,
        min,
        max,
    })?;
    if parsed < min || parsed > max {
        return Err(KnobError::OutOfRange {
            var,
            value: parsed,
            min,
            max,
        });
    }
    Ok(parsed)
}

/// Reads `var` from the process environment and parses it with
/// [`parse_knob`]; unset yields `Ok(None)`.
pub fn env_knob(var: &'static str, min: u64, max: u64) -> Result<Option<u64>, KnobError> {
    match std::env::var(var) {
        Ok(v) => parse_knob(var, &v, min, max).map(Some),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_parse_and_range_check() {
        assert_eq!(parse_knob("K", "0", 0, 10), Ok(0));
        assert_eq!(parse_knob("K", "10", 0, 10), Ok(10));
        assert!(matches!(
            parse_knob("K", "11", 0, 10),
            Err(KnobError::OutOfRange { value: 11, .. })
        ));
    }

    #[test]
    fn garbage_is_not_a_number_never_a_default() {
        for bad in ["", " 4", "4 ", "+4", "-1", "0x10", "4_0", "4.0", "four"] {
            let err = parse_knob("K", bad, 0, 100).unwrap_err();
            assert_eq!(
                err,
                KnobError::NotANumber {
                    var: "K",
                    value: bad.to_string()
                },
                "{bad:?} must be rejected as not-a-number"
            );
            assert!(err.to_string().contains('K'), "{err}");
        }
    }

    #[test]
    fn u64_overflow_is_out_of_range() {
        let err = parse_knob("K", "18446744073709551616", 0, 100).unwrap_err();
        assert!(matches!(
            err,
            KnobError::OutOfRange {
                value: u64::MAX,
                ..
            }
        ));
    }
}
