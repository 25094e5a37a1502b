//! Runtime values and MySQL's type-coercion semantics.
//!
//! MySQL's implicit conversions are a documented source of injection
//! surprises (another face of the *semantic mismatch*): a string compared
//! with a number is converted with a *leading numeric prefix* parse, so
//! `'1abc' = 1` is true and `'abc' = 0` is true. The executor reproduces
//! those rules here.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A runtime cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    #[default]
    Null,
    Int(i64),
    Real(f64),
    Str(String),
}

impl Value {
    /// True when the value is SQL `NULL`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// MySQL numeric coercion: strings parse their longest numeric prefix
    /// (`'1abc'` → 1, `'abc'` → 0), NULL stays NULL.
    #[must_use]
    pub fn to_real(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(v) => Some(*v as f64),
            Value::Real(v) => Some(*v),
            Value::Str(s) => Some(numeric_prefix(s)),
        }
    }

    /// Integer view (real values truncate toward zero, MySQL-style rounding
    /// differences are irrelevant for the reproduced workloads).
    #[must_use]
    pub fn to_int(&self) -> Option<i64> {
        self.to_real().map(|f| f as i64)
    }

    /// MySQL truthiness: non-zero numeric value. `'abc'` coerces to 0 and
    /// is false; `'1'` is true. NULL is neither (treated as false in WHERE).
    #[must_use]
    pub fn is_truthy(&self) -> bool {
        self.to_real().is_some_and(|f| f != 0.0)
    }

    /// String rendering used by `CONCAT` and friends.
    #[must_use]
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Real(v) => format_real(*v),
            Value::Str(s) => s.clone(),
        }
    }

    /// Three-valued SQL equality under MySQL coercion rules:
    /// `None` when either side is NULL.
    #[must_use]
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Three-valued comparison under MySQL coercion:
    ///
    /// * NULL on either side → `None`;
    /// * string vs string → binary (case-sensitive) string comparison is
    ///   what `utf8_bin` would do, but MySQL's default collations are
    ///   case-insensitive — we follow the default (`a = 'A'` is true);
    /// * any numeric operand → both sides coerce to numbers.
    #[must_use]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(case_insensitive_cmp(a, b)),
            _ => {
                let a = self.to_real()?;
                let b = other.to_real()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Appends this value's duplicate key to `key`. GROUP BY, DISTINCT and
    /// UNION treat values as duplicates exactly when their keys are equal,
    /// and equal keys imply equal values under [`Value::sql_eq`] (or both
    /// NULL): strings fold case as comparisons do, and an integral `Real`
    /// keys like the `Int` of the same value. Each key ends with U+001F
    /// (doubled inside strings), so concatenated keys stay unambiguous.
    pub fn push_key(&self, key: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::Null => key.push('N'),
            Value::Int(v) => {
                let _ = write!(key, "I{v}");
            }
            Value::Real(v)
                if v.fract() == 0.0 && (i64::MIN as f64..i64::MAX as f64).contains(v) =>
            {
                let _ = write!(key, "I{}", *v as i64);
            }
            Value::Real(v) => {
                let _ = write!(key, "R{:x}", v.to_bits());
            }
            Value::Str(s) => {
                key.push('S');
                for c in s.chars().flat_map(char::to_lowercase) {
                    if c == KEY_SEP {
                        key.push(KEY_SEP);
                    }
                    key.push(c);
                }
            }
        }
        key.push(KEY_SEP);
    }

    /// NULL-safe equality (`<=>`): never NULL, NULL <=> NULL is true.
    #[must_use]
    pub fn null_safe_eq(&self, other: &Value) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.sql_eq(other).unwrap_or(false),
        }
    }

    /// `LIKE` pattern match (`%` and `_` wildcards, case-insensitive as in
    /// MySQL's default collation). Returns `None` if either side is NULL.
    #[must_use]
    pub fn sql_like(&self, pattern: &Value) -> Option<bool> {
        if self.is_null() || pattern.is_null() {
            return None;
        }
        let text = self.to_display_string().to_lowercase();
        let pat = pattern.to_display_string().to_lowercase();
        Some(like_match(
            &text.chars().collect::<Vec<_>>(),
            &pat.chars().collect::<Vec<_>>(),
        ))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => f.write_str(&format_real(*v)),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Terminator of one value's key in [`Value::push_key`].
const KEY_SEP: char = '\u{1f}';

/// Case-folded string ordering without allocating lowercase copies (the
/// executor compares strings per row in WHERE evaluation).
fn case_insensitive_cmp(a: &str, b: &str) -> Ordering {
    let mut ai = a.chars().flat_map(char::to_lowercase);
    let mut bi = b.chars().flat_map(char::to_lowercase);
    loop {
        match (ai.next(), bi.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(x), Some(y)) => match x.cmp(&y) {
                Ordering::Equal => {}
                other => return other,
            },
        }
    }
}

fn format_real(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// MySQL's leading-numeric-prefix parse: skips leading whitespace, accepts
/// an optional sign, digits, one decimal point and an exponent; anything
/// after the prefix is ignored; no digits at all yields 0.
#[must_use]
pub fn numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_digit = false;
    let mut seen_dot = false;
    if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
        end += 1;
    }
    while end < bytes.len() {
        match bytes[end] {
            b'0'..=b'9' => {
                seen_digit = true;
                end += 1;
            }
            b'.' if !seen_dot => {
                seen_dot = true;
                end += 1;
            }
            b'e' | b'E' if seen_digit => {
                // exponent: e[+/-]digits — only accept if digits follow
                let mut k = end + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                let exp_digits_start = k;
                while k < bytes.len() && bytes[k].is_ascii_digit() {
                    k += 1;
                }
                if k > exp_digits_start {
                    end = k;
                }
                break;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

fn like_match(text: &[char], pat: &[char]) -> bool {
    match pat.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => (0..=text.len()).any(|i| like_match(&text[i..], rest)),
        Some(('_', rest)) => !text.is_empty() && like_match(&text[1..], rest),
        Some((c, rest)) => text.first() == Some(c) && like_match(&text[1..], rest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_prefix_rules() {
        assert_eq!(numeric_prefix("1abc"), 1.0);
        assert_eq!(numeric_prefix("abc"), 0.0);
        assert_eq!(numeric_prefix("  -3.5x"), -3.5);
        assert_eq!(numeric_prefix("1e3zz"), 1000.0);
        assert_eq!(numeric_prefix("1e"), 1.0);
        assert_eq!(numeric_prefix(""), 0.0);
        assert_eq!(numeric_prefix("."), 0.0);
    }

    #[test]
    fn semantic_mismatch_comparisons() {
        // The classics: string/number type juggling.
        assert_eq!(Value::from("abc").sql_eq(&Value::Int(0)), Some(true));
        assert_eq!(Value::from("1abc").sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::from("2").sql_eq(&Value::Int(2)), Some(true));
        assert_eq!(Value::from("2x").sql_eq(&Value::from("2")), Some(false)); // str vs str
    }

    #[test]
    fn null_propagation() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert!(Value::Null.null_safe_eq(&Value::Null));
        assert!(!Value::Null.null_safe_eq(&Value::Int(0)));
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn string_comparison_is_case_insensitive() {
        assert_eq!(Value::from("Ann").sql_eq(&Value::from("ann")), Some(true));
        assert_eq!(
            Value::from("a").sql_cmp(&Value::from("B")),
            Some(Ordering::Less)
        );
    }

    fn key(v: &Value) -> String {
        let mut k = String::new();
        v.push_key(&mut k);
        k
    }

    #[test]
    fn keys_agree_with_sql_eq() {
        assert_eq!(key(&Value::from("a")), key(&Value::from("A")));
        assert_eq!(key(&Value::Int(1)), key(&Value::Real(1.0)));
        assert_eq!(key(&Value::Int(0)), key(&Value::Real(-0.0)));
        assert_ne!(key(&Value::Real(1.5)), key(&Value::Int(1)));
        assert_ne!(key(&Value::from("1")), key(&Value::Int(1)));
        assert_ne!(key(&Value::Null), key(&Value::Int(0)));
        assert_ne!(key(&Value::Real(1e300)), key(&Value::Real(f64::INFINITY)));
        // Concatenated keys stay unambiguous when a string holds the
        // separator.
        let pair = |a: &str, b: &str| key(&Value::from(a)) + &key(&Value::from(b));
        assert_ne!(key(&Value::from("a\u{1f}Sb")), pair("a", "b"));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::from("1").is_truthy());
        assert!(!Value::from("abc").is_truthy());
        assert!(Value::Real(0.5).is_truthy());
    }

    #[test]
    fn like_wildcards() {
        let v = Value::from("hello world");
        assert_eq!(v.sql_like(&Value::from("hello%")), Some(true));
        assert_eq!(v.sql_like(&Value::from("%WORLD")), Some(true));
        assert_eq!(v.sql_like(&Value::from("h_llo%")), Some(true));
        assert_eq!(v.sql_like(&Value::from("nope")), Some(false));
        assert_eq!(v.sql_like(&Value::Null), None);
        assert_eq!(Value::from("").sql_like(&Value::from("%")), Some(true));
    }

    #[test]
    fn display_and_string_render() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Real(3.0).to_string(), "3");
        assert_eq!(Value::Real(3.25).to_string(), "3.25");
        assert_eq!(Value::Null.to_display_string(), "");
    }
}
