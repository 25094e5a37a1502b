//! The outcome oracle: what every operation must return, and the check
//! that compares it with what the server did return.

use septic_dbms::Value;

/// What an operation is, for latency bucketing and the block counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A benign SELECT.
    Read,
    /// A benign INSERT, UPDATE or DELETE.
    Write,
    /// An injection attack; it must come back blocked.
    Attack,
}

/// The expected outcome of one operation, computed from the benchmark's
/// own shadow of the data before the operation is sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exactly these rows, in this order.
    Rows(Vec<Vec<Value>>),
    /// A write that affects exactly this many rows.
    Affected(u64),
    /// An INSERT of one row into an AUTO_INCREMENT table: one row
    /// affected and an insert id reported.
    Inserted,
    /// The guard drops the query (`DbError::Blocked` in-process, the
    /// `Blocked` frame on the wire).
    Blocked,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// The statement class, for the per-class latency medians: the
    /// operations of one class share a statement shape (or, for
    /// `web_wire`'s point SELECTs, differ only in extra conjuncts).
    pub class: u16,
    pub sql: String,
    pub expect: Expect,
    /// Bytes of client-supplied data the write stores (its literal
    /// values), the denominator of the write amplification.
    pub user_bytes: u64,
}

/// What the server returned, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Got {
    Ok {
        rows: Vec<Vec<Value>>,
        affected: u64,
        last_insert_id: Option<i64>,
    },
    Blocked,
    Error(String),
}

impl Got {
    /// True when the server acknowledged the operation.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Got::Ok { .. })
    }

    /// Rows returned (zero for anything but a result set).
    #[must_use]
    pub fn rows_returned(&self) -> u64 {
        match self {
            Got::Ok { rows, .. } => rows.len() as u64,
            _ => 0,
        }
    }
}

/// Compares an outcome with its expectation. `Err` carries a one-line
/// description of the deviation.
///
/// # Errors
///
/// Any deviation: a benign op blocked or failed, a wrong row set or
/// affected count, an attack that was not blocked.
pub fn check(op: &Op, got: &Got) -> Result<(), String> {
    let ok = match (&op.expect, got) {
        (Expect::Blocked, Got::Blocked) => true,
        (Expect::Rows(want), Got::Ok { rows, .. }) => rows == want,
        (Expect::Affected(n), Got::Ok { affected, .. }) => affected == n,
        (
            Expect::Inserted,
            Got::Ok {
                affected,
                last_insert_id,
                ..
            },
        ) => *affected == 1 && last_insert_id.is_some_and(|id| id > 0),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{:?} `{}`: expected {:?}, got {:?}",
            op.kind, op.sql, op.expect, got
        ))
    }
}

/// Text cell.
#[must_use]
pub fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// Integer cell.
#[must_use]
pub fn i(v: i64) -> Value {
    Value::Int(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(expect: Expect) -> Op {
        Op {
            kind: OpKind::Read,
            class: 0,
            sql: "SELECT 1".into(),
            expect,
            user_bytes: 0,
        }
    }

    fn ok(rows: Vec<Vec<Value>>, affected: u64) -> Got {
        Got::Ok {
            rows,
            affected,
            last_insert_id: None,
        }
    }

    #[test]
    fn matching_outcomes_pass() {
        assert!(check(
            &op(Expect::Rows(vec![vec![i(1)]])),
            &ok(vec![vec![i(1)]], 0)
        )
        .is_ok());
        assert!(check(&op(Expect::Affected(1)), &ok(vec![], 1)).is_ok());
        assert!(check(&op(Expect::Blocked), &Got::Blocked).is_ok());
    }

    #[test]
    fn every_deviation_fails() {
        assert!(check(
            &op(Expect::Rows(vec![vec![i(1)]])),
            &ok(vec![vec![i(2)]], 0)
        )
        .is_err());
        assert!(check(&op(Expect::Affected(1)), &ok(vec![], 0)).is_err());
        assert!(check(&op(Expect::Blocked), &ok(vec![], 0)).is_err());
        assert!(check(&op(Expect::Rows(vec![])), &Got::Blocked).is_err());
        assert!(check(&op(Expect::Inserted), &ok(vec![], 1)).is_err());
        assert!(check(&op(Expect::Affected(1)), &Got::Error("boom".into())).is_err());
    }
}
