//! Query planner: lowers one SELECT arm into an explicit stage pipeline.
//!
//! Planning is pure name resolution plus stage selection — no rows are
//! touched. The output [`SelectPlan`] is a linear pipeline the executor in
//! [`crate::exec`] interprets against storage:
//!
//! ```text
//! Scan (cartesian FROM)       ┐ one pipeline of nested loops over
//!   -> NestedLoopJoin*        │ borrowed rows (INNER/LEFT, ON predicate);
//!   -> Filter                 ┘ WHERE runs in the innermost loop
//!   -> Aggregate?               (GROUP BY keys + HAVING over groups)
//!   -> Project                  (labels resolved here)
//!   -> Sort? -> Distinct? -> Limit?
//! ```
//!
//! Scan, join and filter are distinct plan nodes but one loop nest at run
//! time: each candidate row is a vector of references into the stored
//! tables, WHERE (compiled program or walker) tests it as soon as the last
//! FROM scan or the last join produces it, and only survivors are kept.
//! Predicates therefore run row by row: on each candidate, every join's
//! ON first, then WHERE, before the next candidate is built.
//!
//! Splitting the plan from its interpretation keeps the stage decisions
//! (aggregate-or-not, join binding indexes, output labels) inspectable:
//! [`explain`] renders the pipeline for tests and debugging, and the
//! conformance lab asserts plan shapes stay stable as the SQL surface
//! grows.

use septic_sql::ast::{Expr, JoinKind, Limit, OrderBy, Select, SelectItem, Statement, TableRef};

use crate::error::DbError;
use crate::exec::Binding;
use crate::expr::is_aggregate;
use crate::storage::Database;

/// One join step of the pipeline: nested-loop join the bound table into
/// the composite row, keeping rows whose ON predicate holds (LEFT joins
/// null-pad unmatched probe rows).
pub(crate) struct JoinStep<'a> {
    pub(crate) kind: JoinKind,
    pub(crate) table: &'a TableRef,
    pub(crate) on: Option<&'a Expr>,
    /// Index of the joined table's binding in the plan layout. During the
    /// join only `layout[..=binding]` is visible — later joins have not
    /// produced cells yet.
    pub(crate) binding: usize,
}

/// Grouping stage: partition filtered rows by the GROUP BY key vector
/// (one synthetic all-rows group when aggregates appear without GROUP BY)
/// and keep groups whose HAVING predicate holds.
pub(crate) struct AggregatePlan<'a> {
    pub(crate) group_by: &'a [Expr],
    pub(crate) having: Option<&'a Expr>,
}

/// Projection stage: the select items plus their resolved output labels.
pub(crate) struct ProjectPlan<'a> {
    pub(crate) items: &'a [SelectItem],
    pub(crate) columns: Vec<String>,
}

/// A fully planned SELECT arm (UNION chaining stays above the planner —
/// each arm is planned independently).
pub(crate) struct SelectPlan<'a> {
    /// All visible bindings: FROM tables first, then joined tables in
    /// join order.
    pub(crate) layout: Vec<Binding>,
    /// Cartesian-product sources (the FROM list).
    pub(crate) scan: Vec<&'a TableRef>,
    pub(crate) joins: Vec<JoinStep<'a>>,
    pub(crate) filter: Option<&'a Expr>,
    pub(crate) aggregate: Option<AggregatePlan<'a>>,
    pub(crate) project: ProjectPlan<'a>,
    pub(crate) order_by: &'a [OrderBy],
    pub(crate) distinct: bool,
    pub(crate) limit: Option<&'a Limit>,
}

impl<'a> SelectPlan<'a> {
    /// Plans one SELECT arm: resolves every table binding against the
    /// catalog, decides the aggregate stage, and fixes projection labels.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when a FROM/JOIN table or a qualified
    /// wildcard target does not resolve.
    pub(crate) fn build(db: &Database, select: &'a Select) -> Result<Self, DbError> {
        let mut layout: Vec<Binding> = Vec::new();
        for t in &select.from {
            let store = db.table_or_virtual(&t.name)?;
            layout.push(Binding {
                name: t.binding_name().to_string(),
                schema: store.schema.clone(),
            });
        }
        let mut joins = Vec::with_capacity(select.joins.len());
        for j in &select.joins {
            let store = db.table_or_virtual(&j.table.name)?;
            layout.push(Binding {
                name: j.table.binding_name().to_string(),
                schema: store.schema.clone(),
            });
            joins.push(JoinStep {
                kind: j.kind,
                table: &j.table,
                on: j.on.as_ref(),
                binding: layout.len() - 1,
            });
        }

        // A bare aggregate (no GROUP BY) still groups: one synthetic
        // all-rows group, exactly MySQL's implicit grouping.
        let has_agg = select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
            _ => false,
        }) || select.having.as_ref().is_some_and(expr_has_aggregate);
        let aggregate = if has_agg || !select.group_by.is_empty() {
            Some(AggregatePlan {
                group_by: &select.group_by,
                having: select.having.as_ref(),
            })
        } else {
            None
        };

        let mut columns: Vec<String> = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    for b in &layout {
                        for c in &b.schema.columns {
                            columns.push(c.name.clone());
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let b = layout
                        .iter()
                        .find(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                    for c in &b.schema.columns {
                        columns.push(c.name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                }
            }
        }

        Ok(SelectPlan {
            layout,
            scan: select.from.iter().collect(),
            joins,
            filter: select.where_clause.as_ref(),
            aggregate,
            project: ProjectPlan {
                items: &select.items,
                columns,
            },
            order_by: &select.order_by,
            distinct: select.distinct,
            limit: select.limit.as_ref(),
        })
    }

    /// Renders the pipeline bottom-up (sources first), one stage per line.
    #[must_use]
    pub(crate) fn describe(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        if self.scan.is_empty() {
            push("Scan <dual>".to_string());
        }
        for t in &self.scan {
            push(format!("Scan {}", describe_table(t)));
        }
        for j in &self.joins {
            let on = match j.on {
                Some(e) => format!(" ON {e}"),
                None => String::new(),
            };
            push(format!(
                "NestedLoopJoin {} {}{on}",
                j.kind,
                describe_table(j.table)
            ));
        }
        if let Some(f) = self.filter {
            push(format!("Filter {f}"));
        }
        if let Some(agg) = &self.aggregate {
            let keys: Vec<String> = agg.group_by.iter().map(ToString::to_string).collect();
            let having = match agg.having {
                Some(h) => format!(" having {h}"),
                None => String::new(),
            };
            push(format!("Aggregate group_by=[{}]{having}", keys.join(", ")));
        }
        push(format!("Project [{}]", self.project.columns.join(", ")));
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|o| format!("{} {}", o.expr, if o.descending { "DESC" } else { "ASC" }))
                .collect();
            push(format!("Sort [{}]", keys.join(", ")));
        }
        if self.distinct {
            push("Distinct".to_string());
        }
        if let Some(l) = self.limit {
            push(format!("Limit {} OFFSET {}", l.count, l.offset));
        }
        out
    }
}

fn describe_table(t: &TableRef) -> String {
    match &t.alias {
        Some(a) => format!("{} AS {a}", t.name),
        None => t.name.clone(),
    }
}

/// Renders the full plan of a statement's SELECT arms (UNION arms are
/// planned independently and separated by a `Union` line). Test/debug
/// surface for asserting plan shapes.
///
/// # Errors
///
/// As [`SelectPlan::build`]; non-SELECT statements are
/// [`DbError::Semantic`].
pub fn explain(db: &Database, stmt: &Statement) -> Result<String, DbError> {
    let Statement::Select(select) = stmt else {
        return Err(DbError::Semantic("EXPLAIN only covers SELECT".into()));
    };
    let mut out = String::new();
    for (i, arm) in select.arms().enumerate() {
        if i > 0 {
            out.push_str("Union\n");
        }
        out.push_str(&SelectPlan::build(db, arm)?.describe());
    }
    Ok(out)
}

/// True when the expression contains an aggregate call at any depth that
/// applies to the *current* scope (subqueries run their own planner pass,
/// so aggregates inside them do not force grouping here).
pub(crate) fn expr_has_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Function { name, args } => is_aggregate(name) || args.iter().any(expr_has_aggregate),
        Expr::Unary { operand, .. } => expr_has_aggregate(operand),
        Expr::Binary { left, right, .. } => expr_has_aggregate(left) || expr_has_aggregate(right),
        Expr::IsNull { expr, .. } => expr_has_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            expr_has_aggregate(expr) || list.iter().any(expr_has_aggregate)
        }
        Expr::InSelect { expr, .. } => expr_has_aggregate(expr),
        Expr::Between {
            expr, low, high, ..
        } => expr_has_aggregate(expr) || expr_has_aggregate(low) || expr_has_aggregate(high),
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand.as_deref().is_some_and(expr_has_aggregate)
                || branches
                    .iter()
                    .any(|(w, t)| expr_has_aggregate(w) || expr_has_aggregate(t))
                || else_branch.as_deref().is_some_and(expr_has_aggregate)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use septic_sql::parse;

    fn db_with_fleet() -> Database {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE devices (id INT PRIMARY KEY AUTO_INCREMENT, \
             name VARCHAR(32), owner VARCHAR(32))",
            "CREATE TABLE readings (id INT PRIMARY KEY AUTO_INCREMENT, \
             device VARCHAR(32), watts INT)",
        ] {
            let parsed = parse(sql).expect("parse");
            execute(&mut db, &parsed.statements[0], 0).expect("create");
        }
        db
    }

    fn plan_of(db: &Database, sql: &str) -> String {
        let parsed = parse(sql).expect("parse");
        explain(db, &parsed.statements[0]).expect("plan")
    }

    #[test]
    fn join_plan_orders_stages() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT d.owner, r.watts FROM devices d \
             LEFT JOIN readings r ON r.device = d.name WHERE r.watts > 5",
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Scan devices AS d");
        assert!(lines[1].starts_with("NestedLoopJoin LEFT JOIN readings AS r ON"));
        assert!(lines[2].starts_with("Filter"));
        assert!(lines[3].starts_with("Project [d.owner, r.watts]"));
    }

    #[test]
    fn join_binding_indexes_follow_layout() {
        let db = db_with_fleet();
        let parsed = parse(
            "SELECT * FROM devices JOIN readings r ON r.device = devices.name \
             JOIN devices d2 ON d2.name = r.device",
        )
        .expect("parse");
        let Statement::Select(s) = &parsed.statements[0] else {
            panic!()
        };
        let plan = SelectPlan::build(&db, s).expect("plan");
        assert_eq!(plan.layout.len(), 3);
        assert_eq!(plan.joins[0].binding, 1);
        assert_eq!(plan.joins[1].binding, 2);
        assert_eq!(plan.layout[1].name, "r");
        assert_eq!(plan.layout[2].name, "d2");
    }

    #[test]
    fn bare_aggregate_forces_grouping_stage() {
        let db = db_with_fleet();
        let text = plan_of(&db, "SELECT COUNT(*) FROM readings");
        assert!(text.contains("Aggregate group_by=[]"), "{text}");
        // ... and a plain projection does not.
        let text = plan_of(&db, "SELECT watts FROM readings");
        assert!(!text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn aggregate_only_in_having_still_groups() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT device FROM readings GROUP BY device HAVING SUM(watts) > 10",
        );
        assert!(
            text.contains("Aggregate group_by=[device] having"),
            "{text}"
        );
    }

    #[test]
    fn subquery_aggregates_do_not_group_outer_arm() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT name FROM devices WHERE name IN \
             (SELECT device FROM readings)",
        );
        assert!(!text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn union_arms_plan_independently() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT name FROM devices UNION SELECT device FROM readings",
        );
        let unions = text.lines().filter(|l| *l == "Union").count();
        assert_eq!(unions, 1);
        assert_eq!(text.lines().filter(|l| l.starts_with("Scan")).count(), 2);
    }

    #[test]
    fn sort_distinct_limit_render_in_order() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT DISTINCT owner FROM devices ORDER BY owner DESC LIMIT 3, 7",
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "Scan devices",
                "Project [owner]",
                "Sort [owner DESC]",
                "Distinct",
                "Limit 7 OFFSET 3",
            ]
        );
    }

    #[test]
    fn unknown_table_fails_planning() {
        let db = db_with_fleet();
        let parsed = parse("SELECT * FROM ghosts").expect("parse");
        let Statement::Select(s) = &parsed.statements[0] else {
            panic!()
        };
        assert!(matches!(
            SelectPlan::build(&db, s),
            Err(DbError::UnknownTable(_))
        ));
    }
}
