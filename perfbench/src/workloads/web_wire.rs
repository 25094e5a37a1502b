//! `web_wire`: web-application traffic over the framed TCP protocol,
//! served by the event-loop front end with its default configuration.
//!
//! Two tables of 128 and 8 rows live in memory, plus an append-only
//! `audit` table that no query reads. Each client owns half of the
//! `accounts` rows: it reads and writes the mutable columns of its own
//! rows only, and the shared queries (GROUP BY, JOIN) read immutable
//! columns only, so every expected result is exact under concurrency.
//!
//! Point SELECTs come in 1,333 trained statement shapes (extra WHERE
//! conjuncts over six columns and six operators), more than the 1,024
//! entries of the expression program cache. Each shape carries its own
//! external query id, the way an instrumented application tags its
//! program points.

use std::collections::VecDeque;
use std::sync::Arc;

use septic_dbms::{Server, Value};
use septic_net::{serve_event_loop, NetClient, NetServerConfig};

use crate::harness::Generator;
use crate::oracle::{i, s, Expect, Got, Op, OpKind};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{server_config, train, Built, Wire, CLIENTS};

const ACCOUNTS: i64 = 128;
const DEPTS: i64 = 8;
/// Audit rows a client keeps before it deletes its oldest one.
const AUDIT_KEEP: usize = 32;

/// Immutable integer columns usable in extra WHERE conjuncts, with
/// their value ranges.
const COLS: [(&str, i64, i64); 6] = [
    ("dept", 0, DEPTS - 1),
    ("score", 0, 999),
    ("lvl", 1, 9),
    ("age", 18, 80),
    ("zone", 0, 15),
    ("tier", 1, 100),
];
const OPS: [&str; 6] = ["=", "<>", "<", ">", "<=", ">="];
const ATOMS: usize = COLS.len() * OPS.len();
/// Point-SELECT shapes: no conjunct, one, or an ordered pair.
pub const POINT_SHAPES: usize = 1 + ATOMS + ATOMS * ATOMS;
/// Projections, chosen by shape number.
const PROJ: [&[&str]; 4] = [
    &["id", "name"],
    &["name", "score", "note"],
    &["id", "visits", "note"],
    &["name", "dept", "lvl", "age"],
];

#[derive(Debug, Clone)]
struct Account {
    id: i64,
    name: String,
    ints: [i64; 6],
    note: String,
    visits: i64,
}

impl Account {
    fn cell(&self, col: &str) -> Value {
        match col {
            "id" => i(self.id),
            "name" => s(&self.name),
            "note" => s(&self.note),
            "visits" => i(self.visits),
            other => {
                let k = COLS
                    .iter()
                    .position(|c| c.0 == other)
                    .expect("known column");
                i(self.ints[k])
            }
        }
    }
}

fn name_of(id: i64) -> String {
    format!("u{id:03}")
}

fn title_of(dept: i64) -> String {
    format!("dept-{dept}")
}

/// The conjuncts of a point shape: `(column index, operator index)`.
fn atoms(shape: usize) -> Vec<(usize, usize)> {
    let atom = |a: usize| (a / OPS.len(), a % OPS.len());
    match shape {
        0 => vec![],
        s if s <= ATOMS => vec![atom(s - 1)],
        s => vec![atom((s - 1 - ATOMS) / ATOMS), atom((s - 1 - ATOMS) % ATOMS)],
    }
}

fn holds(lhs: i64, op: usize, rhs: i64) -> bool {
    match OPS[op] {
        "=" => lhs == rhs,
        "<>" => lhs != rhs,
        "<" => lhs < rhs,
        ">" => lhs > rhs,
        "<=" => lhs <= rhs,
        _ => lhs >= rhs,
    }
}

fn point_sql(shape: usize, slot: &str, values: &[i64]) -> String {
    let mut sql = format!(
        "/* qid:p{shape} */ SELECT {} FROM accounts WHERE name = '{slot}'",
        PROJ[shape % PROJ.len()].join(", ")
    );
    for ((col, op), v) in atoms(shape).into_iter().zip(values) {
        sql.push_str(&format!(" AND {} {} {v}", COLS[col].0, OPS[op]));
    }
    sql
}

fn g_sql(shape: usize, v: i64) -> String {
    match shape {
        0 => format!("/* qid:g0 */ SELECT dept, COUNT(*), SUM(score) FROM accounts WHERE lvl >= {v} GROUP BY dept ORDER BY dept"),
        1 => format!("/* qid:g1 */ SELECT zone, MAX(age) FROM accounts WHERE tier < {v} GROUP BY zone ORDER BY zone"),
        _ => format!("/* qid:g2 */ SELECT lvl, COUNT(*) FROM accounts GROUP BY lvl HAVING COUNT(*) > {v} ORDER BY lvl"),
    }
}

fn j_sql(shape: usize, id: i64) -> String {
    match shape {
        0 => format!(
            "/* qid:j0 */ SELECT a.name, d.title FROM accounts a JOIN depts d ON d.id = a.dept WHERE a.name = '{}'",
            name_of(id)
        ),
        _ => format!(
            "/* qid:j1 */ SELECT d.title, a.score FROM depts d JOIN accounts a ON a.dept = d.id WHERE a.id = {id}"
        ),
    }
}

fn u_sql(shape: usize, id: i64, note: &str, visits: i64) -> String {
    match shape {
        0 => format!("/* qid:u0 */ UPDATE accounts SET note = '{note}' WHERE id = {id}"),
        1 => format!(
            "/* qid:u1 */ UPDATE accounts SET note = '{note}', visits = {visits} WHERE id = {id}"
        ),
        _ => format!(
            "/* qid:u2 */ UPDATE accounts SET visits = {visits} WHERE name = '{}'",
            name_of(id)
        ),
    }
}

fn insert_sql(actor: usize, msg: &str) -> String {
    format!("/* qid:i0 */ INSERT INTO audit (actor, msg) VALUES ({actor}, '{msg}')")
}

fn delete_sql(id: i64) -> String {
    format!("/* qid:d0 */ DELETE FROM audit WHERE id = {id}")
}

fn accounts(seed: u64) -> Vec<Account> {
    let mut rng = Rng::new(seed, 1);
    (0..ACCOUNTS)
        .map(|id| {
            let mut ints = [0; 6];
            for (k, (_, lo, hi)) in COLS.iter().enumerate() {
                ints[k] = rng.range(*lo, *hi);
            }
            Account {
                id,
                name: name_of(id),
                ints,
                note: rng.words(3),
                visits: 0,
            }
        })
        .collect()
}

/// Every trained shape, with benign values.
fn training_queries(rows: &[Account]) -> Vec<String> {
    let mut out: Vec<String> = (0..POINT_SHAPES)
        .map(|shape| point_sql(shape, &name_of(0), &[0, 0]))
        .collect();
    out.extend((0..3).map(|g| g_sql(g, 1)));
    out.extend((0..2).map(|j| j_sql(j, 0)));
    // Writes that leave row 0 as loaded.
    out.extend((0..3).map(|u| u_sql(u, 0, &rows[0].note, rows[0].visits)));
    out.push(insert_sql(0, "training row"));
    out.push(delete_sql(1));
    out
}

/// Builds the deployment: schema, rows, training, prevention, the event
/// loop and one wire connection per client.
#[must_use]
pub fn setup(seed: u64, tracer: Option<&Arc<Tracer>>) -> Built {
    let server = Server::with_config(server_config());
    let rows = accounts(seed);
    let conn = server.connect();
    for sql in [
        "CREATE TABLE accounts (id INT PRIMARY KEY, name VARCHAR(32), dept INT, score INT, lvl INT, age INT, zone INT, tier INT, note VARCHAR(64), visits INT)",
        "CREATE TABLE depts (id INT PRIMARY KEY, title VARCHAR(32), floor INT)",
        "CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, actor INT, msg VARCHAR(64))",
    ] {
        conn.execute(sql).expect("create table");
    }
    let values: Vec<String> = rows
        .iter()
        .map(|a| {
            format!(
                "({}, '{}', {}, {}, {}, {}, {}, {}, '{}', {})",
                a.id,
                a.name,
                a.ints[0],
                a.ints[1],
                a.ints[2],
                a.ints[3],
                a.ints[4],
                a.ints[5],
                a.note,
                a.visits
            )
        })
        .collect();
    conn.execute(&format!(
        "INSERT INTO accounts VALUES {}",
        values.join(", ")
    ))
    .expect("load accounts");
    let depts: Vec<String> = (0..DEPTS)
        .map(|d| format!("({d}, '{}', {})", title_of(d), 1 + d % 4))
        .collect();
    conn.execute(&format!("INSERT INTO depts VALUES {}", depts.join(", ")))
        .expect("load depts");
    drop(conn);
    train(&server, training_queries(&rows), tracer);
    // Training inserted (and deleted) one audit row; the shadow does not
    // track it because no query reads the audit table.
    let front = serve_event_loop(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind the event loop on localhost");
    let clients = (0..CLIENTS)
        .map(|_| Box::new(Wire(NetClient::connect(front.addr()).expect("connect"))) as Box<_>)
        .collect();
    let gens = (0..CLIENTS)
        .map(|c| Box::new(Gen::new(c, rows.clone())) as Box<dyn Generator>)
        .collect();
    Built {
        server,
        clients,
        gens,
        front: Some(front),
        dir: None,
    }
}

/// The effect an operation has on the shadow once acknowledged.
#[derive(Debug)]
enum Pending {
    None,
    Note(usize, String),
    NoteVisits(usize, String, i64),
    Visits(usize, i64),
    Inserted,
    Deleted,
}

/// One client's generator and shadow.
struct Gen {
    client: usize,
    rows: Vec<Account>,
    own: Vec<usize>,
    audit: VecDeque<i64>,
    pending: Pending,
}

impl Gen {
    fn new(client: usize, rows: Vec<Account>) -> Gen {
        let own = (0..rows.len()).filter(|k| k % CLIENTS == client).collect();
        Gen {
            client,
            rows,
            own,
            audit: VecDeque::new(),
            pending: Pending::None,
        }
    }

    fn point(&self, rng: &mut Rng) -> Op {
        let shape = rng.index(POINT_SHAPES);
        let row = &self.rows[self.own[rng.index(self.own.len())]];
        let conj = atoms(shape);
        let values: Vec<i64> = conj
            .iter()
            .map(|&(c, _)| rng.range(COLS[c].1, COLS[c].2))
            .collect();
        let hit = conj
            .iter()
            .zip(&values)
            .all(|(&(c, op), &v)| holds(row.ints[c], op, v));
        let rows = if hit {
            vec![PROJ[shape % PROJ.len()]
                .iter()
                .map(|col| row.cell(col))
                .collect()]
        } else {
            vec![]
        };
        Op {
            kind: OpKind::Read,
            class: 0,
            sql: point_sql(shape, &row.name, &values),
            expect: Expect::Rows(rows),
            user_bytes: 0,
        }
    }

    fn group(&self, rng: &mut Rng) -> Op {
        let shape = rng.index(3);
        let (v, rows) = match shape {
            0 => {
                let v = rng.range(1, 9);
                let mut acc = vec![(0i64, 0i64); DEPTS as usize];
                for a in self.rows.iter().filter(|a| a.ints[2] >= v) {
                    acc[a.ints[0] as usize].0 += 1;
                    acc[a.ints[0] as usize].1 += a.ints[1];
                }
                let rows = acc
                    .iter()
                    .enumerate()
                    .filter(|(_, (n, _))| *n > 0)
                    .map(|(d, (n, sum))| vec![i(d as i64), i(*n), Value::Real(*sum as f64)])
                    .collect();
                (v, rows)
            }
            1 => {
                let v = rng.range(1, 100);
                let mut max = vec![None::<i64>; 16];
                for a in self.rows.iter().filter(|a| a.ints[5] < v) {
                    let m = &mut max[a.ints[4] as usize];
                    *m = Some(m.map_or(a.ints[3], |x| x.max(a.ints[3])));
                }
                let rows = max
                    .iter()
                    .enumerate()
                    .filter_map(|(z, m)| m.map(|m| vec![i(z as i64), i(m)]))
                    .collect();
                (v, rows)
            }
            _ => {
                let v = rng.range(8, 20);
                let mut count = [0i64; 10];
                for a in &self.rows {
                    count[a.ints[2] as usize] += 1;
                }
                let rows = count
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n > v)
                    .map(|(l, n)| vec![i(l as i64), i(*n)])
                    .collect();
                (v, rows)
            }
        };
        Op {
            kind: OpKind::Read,
            class: 1 + shape as u16,
            sql: g_sql(shape, v),
            expect: Expect::Rows(rows),
            user_bytes: 0,
        }
    }

    fn join(&self, rng: &mut Rng) -> Op {
        let shape = rng.index(2);
        let a = &self.rows[rng.index(self.rows.len())];
        let row = match shape {
            0 => vec![s(&a.name), s(&title_of(a.ints[0]))],
            _ => vec![s(&title_of(a.ints[0])), i(a.ints[1])],
        };
        Op {
            kind: OpKind::Read,
            class: 4 + shape as u16,
            sql: j_sql(shape, a.id),
            expect: Expect::Rows(vec![row]),
            user_bytes: 0,
        }
    }

    fn update(&mut self, rng: &mut Rng) -> Op {
        let shape = rng.index(3);
        let k = self.own[rng.index(self.own.len())];
        let note = rng.words(3);
        let visits = rng.range(0, 1_000_000);
        let id = self.rows[k].id;
        let (pending, bytes) = match shape {
            0 => (Pending::Note(k, note.clone()), note.len() as u64),
            1 => (
                Pending::NoteVisits(k, note.clone(), visits),
                note.len() as u64 + 8,
            ),
            _ => (Pending::Visits(k, visits), 8),
        };
        self.pending = pending;
        Op {
            kind: OpKind::Write,
            class: 6 + shape as u16,
            sql: u_sql(shape, id, &note, visits),
            expect: Expect::Affected(1),
            user_bytes: bytes,
        }
    }

    fn audit(&mut self, rng: &mut Rng) -> Op {
        if self.audit.len() >= AUDIT_KEEP {
            let id = *self.audit.front().expect("non-empty");
            self.pending = Pending::Deleted;
            Op {
                kind: OpKind::Write,
                class: 9,
                sql: delete_sql(id),
                expect: Expect::Affected(1),
                user_bytes: 8,
            }
        } else {
            let msg = rng.words(4);
            self.pending = Pending::Inserted;
            Op {
                kind: OpKind::Write,
                class: 10,
                user_bytes: 8 + msg.len() as u64,
                sql: insert_sql(self.client, &msg),
                expect: Expect::Inserted,
            }
        }
    }

    /// An injection aimed at a trained shape. Every class of the attack
    /// corpus is drawn: tautology, UNION, piggyback, comment truncation,
    /// syntax mimicry and the U+02BC quote.
    fn attack(&self, rng: &mut Rng) -> Op {
        let row = &self.rows[self.own[rng.index(self.own.len())]];
        let name = &row.name;
        // Shapes with at least one extra conjunct, for the classes that
        // need something after the slot to cut or mimic.
        let with_conj = 1 + rng.index(POINT_SHAPES - 1);
        let shape = rng.index(POINT_SHAPES);
        let vals = [5, 5];
        let sql = match rng.index(8) {
            0 => point_sql(shape, &format!("{name}' OR '1'='1"), &vals),
            1 => format!(
                "/* qid:u0 */ UPDATE accounts SET note = 'x' WHERE id = {} OR 1=1",
                row.id
            ),
            2 => {
                let n = PROJ[shape % PROJ.len()].len();
                let cols = ["id", "name", "note", "score"][..n].join(", ");
                point_sql(
                    shape,
                    &format!("{name}' UNION SELECT {cols} FROM accounts-- "),
                    &vals,
                )
            }
            3 => point_sql(shape, &format!("{name}'; DROP TABLE audit-- "), &vals),
            4 => format!(
                "/* qid:u0 */ UPDATE accounts SET note = 'x' WHERE id = {}; DELETE FROM accounts",
                row.id
            ),
            5 => point_sql(with_conj, &format!("{name}'-- "), &vals),
            6 => {
                let mimic: String = atoms(with_conj)
                    .iter()
                    .enumerate()
                    .map(|(n, &(_, op))| format!(" AND {} {} {}", n + 3, OPS[op], n + 3))
                    .collect();
                point_sql(with_conj, &format!("{name}'{mimic}-- "), &vals)
            }
            _ => point_sql(shape, &format!("{name}\u{02BC} OR 1=1-- "), &vals),
        };
        Op {
            kind: OpKind::Attack,
            class: 11,
            sql,
            expect: Expect::Blocked,
            user_bytes: 0,
        }
    }
}

impl Generator for Gen {
    fn next_op(&mut self, rng: &mut Rng) -> Op {
        self.pending = Pending::None;
        match rng.below(100) {
            0..=63 => self.point(rng),
            64..=71 => self.group(rng),
            72..=79 => self.join(rng),
            80..=89 => self.update(rng),
            90..=94 => self.audit(rng),
            _ => self.attack(rng),
        }
    }

    fn apply(&mut self, _op: &Op, got: &Got) {
        let Got::Ok { last_insert_id, .. } = got else {
            return;
        };
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::None => {}
            Pending::Note(k, note) => self.rows[k].note = note,
            Pending::NoteVisits(k, note, visits) => {
                self.rows[k].note = note;
                self.rows[k].visits = visits;
            }
            Pending::Visits(k, visits) => self.rows[k].visits = visits,
            Pending::Inserted => {
                if let Some(id) = last_insert_id {
                    self.audit.push_back(*id);
                }
            }
            Pending::Deleted => {
                self.audit.pop_front();
            }
        }
    }
}
