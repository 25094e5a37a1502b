//! `durable_mix`: point reads beside autocommit writes on a durable
//! server (`Server::open_durable` over `FsIo`, default `WalConfig`), in
//! process. `FsIo` syncs every WAL append and every snapshot write.
//!
//! Each client owns the keys of its parity and writes only those, so the
//! acknowledged state is known exactly: after the load the benchmark
//! reopens the directory and compares the recovered table with it.
//! INSERTs and DELETEs balance, keeping the table near 512 rows and the
//! checkpoint size flat.
//!
//! One operation in five is a write. A read waits for the database
//! lock while the other session's write syncs the WAL; at half writes
//! most reads wait, and the median read then sits between the waiting and
//! the free mode and moves with every change in fsync time (10-seed
//! spread of the read median 0.198, against 0.066 at one in five).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use septic_dbms::{FsIo, Server, Value, WalConfig};

use crate::harness::Generator;
use crate::oracle::{i, s, Expect, Got, Op, OpKind};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{server_config, storage, train, Built, DurableReport, InProc, CLIENTS};

/// Rows loaded at set-up; the table stays near this size.
const ROWS: i64 = 512;
/// The key space: each client owns the keys of its parity.
const KEYS: i64 = 1024;
/// Share of operations that are writes, percent.
const WRITE_PERCENT: u64 = 20;

fn read_sql(id: i64) -> String {
    format!("/* qid:k0 */ SELECT val, payload FROM kv WHERE id = {id}")
}

fn update_sql(id: i64, val: i64, payload: &str) -> String {
    format!("/* qid:k1 */ UPDATE kv SET val = {val}, payload = '{payload}' WHERE id = {id}")
}

fn insert_sql(id: i64, owner: usize, val: i64, payload: &str) -> String {
    format!(
        "/* qid:k2 */ INSERT INTO kv (id, owner, val, payload) VALUES ({id}, {owner}, {val}, '{payload}')"
    )
}

fn delete_sql(id: i64) -> String {
    format!("/* qid:k3 */ DELETE FROM kv WHERE id = {id}")
}

/// Builds the deployment in `dir`: open the WAL, create and load the
/// table, train, switch to prevention, one session per client.
#[must_use]
pub fn setup(seed: u64, tracer: Option<&Arc<Tracer>>, dir: PathBuf) -> Built {
    let _ = std::fs::remove_dir_all(&dir);
    let io = storage(&dir, tracer);
    let (server, _) = Server::open_durable(server_config(), io, WalConfig::default())
        .expect("open the durable directory");
    let mut rng = Rng::new(seed, 4);
    let rows: Vec<(i64, i64, String)> = (0..ROWS)
        .map(|id| (id, rng.range(0, 1_000_000), rng.words(3)))
        .collect();
    let conn = server.connect();
    conn.execute("CREATE TABLE kv (id INT PRIMARY KEY, owner INT, val INT, payload VARCHAR(64))")
        .expect("create kv");
    let values: Vec<String> = rows
        .iter()
        .map(|(id, val, p)| format!("({id}, {}, {val}, '{p}')", id % CLIENTS as i64))
        .collect();
    conn.execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
        .expect("load kv");
    drop(conn);
    let (id0, val0, p0) = &rows[0];
    let outside = KEYS + 1;
    train(
        &server,
        [
            read_sql(*id0),
            update_sql(*id0, *val0, p0),
            insert_sql(outside, 0, 0, "training row"),
            delete_sql(outside),
        ],
        tracer,
    );
    let clients = (0..CLIENTS)
        .map(|_| Box::new(InProc(server.connect())) as Box<_>)
        .collect();
    let gens = (0..CLIENTS)
        .map(|c| {
            let present = rows
                .iter()
                .filter(|(id, _, _)| id % CLIENTS as i64 == c as i64)
                .cloned()
                .collect();
            let absent = (ROWS..KEYS)
                .filter(|id| id % CLIENTS as i64 == c as i64)
                .collect();
            Box::new(Gen {
                client: c,
                present,
                absent,
                pending: Pending::None,
            }) as Box<dyn Generator>
        })
        .collect();
    Built {
        server,
        clients,
        gens,
        front: None,
        dir: Some(dir),
    }
}

#[derive(Debug)]
enum Pending {
    None,
    Update(usize, i64, String),
    Insert(usize, i64, String),
    Delete(usize),
}

struct Gen {
    client: usize,
    /// Own keys present, with `val` and `payload`.
    present: Vec<(i64, i64, String)>,
    absent: Vec<i64>,
    pending: Pending,
}

impl Gen {
    fn update(&mut self, rng: &mut Rng) -> Op {
        let k = rng.index(self.present.len());
        let val = rng.range(0, 1_000_000);
        let payload = rng.words(4);
        let sql = update_sql(self.present[k].0, val, &payload);
        let user_bytes = 8 + payload.len() as u64;
        self.pending = Pending::Update(k, val, payload);
        Op {
            kind: OpKind::Write,
            class: 1,
            sql,
            expect: Expect::Affected(1),
            user_bytes,
        }
    }
}

impl Generator for Gen {
    fn next_op(&mut self, rng: &mut Rng) -> Op {
        self.pending = Pending::None;
        if rng.below(100) >= WRITE_PERCENT {
            let (id, rows) = if rng.below(10) == 0 {
                (self.absent[rng.index(self.absent.len())], vec![])
            } else {
                let (id, val, payload) = &self.present[rng.index(self.present.len())];
                (*id, vec![vec![i(*val), s(payload)]])
            };
            return Op {
                kind: OpKind::Read,
                class: 0,
                sql: read_sql(id),
                expect: Expect::Rows(rows),
                user_bytes: 0,
            };
        }
        if rng.below(10) < 8 {
            return self.update(rng);
        }
        if self.present.len() as i64 > ROWS / CLIENTS as i64 {
            let k = rng.index(self.present.len());
            self.pending = Pending::Delete(k);
            Op {
                kind: OpKind::Write,
                class: 3,
                sql: delete_sql(self.present[k].0),
                expect: Expect::Affected(1),
                user_bytes: 8,
            }
        } else {
            let k = rng.index(self.absent.len());
            let val = rng.range(0, 1_000_000);
            let payload = rng.words(4);
            let sql = insert_sql(self.absent[k], self.client, val, &payload);
            let user_bytes = 24 + payload.len() as u64;
            self.pending = Pending::Insert(k, val, payload);
            Op {
                kind: OpKind::Write,
                class: 2,
                sql,
                expect: Expect::Affected(1),
                user_bytes,
            }
        }
    }

    fn apply(&mut self, _op: &Op, got: &Got) {
        let pending = std::mem::replace(&mut self.pending, Pending::None);
        if !got.is_ok() {
            return;
        }
        match pending {
            Pending::None => {}
            Pending::Update(k, val, payload) => {
                self.present[k].1 = val;
                self.present[k].2 = payload;
            }
            Pending::Insert(k, val, payload) => {
                let id = self.absent.swap_remove(k);
                self.present.push((id, val, payload));
            }
            Pending::Delete(k) => {
                let (id, _, _) = self.present.swap_remove(k);
                self.absent.push(id);
            }
        }
    }

    fn drain_op(&mut self, rng: &mut Rng) -> Option<Op> {
        self.pending = Pending::None;
        Some(self.update(rng))
    }

    fn acked_rows(&self) -> Vec<Vec<Value>> {
        self.present
            .iter()
            .map(|(id, val, p)| vec![i(*id), i(self.client as i64), i(*val), s(p)])
            .collect()
    }
}

/// Reopens `dir` `reps` times, timing each `Server::open_durable`, and
/// compares the last recovered table with `expected` (the acknowledged
/// rows of every client).
#[must_use]
pub fn reopen_and_verify(dir: &Path, expected: &[Vec<Value>], reps: usize) -> DurableReport {
    let mut report = DurableReport::default();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let io = FsIo::open(dir).expect("reopen the durable directory");
        let t = Instant::now();
        let (s, recovery) = Server::open_durable(server_config(), io, WalConfig::default())
            .expect("recover the durable directory");
        report.recovery_s.push(t.elapsed().as_secs_f64());
        report.replayed_records = recovery.replayed_records;
        server = Some(s);
    }
    let server = server.expect("at least one reopen");
    let got = server
        .connect()
        .execute("SELECT id, owner, val, payload FROM kv ORDER BY id")
        .map(|r| r.last().map(|o| o.rows.clone()).unwrap_or_default())
        .unwrap_or_default();
    let by_key = |rows: &[Vec<Value>]| -> BTreeMap<i64, Vec<Value>> {
        rows.iter()
            .map(|r| match r.first() {
                Some(Value::Int(id)) => (*id, r.clone()),
                _ => (i64::MIN, r.clone()),
            })
            .collect()
    };
    let (got, want) = (by_key(&got), by_key(expected));
    let keys: BTreeSet<i64> = got.keys().chain(want.keys()).copied().collect();
    for key in keys {
        if got.get(&key) != want.get(&key) {
            report.missing += 1;
            if report.failures.len() < 5 {
                report.failures.push(format!(
                    "after reopen key {key}: acknowledged {:?}, recovered {:?}",
                    want.get(&key),
                    got.get(&key)
                ));
            }
        }
    }
    report
}
