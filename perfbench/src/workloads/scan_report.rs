//! `scan_report`: read-only reporting queries, in process, over one
//! 1,024-row fact table, a 16-row dimension table and a 128-row stock
//! table: range filters, GROUP BY aggregates and JOINs in 16 trained
//! shapes, which fit every cache. Row evaluation is almost all of each
//! request. Every operation takes a few hundred microseconds: the JOINs
//! are nested loops over 128 x 16 row pairs, not over the fact table,
//! so no operation is long enough for the host's scheduling to set its
//! median.

use std::collections::BTreeMap;
use std::sync::Arc;

use septic_dbms::{Server, Value};

use crate::harness::Generator;
use crate::oracle::{i, s, Expect, Got, Op, OpKind};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{server_config, train, Built, InProc, CLIENTS};

const SALES: i64 = 1024;
const PRODUCTS: i64 = 16;
const REGIONS: i64 = 8;
/// One `stock` row per product and region.
const STOCK: i64 = PRODUCTS * REGIONS;
const DAYS: i64 = 365;
/// Trained statement shapes.
pub const SHAPES: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Sale {
    id: i64,
    region: i64,
    product: i64,
    qty: i64,
    price: i64,
    day: i64,
}

#[derive(Debug, Clone, Copy)]
struct Stock {
    id: i64,
    product: i64,
    region: i64,
    units: i64,
}

/// The benchmark's copy of the tables.
struct Data {
    sales: Vec<Sale>,
    stock: Vec<Stock>,
}

fn data(seed: u64) -> Data {
    let mut rng = Rng::new(seed, 2);
    let sales = (0..SALES)
        .map(|id| Sale {
            id,
            region: rng.range(0, REGIONS - 1),
            product: rng.range(0, PRODUCTS - 1),
            qty: rng.range(1, 20),
            price: rng.range(5, 500),
            day: rng.range(0, DAYS - 1),
        })
        .collect();
    let stock = (0..STOCK)
        .map(|id| Stock {
            id,
            product: id / REGIONS,
            region: id % REGIONS,
            units: rng.range(0, 500),
        })
        .collect();
    Data { sales, stock }
}

fn category_of(product: i64) -> i64 {
    product % 8
}

fn product_name(product: i64) -> String {
    format!("p{product:02}")
}

fn sum(values: impl Iterator<Item = i64>) -> Value {
    let mut n = 0;
    let mut total = 0i64;
    for v in values {
        n += 1;
        total += v;
    }
    if n == 0 {
        Value::Null
    } else {
        Value::Real(total as f64)
    }
}

fn opt(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// The SQL of shape `shape` with parameters `p`.
fn shape_sql(shape: usize, p: &[i64]) -> String {
    let body = match shape {
        0 => format!("SELECT COUNT(*), SUM(qty) FROM sales WHERE day BETWEEN {} AND {}", p[0], p[1]),
        1 => format!("SELECT region, COUNT(*), SUM(price) FROM sales WHERE day >= {} AND day < {} GROUP BY region ORDER BY region", p[0], p[1]),
        2 => format!("SELECT product, SUM(qty) FROM sales WHERE region = {} GROUP BY product ORDER BY product", p[0]),
        3 => format!("SELECT MIN(price), MAX(price) FROM sales WHERE product = {}", p[0]),
        4 => format!("SELECT id, qty, price FROM sales WHERE region = {} AND day BETWEEN {} AND {} AND price > {} ORDER BY id LIMIT 20", p[0], p[1], p[2], p[3]),
        5 => format!("SELECT COUNT(*) FROM sales WHERE price * qty > {}", p[0]),
        6 => format!("SELECT region, MAX(qty) FROM sales WHERE product < {} GROUP BY region HAVING COUNT(*) > {} ORDER BY region", p[0], p[1]),
        7 => format!("SELECT day, COUNT(*) FROM sales WHERE region = {} AND product = {} GROUP BY day ORDER BY day", p[0], p[1]),
        8 => format!("SELECT COUNT(*), SUM(price) FROM sales WHERE qty >= {} AND region <> {}", p[0], p[1]),
        9 => format!("SELECT id FROM sales WHERE product = {} AND day > {} ORDER BY id", p[0], p[1]),
        10 => format!("SELECT region, product, COUNT(*) FROM sales WHERE day BETWEEN {} AND {} GROUP BY region, product HAVING COUNT(*) >= 2 ORDER BY region, product", p[0], p[1]),
        11 => format!("SELECT COUNT(*) FROM sales WHERE region IN ({}, {}, {})", p[0], p[1], p[2]),
        12 => format!("SELECT MAX(day), MIN(day) FROM sales WHERE price BETWEEN {} AND {}", p[0], p[1]),
        13 => format!("SELECT product, COUNT(*) FROM sales WHERE price > {} GROUP BY product HAVING SUM(qty) > {} ORDER BY product", p[0], p[1]),
        14 => format!("SELECT p.name, k.units FROM stock k JOIN products p ON p.id = k.product WHERE k.region = {} AND k.units > {} ORDER BY k.id", p[0], p[1]),
        _ => format!("SELECT p.category, SUM(k.units) FROM products p JOIN stock k ON k.product = p.id WHERE k.region <> {} AND k.units > {} GROUP BY p.category ORDER BY p.category", p[0], p[1]),
    };
    format!("/* qid:r{shape} */ {body}")
}

/// Random parameters for a shape.
fn params(shape: usize, rng: &mut Rng) -> Vec<i64> {
    let day_range = |rng: &mut Rng| {
        let a = rng.range(0, DAYS - 1);
        let b = (a + rng.range(0, 90)).min(DAYS - 1);
        (a, b)
    };
    match shape {
        0 | 1 | 10 => {
            let (a, b) = day_range(rng);
            vec![a, b]
        }
        2 => vec![rng.range(0, REGIONS - 1)],
        3 => vec![rng.range(0, PRODUCTS - 1)],
        4 => {
            let (a, b) = day_range(rng);
            vec![rng.range(0, REGIONS - 1), a, b, rng.range(5, 500)]
        }
        5 => vec![rng.range(0, 10_000)],
        6 => vec![rng.range(1, PRODUCTS), rng.range(0, 40)],
        7 => vec![rng.range(0, REGIONS - 1), rng.range(0, PRODUCTS - 1)],
        8 => vec![rng.range(1, 20), rng.range(0, REGIONS - 1)],
        9 => vec![rng.range(0, PRODUCTS - 1), rng.range(0, DAYS - 1)],
        11 => (0..3).map(|_| rng.range(0, REGIONS - 1)).collect(),
        12 => {
            let x = rng.range(5, 500);
            vec![x, (x + rng.range(0, 100)).min(500)]
        }
        13 => vec![rng.range(5, 500), rng.range(0, 60)],
        _ => vec![rng.range(0, REGIONS - 1), rng.range(0, 400)],
    }
}

/// The rows shape `shape` must return, computed from the shadow.
fn expected(shape: usize, p: &[i64], d: &Data) -> Vec<Vec<Value>> {
    let t = &d.sales;
    match shape {
        0 => {
            let m: Vec<&Sale> = t
                .iter()
                .filter(|x| x.day >= p[0] && x.day <= p[1])
                .collect();
            vec![vec![i(m.len() as i64), sum(m.iter().map(|x| x.qty))]]
        }
        1 => {
            let mut g: BTreeMap<i64, Vec<&Sale>> = BTreeMap::new();
            for x in t.iter().filter(|x| x.day >= p[0] && x.day < p[1]) {
                g.entry(x.region).or_default().push(x);
            }
            g.iter()
                .map(|(k, v)| vec![i(*k), i(v.len() as i64), sum(v.iter().map(|x| x.price))])
                .collect()
        }
        2 => {
            let mut g: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for x in t.iter().filter(|x| x.region == p[0]) {
                g.entry(x.product).or_default().push(x.qty);
            }
            g.into_iter()
                .map(|(k, v)| vec![i(k), sum(v.into_iter())])
                .collect()
        }
        3 => {
            let m = t.iter().filter(|x| x.product == p[0]).map(|x| x.price);
            let (lo, hi) = m.fold((None::<i64>, None::<i64>), |(lo, hi), v| {
                (
                    Some(lo.map_or(v, |l| l.min(v))),
                    Some(hi.map_or(v, |h| h.max(v))),
                )
            });
            vec![vec![opt(lo), opt(hi)]]
        }
        4 => t
            .iter()
            .filter(|x| x.region == p[0] && x.day >= p[1] && x.day <= p[2] && x.price > p[3])
            .take(20)
            .map(|x| vec![i(x.id), i(x.qty), i(x.price)])
            .collect(),
        5 => vec![vec![i(
            t.iter().filter(|x| x.price * x.qty > p[0]).count() as i64
        )]],
        6 => {
            let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for x in t.iter().filter(|x| x.product < p[0]) {
                let e = g.entry(x.region).or_insert((0, i64::MIN));
                e.0 += 1;
                e.1 = e.1.max(x.qty);
            }
            g.into_iter()
                .filter(|(_, (n, _))| *n > p[1])
                .map(|(k, (_, m))| vec![i(k), i(m)])
                .collect()
        }
        7 => {
            let mut g: BTreeMap<i64, i64> = BTreeMap::new();
            for x in t.iter().filter(|x| x.region == p[0] && x.product == p[1]) {
                *g.entry(x.day).or_default() += 1;
            }
            g.into_iter().map(|(k, n)| vec![i(k), i(n)]).collect()
        }
        8 => {
            let m: Vec<&Sale> = t
                .iter()
                .filter(|x| x.qty >= p[0] && x.region != p[1])
                .collect();
            vec![vec![i(m.len() as i64), sum(m.iter().map(|x| x.price))]]
        }
        9 => t
            .iter()
            .filter(|x| x.product == p[0] && x.day > p[1])
            .map(|x| vec![i(x.id)])
            .collect(),
        10 => {
            let mut g: BTreeMap<(i64, i64), i64> = BTreeMap::new();
            for x in t.iter().filter(|x| x.day >= p[0] && x.day <= p[1]) {
                *g.entry((x.region, x.product)).or_default() += 1;
            }
            g.into_iter()
                .filter(|(_, n)| *n >= 2)
                .map(|((r, pr), n)| vec![i(r), i(pr), i(n)])
                .collect()
        }
        11 => vec![vec![i(
            t.iter().filter(|x| p.contains(&x.region)).count() as i64
        )]],
        12 => {
            let m = t.iter().filter(|x| x.price >= p[0] && x.price <= p[1]);
            let (hi, lo) = m.fold((None::<i64>, None::<i64>), |(hi, lo), x| {
                (
                    Some(hi.map_or(x.day, |h| h.max(x.day))),
                    Some(lo.map_or(x.day, |l| l.min(x.day))),
                )
            });
            vec![vec![opt(hi), opt(lo)]]
        }
        13 => {
            let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for x in t.iter().filter(|x| x.price > p[0]) {
                let e = g.entry(x.product).or_default();
                e.0 += 1;
                e.1 += x.qty;
            }
            g.into_iter()
                .filter(|(_, (_, q))| *q > p[1])
                .map(|(k, (n, _))| vec![i(k), i(n)])
                .collect()
        }
        14 => d
            .stock
            .iter()
            .filter(|k| k.region == p[0] && k.units > p[1])
            .map(|k| vec![s(&product_name(k.product)), i(k.units)])
            .collect(),
        _ => {
            let mut g: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for k in d
                .stock
                .iter()
                .filter(|k| k.region != p[0] && k.units > p[1])
            {
                g.entry(category_of(k.product)).or_default().push(k.units);
            }
            g.into_iter()
                .map(|(c, v)| vec![i(c), sum(v.into_iter())])
                .collect()
        }
    }
}

/// Builds the deployment: schema, training, prevention, rows and one
/// in-process session per client.
#[must_use]
pub fn setup(seed: u64, tracer: Option<&Arc<Tracer>>) -> Built {
    let server = Server::with_config(server_config());
    let table = Arc::new(data(seed));
    let conn = server.connect();
    conn.execute("CREATE TABLE sales (id INT PRIMARY KEY, region INT, product INT, qty INT, price INT, day INT)")
        .expect("create sales");
    conn.execute("CREATE TABLE products (id INT PRIMARY KEY, name VARCHAR(16), category INT)")
        .expect("create products");
    conn.execute("CREATE TABLE stock (id INT PRIMARY KEY, product INT, region INT, units INT)")
        .expect("create stock");
    // Training runs before the rows are loaded: a statement's shape does
    // not depend on the data, and on empty tables the training queries cost
    // nothing, so set-up time is deployment work, not executor work.
    let mut rng = Rng::new(seed, 3);
    let training: Vec<String> = (0..SHAPES)
        .map(|shape| shape_sql(shape, &params(shape, &mut rng)))
        .collect();
    train(&server, training, tracer);
    for chunk in table.sales.chunks(512) {
        let values: Vec<String> = chunk
            .iter()
            .map(|x| {
                format!(
                    "({}, {}, {}, {}, {}, {})",
                    x.id, x.region, x.product, x.qty, x.price, x.day
                )
            })
            .collect();
        conn.execute(&format!("INSERT INTO sales VALUES {}", values.join(", ")))
            .expect("load sales");
    }
    let products: Vec<String> = (0..PRODUCTS)
        .map(|p| format!("({p}, '{}', {})", product_name(p), category_of(p)))
        .collect();
    conn.execute(&format!(
        "INSERT INTO products VALUES {}",
        products.join(", ")
    ))
    .expect("load products");
    let stock: Vec<String> = table
        .stock
        .iter()
        .map(|k| format!("({}, {}, {}, {})", k.id, k.product, k.region, k.units))
        .collect();
    conn.execute(&format!("INSERT INTO stock VALUES {}", stock.join(", ")))
        .expect("load stock");
    let clients = (0..CLIENTS)
        .map(|_| Box::new(InProc(server.connect())) as Box<_>)
        .collect();
    let gens = (0..CLIENTS)
        .map(|c| {
            // Each client cycles through every shape in its own seeded
            // order, so a run's mix is exact however long it lasts.
            let mut order: Vec<usize> = (0..SHAPES).collect();
            let mut rng = Rng::new(seed, 10 + c as u64);
            for k in (1..SHAPES).rev() {
                order.swap(k, rng.index(k + 1));
            }
            Box::new(Gen {
                table: Arc::clone(&table),
                order,
                next: 0,
            }) as Box<dyn Generator>
        })
        .collect();
    Built {
        server,
        clients,
        gens,
        front: None,
        dir: None,
    }
}

struct Gen {
    table: Arc<Data>,
    order: Vec<usize>,
    next: usize,
}

impl Generator for Gen {
    fn next_op(&mut self, rng: &mut Rng) -> Op {
        let shape = self.order[self.next % SHAPES];
        self.next += 1;
        let p = params(shape, rng);
        Op {
            kind: OpKind::Read,
            class: shape as u16,
            sql: shape_sql(shape, &p),
            expect: Expect::Rows(expected(shape, &p, &self.table)),
            user_bytes: 0,
        }
    }

    fn apply(&mut self, _op: &Op, _got: &Got) {}
}
