//! The three seeded workloads: lake shape, query tables, mutation tables
//! and each client's deterministic request stream.
//!
//! Everything here is a pure function of `(workload, seed)`: the same seed
//! gives byte-identical lake CSVs and request lines, another seed gives
//! different bytes with the same shape.

use dust_bench::json;
use dust_datagen::{derive_table, BenchmarkConfig, DeriveOptions, Domain, GeneratedBenchmark};
use dust_table::{write_csv, CsvOptions, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Output size of every diverse and similar request.
pub const K: usize = 10;
/// Topic domains (base tables) in every lake.
pub const DOMAINS: usize = 6;
/// Lake tables per domain (the SANTOS-small shape).
pub const LAKE_TABLES_PER_DOMAIN: usize = 6;
/// Tables the churn client cycles through (add, then remove, each in turn).
pub const CHURN_TABLES: usize = 4;
/// Distinct query tables for `similar` requests, 5 to 20 rows.
pub const SIMILAR_QUERIES: usize = 6;
/// Shares of its base table's rows each lake table keeps: domains with an
/// even index use the first, odd ones the second. Every table of a domain
/// has the same size, so candidate pools (5 tables each) are the same on
/// every seed; only the values change. On `diverse-large` the pools are
/// 2400 (even) and 2700 (odd): the odd domains' exceed the prune budget
/// s = 2500, the even ones' do not, and a query that retrieves one table of
/// the other parity stays on its side. The two sides cost about the same,
/// so the median does not jump with how many samples fall on each.
pub const LAKE_ROW_FRACTIONS: [f64; 2] = [0.4, 0.45];
/// Share of its base table's rows every diverse query table keeps (the
/// middle of the generator's 0.15–0.6 range). Churn tables keep their
/// domain's lake fraction and similar queries keep 5, 8, … 20 rows, so no
/// request's cost swings with the seed.
pub const QUERY_ROW_FRACTION: f64 = 0.375;

/// One benchmark workload (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SANTOS-small lake, 2 clients sending diverse requests.
    DiverseSmall,
    /// The same generator at `base_rows` 1200 (the s = 2500 regime), 1 client.
    DiverseLarge,
    /// The small lake behind a durable server: 1 mutating client beside
    /// 1 client alternating similar and diverse requests.
    ChurnDurable,
}

/// What one closed-loop client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Diverse requests only.
    Diverse,
    /// `add_table` / `remove_table` pairs over the churn tables.
    Mutate,
    /// `similar` and diverse requests, alternating.
    SimilarDiverse,
}

/// The request classes whose latencies are reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `mode:"diverse"` — the full Algorithm 1.
    Diverse,
    /// `mode:"similar"`.
    Similar,
    /// `add_table` / `remove_table`.
    Mutate,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::DiverseSmall,
        Workload::DiverseLarge,
        Workload::ChurnDurable,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiverseSmall => "diverse-small",
            Workload::DiverseLarge => "diverse-large",
            Workload::ChurnDurable => "churn-durable",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rows per generated base table.
    pub fn base_rows(self) -> usize {
        match self {
            Workload::DiverseLarge => 1200,
            Workload::DiverseSmall | Workload::ChurnDurable => 160,
        }
    }

    /// Distinct diverse query tables the clients cycle through.
    pub fn diverse_queries(self) -> usize {
        match self {
            Workload::DiverseSmall => 96,
            Workload::DiverseLarge => 6,
            Workload::ChurnDurable => 24,
        }
    }

    /// Whether `serve` runs with `--snapshot-dir`.
    pub fn durable(self) -> bool {
        self == Workload::ChurnDurable
    }

    /// The closed-loop clients, one entry each.
    pub fn roles(self) -> &'static [Role] {
        match self {
            Workload::DiverseSmall => &[Role::Diverse, Role::Diverse],
            Workload::DiverseLarge => &[Role::Diverse],
            Workload::ChurnDurable => &[Role::Mutate, Role::SimilarDiverse],
        }
    }
}

/// A named table rendered as CSV text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    /// Table name (the lake CSV's file stem).
    pub name: String,
    /// The CSV bytes.
    pub csv: String,
}

/// Everything a workload sends or loads, generated from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The lake, one CSV per table, in name order.
    pub lake: Vec<CsvTable>,
    /// Query tables of diverse requests.
    pub diverse: Vec<CsvTable>,
    /// 5–20-row query tables of similar requests.
    pub similar: Vec<CsvTable>,
    /// Tables the mutating client adds and removes, from the lake's domains.
    pub churn: Vec<CsvTable>,
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request class.
    pub class: Class,
    /// The JSONL line sent to the server (no trailing newline).
    pub line: String,
    /// The request id echoed in the response.
    pub id: String,
    /// What the request refers to.
    pub target: Target,
}

/// The input a request refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// `inputs.diverse[i]`.
    Diverse(usize),
    /// `inputs.similar[i]`.
    Similar(usize),
    /// Mutation number `n` (1-based: it publishes generation `n`).
    Mutation(u64),
}

fn derive_options() -> DeriveOptions {
    let santos = BenchmarkConfig::santos();
    DeriveOptions {
        min_row_fraction: santos.min_row_fraction,
        max_row_fraction: santos.max_row_fraction,
        min_columns: santos.min_columns,
        keep_subject: santos.keep_subject,
        alt_name_probability: santos.alt_name_probability,
    }
}

fn csv_table(table: &Table) -> CsvTable {
    CsvTable {
        name: table.name().to_string(),
        csv: write_csv(table, CsvOptions::default()),
    }
}

/// The lake generator configuration of a workload at a seed, keeping
/// `row_fraction` of the base rows in every lake table.
fn lake_config(workload: Workload, seed: u64, row_fraction: f64) -> BenchmarkConfig {
    BenchmarkConfig {
        name: workload.name().to_string(),
        num_domains: DOMAINS,
        base_rows: workload.base_rows(),
        queries_per_domain: 2,
        lake_tables_per_domain: LAKE_TABLES_PER_DOMAIN,
        min_row_fraction: row_fraction,
        max_row_fraction: row_fraction,
        seed,
        ..BenchmarkConfig::santos()
    }
}

/// Generate a workload's inputs from its seed.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    // One generated lake per row fraction; both derive from the same base
    // tables (those depend on the seed alone). Domain d takes its tables
    // from lake d % 2.
    let [even, odd] = LAKE_ROW_FRACTIONS.map(|f| lake_config(workload, seed, f).generate());
    let domains = Domain::all();
    let lake: Vec<CsvTable> = even
        .lake
        .tables()
        .map(|table| {
            let domain = GeneratedBenchmark::domain_of(table.name());
            let d = domains
                .iter()
                .position(|x| x.name == domain)
                .expect("generated domain");
            if d % 2 == 0 {
                csv_table(table)
            } else {
                csv_table(odd.lake.table(table.name()).expect("same table names"))
            }
        })
        .collect();
    let generated = even;
    let santos = derive_options();
    // Queries and churn tables come from the lake's own base tables, so
    // they share values with (and retrieve, or enter) same-domain tables.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EB0_0C4E_D1CE);
    let derive = |i: usize, kind: &str, row_fraction: f64, min_columns: usize, rng: &mut StdRng| {
        let d = i % generated.base_tables.len();
        let options = DeriveOptions {
            min_row_fraction: row_fraction,
            max_row_fraction: row_fraction,
            min_columns,
            ..santos
        };
        let name = format!("{}_{kind}_{i}", domains[d].name);
        derive_table(&generated.base_tables[d], &name, &options, rng)
    };
    // Query tables keep every column, so each retrieves its own domain's
    // tables and its pool size follows from the domain.
    let diverse = (0..workload.diverse_queries())
        .map(|i| {
            csv_table(&derive(
                i,
                "query",
                QUERY_ROW_FRACTION,
                usize::MAX,
                &mut rng,
            ))
        })
        .collect();
    // Churn tables keep every column too: with a random column subset a
    // seed could give tables that no query of their domain retrieves.
    let churn = (0..CHURN_TABLES)
        .map(|i| {
            let fraction = LAKE_ROW_FRACTIONS[i % DOMAINS % 2];
            csv_table(&derive(i, "churn", fraction, usize::MAX, &mut rng))
        })
        .collect();
    let similar = (0..SIMILAR_QUERIES)
        .map(|i| {
            let table = derive(i, "probe", QUERY_ROW_FRACTION, usize::MAX, &mut rng);
            let rows = 5 + 15 * i / (SIMILAR_QUERIES - 1);
            let head: Vec<usize> = (0..rows.min(table.num_rows())).collect();
            csv_table(&table.select(&head, table.name()).expect("row subset"))
        })
        .collect();
    Inputs {
        lake,
        diverse,
        similar,
        churn,
    }
}

/// Mutation number `n` (1-based) of the churn stream: odd numbers add a
/// churn table, even numbers remove it again, cycling through the tables.
/// Returns `(is_add, churn table index)`.
pub fn mutation(n: u64) -> (bool, usize) {
    let pair = (n - 1) / 2;
    (n % 2 == 1, (pair % CHURN_TABLES as u64) as usize)
}

/// The churn table present in the lake right after mutation `generation`
/// (`None`: the lake is the generated one).
pub fn churn_state(generation: u64) -> Option<usize> {
    if generation % 2 == 1 {
        Some(mutation(generation).1)
    } else {
        None
    }
}

fn read_line(id: &str, mode: &str, query: &CsvTable) -> String {
    format!(
        "{{\"id\":\"{id}\",\"mode\":\"{mode}\",\"k\":{K},\"csv\":\"{}\"}}",
        json::escape(&query.csv)
    )
}

/// Request `i` (0-based) of client `client` playing `role`. Mutations are
/// numbered by `i` alone: one client mutates, so its `i`-th request
/// publishes generation `i + 1`.
pub fn request(inputs: &Inputs, role: Role, client: usize, i: usize) -> Request {
    let id = format!("c{client}-{i}");
    let diverse = |j: usize| {
        let n = inputs.diverse.len();
        // clients start evenly spread over the query cycle
        let q = (j + client * n / 2) % n;
        Request {
            class: Class::Diverse,
            line: read_line(&id, "diverse", &inputs.diverse[q]),
            id: id.clone(),
            target: Target::Diverse(q),
        }
    };
    match role {
        Role::Diverse => diverse(i),
        Role::SimilarDiverse if i % 2 == 1 => diverse(i / 2),
        Role::SimilarDiverse => {
            let q = (i / 2) % inputs.similar.len();
            Request {
                class: Class::Similar,
                line: read_line(&id, "similar", &inputs.similar[q]),
                id: id.clone(),
                target: Target::Similar(q),
            }
        }
        Role::Mutate => {
            let n = i as u64 + 1;
            let (add, t) = mutation(n);
            let table = &inputs.churn[t];
            let line = if add {
                format!(
                    "{{\"id\":\"{id}\",\"mode\":\"add_table\",\"name\":\"{}\",\"csv\":\"{}\"}}",
                    json::escape(&table.name),
                    json::escape(&table.csv)
                )
            } else {
                format!(
                    "{{\"id\":\"{id}\",\"mode\":\"remove_table\",\"table\":\"{}\"}}",
                    json::escape(&table.name)
                )
            };
            Request {
                class: Class::Mutate,
                line,
                id: id.clone(),
                target: Target::Mutation(n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, inputs: &Inputs) -> Vec<String> {
        let mut lines = Vec::new();
        for (c, &role) in w.roles().iter().enumerate() {
            for i in 0..40 {
                lines.push(request(inputs, role, c, i).line);
            }
        }
        lines
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(a, b);
            assert_eq!(stream(w, &a), stream(w, &b));
        }
    }

    #[test]
    fn another_seed_gives_other_bytes_with_the_same_shape() {
        let w = Workload::ChurnDurable;
        let (a, b) = (generate(w, 7), generate(w, 8));
        assert_ne!(a.lake, b.lake);
        assert_ne!(stream(w, &a), stream(w, &b));
        let names = |t: &[CsvTable]| t.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
        for (x, y) in [
            (&a.lake, &b.lake),
            (&a.diverse, &b.diverse),
            (&a.similar, &b.similar),
            (&a.churn, &b.churn),
        ] {
            assert_eq!(names(x), names(y));
            for (p, q) in x.iter().zip(y) {
                assert_ne!(p.csv, q.csv, "{} did not change with the seed", p.name);
            }
        }
        assert_eq!(a.lake.len(), DOMAINS * LAKE_TABLES_PER_DOMAIN);
    }

    #[test]
    fn similar_queries_have_5_to_20_rows() {
        for t in generate(Workload::ChurnDurable, 3).similar {
            let rows = t.csv.lines().count() - 1;
            assert!((5..=20).contains(&rows), "{} has {rows} rows", t.name);
        }
    }

    #[test]
    fn mutations_alternate_add_and_remove_of_one_table() {
        assert_eq!(mutation(1), (true, 0));
        assert_eq!(mutation(2), (false, 0));
        assert_eq!(mutation(3), (true, 1));
        assert_eq!(mutation(2 * CHURN_TABLES as u64 + 1), (true, 0));
        assert_eq!(churn_state(0), None);
        assert_eq!(churn_state(3), Some(1));
        assert_eq!(churn_state(4), None);
    }
}
