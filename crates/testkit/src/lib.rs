//! Fixtures and the no-reuse oracle shared by the workspace's
//! integration tests.
//!
//! ReStore's invariant is that reuse never changes a query's answer.
//! [`Oracle::check`] is that invariant as one call: it runs a sequence of
//! queries on a session, runs each again on a fresh
//! [`ReStoreConfig::baseline`] session over the same DFS, and names the
//! first query whose output differs. After the sequence it runs
//! [`check_repository`]: every record the session holds points at a
//! file that reads back whole and is still the one it registered.
//!
//! Outputs are compared as their lines, sorted, byte for byte — the
//! order reducers wrote them in is the only freedom. They are never
//! decoded first: text re-infers a value's type on read, so `"007"` and
//! `"7"` both decode to `Int(7)`, and a comparison of decoded tuples
//! cannot see reuse retype a value.
//!
//! The fixtures build what every test would otherwise build by hand: a
//! small DFS holding the given files ([`small_dfs`], [`pv_users`]), an
//! engine and a session over it ([`engine_over`], [`session_over`]), the
//! two queries most tests run over `/data/pv` and `/data/users`
//! ([`sum_query`], [`join_query`]), and a journaling session that keeps
//! its base and its sealed segments ([`Journaled`]).

use restore_common::{codec, typed, Tuple};
use restore_core::{JournalConfig, QueryExecution, ReStore, ReStoreConfig};
use restore_dataflow::template::{Key, MARK};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

/// The `/data/pv` fixture: `(user, n)` rows, one user twice.
const PV: &[u8] = b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n";

/// The `/data/users` fixture: `(name, city)` rows; carol has no city.
const USERS: &[u8] = b"alice\tkitchener\nbob\ttoronto\n";

/// A DFS holding `files`, written in order (each write is one commit
/// tick), over `config` or [`DfsConfig::small_for_tests`].
pub fn small_dfs(config: Option<DfsConfig>, files: &[(&str, &[u8])]) -> Dfs {
    let dfs = Dfs::new(config.unwrap_or_else(DfsConfig::small_for_tests));
    for (path, bytes) in files {
        dfs.write_all(path, bytes).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    dfs
}

/// A small DFS holding `/data/pv` (tick 1): alice 4, bob 7, alice 1 and
/// carol 9, and `/data/users` (tick 2): alice in kitchener and bob in
/// toronto; carol has no city.
pub fn pv_users() -> Dfs {
    small_dfs(None, &[("/data/pv", PV), ("/data/users", USERS)])
}

/// An engine over `dfs` on the default cluster, with `config` or the
/// default engine configuration.
pub fn engine_over(dfs: Dfs, config: Option<EngineConfig>) -> Engine {
    Engine::new(dfs, ClusterConfig::default(), config.unwrap_or_default())
}

/// A session over `dfs` on the default engine.
pub fn session_over(dfs: &Dfs, config: ReStoreConfig) -> ReStore {
    ReStore::new(engine_over(dfs.clone(), None), config)
}

/// Replace the file at `path` with `bytes`, behind any session's back.
pub fn overwrite(dfs: &Dfs, path: &str, bytes: &[u8]) {
    let mut w = dfs.create_overwrite(path).unwrap();
    w.write(bytes);
    w.close().unwrap_or_else(|e| panic!("overwriting {path}: {e}"));
}

/// Group `/data/pv` by user and sum: one job.
pub fn sum_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    )
}

/// Join `/data/users` with `/data/pv`, then group by user and sum: two
/// jobs, the group reading the join's `tmp-0`.
pub fn join_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, revenue:int);
         B = load '/data/users' as (name, city);
         C = join B by name, A by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.revenue);
         store E into '{out}';"
    )
}

/// The lines of the file at `path`, sorted: its bytes up to the order
/// reducers wrote them in. Panics when the file does not read back as
/// UTF-8 text.
pub fn read_lines_sorted(dfs: &Dfs, path: &str) -> Vec<String> {
    lines_sorted(dfs, path).unwrap_or_else(|e| panic!("{e}"))
}

/// `rows` as the sorted lines a text output holding them reads back as:
/// what [`read_lines_sorted`] returns for a file that holds exactly them.
pub fn lines_of(rows: &[Tuple]) -> Vec<String> {
    let text = String::from_utf8(codec::encode_all(rows)).expect("the text codec writes UTF-8");
    sorted(&text)
}

fn lines_sorted(dfs: &Dfs, path: &str) -> Result<Vec<String>, String> {
    let bytes = dfs.read_all(path).map_err(|e| format!("{path} does not read back: {e}"))?;
    let text = String::from_utf8(bytes).map_err(|e| format!("{path} is not UTF-8 text: {e}"))?;
    Ok(sorted(&text))
}

fn sorted(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// Where [`Oracle::check`]'s baseline run of a query stored what the
/// query stores at `path`: `path` under `/baseline`. A test that needs
/// more than sorted lines — an `order` query's line order — compares
/// with the bytes there.
pub fn baseline_output(path: &str) -> String {
    format!("/baseline{path}")
}

/// The no-reuse oracle (see the crate documentation).
pub struct Oracle;

impl Oracle {
    /// Run `sequence` in order on `rs`'s default namespace, and each
    /// query again, right after, on one fresh [`ReStoreConfig::baseline`]
    /// session over the same DFS; then [`check_repository`]. Returns the
    /// session's executions, or the first divergence: the query's index
    /// in `sequence`, the session's sorted output lines (got) and the
    /// baseline's (want).
    ///
    /// A query's first store path names its runs: the session runs it
    /// under the workflow prefix `/wf{path}`, the baseline stores every
    /// path under `/baseline` and runs under `/wf/baseline{path}`. So
    /// every query must store into paths no earlier query wrote, in this
    /// call or an earlier one over the same DFS; a query that does not
    /// is refused before it runs.
    pub fn check<S: AsRef<str>>(
        rs: &ReStore,
        sequence: &[S],
    ) -> Result<Vec<QueryExecution>, String> {
        let dfs = rs.engine().dfs();
        let baseline = ReStore::new(rs.engine().clone(), ReStoreConfig::baseline());
        let mut runs = Vec::with_capacity(sequence.len());
        for (i, text) in sequence.iter().enumerate() {
            let text = text.as_ref();
            let key = Key::of(text, "")
                .filter(|key| !key.literals().is_empty())
                .ok_or_else(|| format!("query {i} has no store path to bind:\n{text}"))?;
            let first = key.literals()[0];
            if let Some(taken) = key
                .literals()
                .iter()
                .flat_map(|lit| [lit.to_string(), baseline_output(lit)])
                .find(|path| dfs.exists(path))
            {
                return Err(format!("query {i} stores into {taken}, which already exists"));
            }
            // Marks are replaced highest first, so mark 1 never matches
            // the start of mark 10.
            let mut rebound = key.masked().to_string();
            for (n, lit) in key.literals().iter().enumerate().rev() {
                rebound = rebound.replace(&format!("{MARK}{n}"), &baseline_output(lit));
            }

            let got = rs
                .execute_query(text, &format!("/wf{first}"))
                .map_err(|e| format!("query {i} failed with reuse: {e}"))?;
            let want = baseline
                .execute_query(&rebound, &format!("/wf{}", baseline_output(first)))
                .map_err(|e| format!("query {i} failed without reuse: {e}"))?;
            let got_lines = lines_sorted(dfs, &got.final_output)
                .map_err(|e| format!("query {i} with reuse: {e}"))?;
            let want_lines = lines_sorted(dfs, &want.final_output)
                .map_err(|e| format!("query {i} without reuse: {e}"))?;
            if got_lines != want_lines {
                return Err(format!(
                    "query {i} (stores {first}): got {got_lines:?}, want {want_lines:?}"
                ));
            }
            runs.push(got);
        }
        check_repository(rs)?;
        Ok(runs)
    }
}

/// Every record in every namespace of `rs` — an entry's, or a second
/// file holding a plan an entry stores — points at a file that reads
/// back in full and decodes, typed or text, and is the file it recorded:
/// at the tick it holds. Every entry's record is the one its namespace
/// holds for its path.
pub fn check_repository(rs: &ReStore) -> Result<(), String> {
    let dfs = rs.engine().dfs();
    let tenants = rs.tenant_ids();
    let spaces = std::iter::once(None).chain(tenants.iter().map(|t| Some(t.as_str())));
    for tenant in spaces {
        let space = tenant.unwrap_or("the default namespace");
        let repo = rs.repository_as(tenant);
        if let Some(e) = repo.entries().iter().find(|e| repo.file(&e.file.path) != Some(&e.file)) {
            return Err(format!("{space}: entry {} is not its path's record", e.id));
        }
        let mut files: Vec<_> = repo.files().collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        for f in files {
            let bytes = dfs
                .read_all(&f.path)
                .map_err(|err| format!("{space}: a record points at {}: {err}", f.path))?;
            typed::decode_any(&bytes)
                .map_err(|err| format!("{space}: the file {} does not decode: {err}", f.path))?;
            let version = dfs.status(&f.path).map_or(0, |status| status.mtime);
            if version != f.tick {
                return Err(format!(
                    "{space}: the file {} is at version {version}, not the {} it registered",
                    f.path, f.tick
                ));
            }
        }
    }
    Ok(())
}

/// A journaling session and what it has journaled: the base its
/// journal continues from, and every segment sealed since, in order.
pub struct Journaled {
    pub session: ReStore,
    pub base: String,
    pub segments: Vec<String>,
}

impl Journaled {
    /// A default-config session over `dfs` (engine from `engine`, as in
    /// [`engine_over`]), loaded from `from` when given, with a `journal`
    /// enabled. The base is `from`, or the session's first dump.
    pub fn start(
        dfs: &Dfs,
        engine: Option<EngineConfig>,
        journal: JournalConfig,
        from: Option<&str>,
    ) -> Journaled {
        let session = ReStore::new(engine_over(dfs.clone(), engine), ReStoreConfig::default());
        if let Some(base) = from {
            session.recover(base, &[]).expect("the base loads");
        }
        session.enable_journal(journal);
        let base = from.map_or_else(|| session.save_state(), str::to_string);
        Journaled { session, base, segments: Vec::new() }
    }

    /// Seal what the journal recorded since the last seal: the new
    /// segments, which are also appended to [`Journaled::segments`].
    pub fn seal(&mut self) -> Vec<String> {
        let sealed = self.session.save_state_delta().expect("the journal is enabled");
        self.segments.extend(sealed.iter().cloned());
        sealed
    }
}
