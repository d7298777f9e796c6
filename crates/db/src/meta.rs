//! The queryable rule meta-database: system state as relations.
//!
//! The paper makes events and rules first-class objects; this module
//! goes one step further and makes the *behaviour* of the rule system
//! first-class too. Seven tabular relations project live engine state —
//! the rule catalog, subscriptions, the firing-history ring, the
//! cascade edges recorded in it, the static triggering graph, the
//! termination prover's verdicts, and the pending timer wheel — into a
//! tiny relational algebra
//! ([`Relation`]) with filter / project / join / aggregate combinators,
//! so "which rule fired most", "what did firing #12 cause", and "which
//! rules lack a termination proof" are queries rather than debugger
//! sessions.
//!
//! | relation        | one row per…                                     |
//! |-----------------|--------------------------------------------------|
//! | `rules`         | rule object (name, coupling, priority, bodies)   |
//! | `subscriptions` | object- or class-level subscription              |
//! | `firings`       | firing record in the history ring                |
//! | `cascade_edges` | parent→child firing pair in the ring             |
//! | `graph_edges`   | static triggering-graph edge, with its kind      |
//! | `termination`   | rule verdict: proven(bound) / undischarged / …   |
//! | `timers`        | pending timer in the wheel (due, period, owner)  |

use crate::database::Database;
use sentinel_analyze::{
    ConflictMatrix, Lane, ObservedEdge, ObservedLanes, ObservedRootDepth, ReconciliationReport,
};
use sentinel_object::{ObjectError, Oid, Result, Value};
use sentinel_telemetry::{ExecutionLane, FiringOutcome, FiringRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The relation names served by [`Database::meta_relation`].
pub const META_RELATIONS: [&str; 7] = [
    "rules",
    "subscriptions",
    "firings",
    "cascade_edges",
    "graph_edges",
    "termination",
    "timers",
];

/// A comparison operator for [`Relation::filter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Substring containment (strings only).
    Contains,
}

impl CmpOp {
    /// Parse the operator spelling used by the shell (`=`, `==`, `!=`,
    /// `<`, `<=`, `>`, `>=`, `~`).
    pub fn parse(s: &str) -> Result<CmpOp> {
        Ok(match s {
            "=" | "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "~" => CmpOp::Contains,
            _ => {
                return Err(ObjectError::App(format!(
                    "unknown operator `{s}` (expected =, !=, <, <=, >, >= or ~)"
                )))
            }
        })
    }

    fn matches(self, cell: &Value, rhs: &Value) -> bool {
        if let CmpOp::Contains = self {
            return match (cell, rhs) {
                (Value::Str(a), Value::Str(b)) => a.contains(b.as_str()),
                _ => false,
            };
        }
        let Some(ord) = cell.compare(rhs) else {
            // Incomparable cells satisfy only `!=`.
            return self == CmpOp::Ne;
        };
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Contains => unreachable!(),
        }
    }
}

/// An in-memory table: named columns over [`Value`] rows, with the
/// combinators the shell's `query` command composes.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    /// An empty relation with the given name and column headers.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Relation {
        Relation {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column headers, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows (each the same arity as [`columns`](Self::columns)).
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row; panics (debug) on arity mismatch.
    pub fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    fn col(&self, name: &str) -> Result<usize> {
        self.columns.iter().position(|c| c == name).ok_or_else(|| {
            ObjectError::App(format!(
                "relation `{}` has no column `{name}` (columns: {})",
                self.name,
                self.columns.join(", ")
            ))
        })
    }

    /// Keep only rows whose `column` cell satisfies `op rhs`.
    pub fn filter(&self, column: &str, op: CmpOp, rhs: &Value) -> Result<Relation> {
        let i = self.col(column)?;
        Ok(Relation {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| op.matches(&r[i], rhs))
                .cloned()
                .collect(),
        })
    }

    /// Project onto the named columns, in the order given.
    pub fn select(&self, columns: &[&str]) -> Result<Relation> {
        let idx: Vec<usize> = columns.iter().map(|c| self.col(c)).collect::<Result<_>>()?;
        Ok(Relation {
            name: self.name.clone(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: self
                .rows
                .iter()
                .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                .collect(),
        })
    }

    /// Equi-join with `other` on `left_col = right_col`. Columns of
    /// `other` that collide with a column of `self` come out prefixed
    /// with `other`'s relation name (`firings.rule`).
    pub fn join(&self, other: &Relation, left_col: &str, right_col: &str) -> Result<Relation> {
        let li = self.col(left_col)?;
        let ri = other.col(right_col)?;
        let mut columns = self.columns.clone();
        for c in &other.columns {
            if self.columns.contains(c) {
                columns.push(format!("{}.{c}", other.name));
            } else {
                columns.push(c.clone());
            }
        }
        let mut rows = Vec::new();
        for l in &self.rows {
            for r in &other.rows {
                if l[li].compare(&r[ri]) == Some(std::cmp::Ordering::Equal) {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
            }
        }
        Ok(Relation {
            name: format!("{}*{}", self.name, other.name),
            columns,
            rows,
        })
    }

    /// Group by `column` and count rows per group. Returns a relation
    /// `(column, count)` sorted by count descending, then key.
    pub fn group_count(&self, column: &str) -> Result<Relation> {
        self.group_agg(column, None, "count")
    }

    /// Group by `group_col` and sum the integer/float `val_col` per
    /// group. Returns `(group_col, sum)` sorted by sum descending.
    pub fn group_sum(&self, group_col: &str, val_col: &str) -> Result<Relation> {
        self.group_agg(group_col, Some(val_col), "sum")
    }

    fn group_agg(&self, group_col: &str, val_col: Option<&str>, out: &str) -> Result<Relation> {
        let gi = self.col(group_col)?;
        let vi = val_col.map(|c| self.col(c)).transpose()?;
        let mut acc: BTreeMap<String, (Value, i64)> = BTreeMap::new();
        for r in &self.rows {
            let key = render_cell(&r[gi]);
            let entry = acc.entry(key).or_insert_with(|| (r[gi].clone(), 0));
            entry.1 += match vi {
                None => 1,
                Some(i) => match &r[i] {
                    Value::Int(n) => *n,
                    Value::Float(f) => *f as i64,
                    _ => 0,
                },
            };
        }
        let mut rows: Vec<(Value, i64)> = acc.into_values().collect();
        rows.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| render_cell(&a.0).cmp(&render_cell(&b.0)))
        });
        let mut rel = Relation::new(format!("{}/{out}", self.name), &[group_col, out]);
        for (k, n) in rows {
            rel.push(vec![k, Value::Int(n)]);
        }
        Ok(rel)
    }

    /// Stable sort by `column` (descending when `desc`); incomparable
    /// cells keep their relative order.
    pub fn sort_by(&self, column: &str, desc: bool) -> Result<Relation> {
        let i = self.col(column)?;
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            let ord = a[i].compare(&b[i]).unwrap_or(std::cmp::Ordering::Equal);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok(Relation {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows,
        })
    }

    /// Keep the first `n` rows.
    pub fn take(&self, n: usize) -> Relation {
        Relation {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
        }
    }

    /// Fixed-width text table: header, rule line, rows, row count.
    pub fn render(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(render_cell).collect())
            .collect();
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                cells
                    .iter()
                    .map(|r| r[i].len())
                    .max()
                    .unwrap_or(0)
                    .max(c.len())
            })
            .collect();
        let mut s = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
        }
        s.truncate(s.trim_end().len());
        s.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            let _ = write!(s, "{:-<w$}  ", "", w = widths[i]);
        }
        s.truncate(s.trim_end().len());
        s.push('\n');
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", cell, w = widths[i]);
            }
            s.truncate(s.trim_end().len());
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "({} row{})",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        );
        s
    }
}

/// A cell rendered for tables and grouping keys: strings bare, the
/// rest via `Value`'s `Display`.
fn render_cell(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

impl Database {
    /// The `rules` relation: one row per rule object, sorted by name.
    /// Columns: `rule, oid, coupling, priority, enabled, event,
    /// condition, action`.
    pub fn meta_rules(&self) -> Relation {
        let mut rel = Relation::new(
            "rules",
            &[
                "rule",
                "oid",
                "coupling",
                "priority",
                "enabled",
                "event",
                "condition",
                "action",
            ],
        );
        let mut rules: Vec<_> = self.engine.iter_rules().collect();
        rules.sort_by(|a, b| a.def.name.cmp(&b.def.name));
        for r in rules {
            rel.push(vec![
                Value::Str(r.def.name.clone()),
                Value::Oid(r.oid),
                Value::Str(r.def.coupling.name().into()),
                Value::Int(r.def.priority.into()),
                Value::Bool(r.enabled),
                Value::Str(r.def.event.to_string()),
                Value::Str(r.def.condition.clone()),
                Value::Str(r.def.action.clone()),
            ]);
        }
        rel
    }

    /// The `subscriptions` relation: one row per object- or class-level
    /// subscription, read from the `subscriptions` slot of every object
    /// in the `Rule` extent. Columns: `rule, kind, target`.
    pub fn meta_subscriptions(&self) -> Relation {
        let mut rel = Relation::new("subscriptions", &["rule", "kind", "target"]);
        let mut rows: Vec<(String, &'static str, Value)> = Vec::new();
        for oid in self.store.extent(&self.registry, self.rule_class) {
            let attr = |name| self.store.get_attr(&self.registry, oid, name);
            let (Ok(Value::Str(rule)), Ok(Value::List(targets))) =
                (attr("name"), attr("subscriptions"))
            else {
                continue;
            };
            for target in targets {
                let kind = if matches!(target, Value::Oid(_)) {
                    "object"
                } else {
                    "class"
                };
                rows.push((rule.clone(), kind, target));
            }
        }
        rows.sort_by(|a, b| (&a.0, a.1, render_cell(&a.2)).cmp(&(&b.0, b.1, render_cell(&b.2))));
        for (rule, kind, target) in rows {
            rel.push(vec![Value::Str(rule), Value::Str(kind.into()), target]);
        }
        rel
    }

    /// The `firings` relation, projected from the firing-history ring
    /// (oldest first). Columns: `firing, rule, target, coupling,
    /// parent, root_occ, occ, depth, latency_ns, outcome, lane`.
    pub fn meta_firings(&self) -> Relation {
        let mut rel = Relation::new(
            "firings",
            &[
                "firing",
                "rule",
                "target",
                "coupling",
                "parent",
                "root_occ",
                "occ",
                "depth",
                "latency_ns",
                "outcome",
                "lane",
            ],
        );
        for r in self.telemetry.firings().dump_all() {
            rel.push(vec![
                Value::Int(r.id.0 as i64),
                Value::Str(r.rule.clone()),
                Value::Oid(Oid(r.target)),
                Value::Str(r.coupling.as_str().into()),
                r.parent.map_or(Value::Null, |p| Value::Int(p.0 as i64)),
                Value::Int(r.root_occurrence as i64),
                Value::Int(r.occurrence as i64),
                Value::Int(r.depth.into()),
                Value::Int(r.latency_ns as i64),
                Value::Str(r.outcome.as_str().into()),
                Value::Str(r.lane.as_str().into()),
            ]);
        }
        rel
    }

    /// The `cascade_edges` relation: one row per parent→child firing
    /// pair still resolvable in the ring. Columns: `parent_firing,
    /// child_firing, parent_rule, child_rule, occ, depth`; a parent
    /// evicted from the ring renders as rule `?`.
    pub fn meta_cascade_edges(&self) -> Relation {
        let mut rel = Relation::new(
            "cascade_edges",
            &[
                "parent_firing",
                "child_firing",
                "parent_rule",
                "child_rule",
                "occ",
                "depth",
            ],
        );
        let records = self.telemetry.firings().dump_all();
        let by_id: BTreeMap<u64, &FiringRecord> = records.iter().map(|r| (r.id.0, r)).collect();
        for r in &records {
            let Some(parent) = r.parent else { continue };
            let parent_rule = by_id
                .get(&parent.0)
                .map_or_else(|| "?".to_string(), |p| p.rule.clone());
            rel.push(vec![
                Value::Int(parent.0 as i64),
                Value::Int(r.id.0 as i64),
                Value::Str(parent_rule),
                Value::Str(r.rule.clone()),
                Value::Int(r.occurrence as i64),
                Value::Int(r.depth.into()),
            ]);
        }
        rel
    }

    /// The `graph_edges` relation, projected from the static triggering
    /// graph. Columns: `from, to, kind, definite, via` — `kind` is the
    /// refinement level (`definite` / `conservative` / `refuted`); the
    /// boolean `definite` column is kept for query compatibility.
    pub fn meta_graph_edges(&self) -> Relation {
        let mut rel = Relation::new("graph_edges", &["from", "to", "kind", "definite", "via"]);
        let graph = self.analyze().graph;
        for e in &graph.edges {
            rel.push(vec![
                Value::Str(graph.nodes[e.from].rule.clone()),
                Value::Str(graph.nodes[e.to].rule.clone()),
                Value::Str(e.kind.as_str().to_string()),
                Value::Bool(e.is_definite()),
                Value::Str(e.via.clone()),
            ]);
        }
        rel
    }

    /// The `termination` relation: the prover's verdict per rule.
    /// Columns: `rule, verdict, bound, detail` — `bound` is the static
    /// cascade-depth bound for `proven` rows and null otherwise, so
    /// `query termination where verdict != proven` lists exactly the
    /// rules whose termination is not guaranteed.
    pub fn meta_termination(&self) -> Relation {
        let mut rel = Relation::new("termination", &["rule", "verdict", "bound", "detail"]);
        for v in &self.analyze().termination.verdicts {
            rel.push(vec![
                Value::Str(v.rule.clone()),
                Value::Str(v.verdict.as_str().to_string()),
                match v.verdict.bound() {
                    Some(b) => Value::Int(b.into()),
                    None => Value::Null,
                },
                Value::Str(v.detail.clone()),
            ]);
        }
        rel
    }

    /// The `timers` relation: one row per pending entry in the timer
    /// wheel, sorted by due instant then id. Columns: `timer, rule,
    /// due, period, label` — `period` is null for one-shot `at` timers,
    /// `rule` is null for timers whose owning rule has been removed.
    pub fn meta_timers(&self) -> Relation {
        let mut rel = Relation::new("timers", &["timer", "rule", "due", "period", "label"]);
        let mut rows = self.timer_rows();
        rows.sort_by_key(|(r, _)| (r.due, r.id.0));
        for (row, rule) in rows {
            rel.push(vec![
                Value::Int(row.id.0 as i64),
                rule.map_or(Value::Null, |r| Value::Str(r.to_string())),
                Value::Int(row.due as i64),
                row.period.map_or(Value::Null, |p| Value::Int(p as i64)),
                Value::Str(row.label.to_string()),
            ]);
        }
        rel
    }

    /// Look a meta relation up by name (see [`META_RELATIONS`]).
    pub fn meta_relation(&self, name: &str) -> Result<Relation> {
        match name {
            "rules" => Ok(self.meta_rules()),
            "subscriptions" => Ok(self.meta_subscriptions()),
            "firings" => Ok(self.meta_firings()),
            "cascade_edges" => Ok(self.meta_cascade_edges()),
            "graph_edges" => Ok(self.meta_graph_edges()),
            "termination" => Ok(self.meta_termination()),
            "timers" => Ok(self.meta_timers()),
            _ => Err(ObjectError::App(format!(
                "unknown meta relation `{name}` (have: {})",
                META_RELATIONS.join(", ")
            ))),
        }
    }

    /// Rank rules by a runtime metric. `by` is one of:
    ///
    /// * `firings` — executed firings per rule, straight from the
    ///   engine's live counters (exact even when the history ring has
    ///   shed records);
    /// * `latency` — recorded non-shed firings per rule with total and
    ///   max condition+action latency, from the ring;
    /// * `aborts` — recorded aborted firings per rule, from the ring.
    pub fn top_rules(&self, by: &str) -> Result<Relation> {
        match by {
            "firings" => {
                let mut rows: Vec<(String, u64)> = Vec::new();
                for name in self.rule_names() {
                    let stats = self.rule_stats(&name)?;
                    rows.push((name, stats.condition_evals));
                }
                rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                let mut rel = Relation::new("top_rules", &["rule", "firings"]);
                for (name, n) in rows {
                    rel.push(vec![Value::Str(name), Value::Int(n as i64)]);
                }
                Ok(rel)
            }
            "latency" => {
                let mut acc: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
                for r in self.telemetry.firings().dump_all() {
                    if r.outcome == FiringOutcome::Shed {
                        continue;
                    }
                    let e = acc.entry(r.rule).or_insert((0, 0, 0));
                    e.0 += 1;
                    e.1 += r.latency_ns;
                    e.2 = e.2.max(r.latency_ns);
                }
                let mut rows: Vec<(String, (u64, u64, u64))> = acc.into_iter().collect();
                rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
                let mut rel = Relation::new(
                    "top_rules",
                    &["rule", "recorded", "total_latency_ns", "max_latency_ns"],
                );
                for (name, (n, total, max)) in rows {
                    rel.push(vec![
                        Value::Str(name),
                        Value::Int(n as i64),
                        Value::Int(total as i64),
                        Value::Int(max as i64),
                    ]);
                }
                Ok(rel)
            }
            "aborts" => {
                let mut acc: BTreeMap<String, u64> = BTreeMap::new();
                for r in self.telemetry.firings().dump_all() {
                    if r.outcome == FiringOutcome::Aborted {
                        *acc.entry(r.rule).or_insert(0) += 1;
                    }
                }
                let mut rows: Vec<(String, u64)> = acc.into_iter().collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                let mut rel = Relation::new("top_rules", &["rule", "aborts"]);
                for (name, n) in rows {
                    rel.push(vec![Value::Str(name), Value::Int(n as i64)]);
                }
                Ok(rel)
            }
            _ => Err(ObjectError::App(format!(
                "unknown metric `{by}` (have: firings, latency, aborts)"
            ))),
        }
    }

    /// Observed rule-to-rule triggerings aggregated from the cascade
    /// edges in the ring. Pairs whose parent firing was evicted are
    /// skipped (the parent rule is unknowable).
    pub fn observed_cascade_edges(&self) -> Vec<ObservedEdge> {
        let records = self.telemetry.firings().dump_all();
        let by_id: BTreeMap<u64, &FiringRecord> = records.iter().map(|r| (r.id.0, r)).collect();
        let mut acc: BTreeMap<(String, String), u64> = BTreeMap::new();
        for r in &records {
            let Some(parent) = r.parent else { continue };
            let Some(p) = by_id.get(&parent.0) else {
                continue;
            };
            *acc.entry((p.rule.clone(), r.rule.clone())).or_insert(0) += 1;
        }
        acc.into_iter()
            .map(|((from, to), count)| ObservedEdge { from, to, count })
            .collect()
    }

    /// Per-root-rule lineage depth maxima, reconstructed by climbing
    /// parent chains in the firing-history ring: each record's deepest
    /// descendant depth is attributed to its depth-0 root's rule.
    /// Records whose chain is broken by eviction are skipped (their
    /// root rule is unknowable); the history's global `max_depth`
    /// watermark covers that gap in [`reconcile`](Self::reconcile).
    pub fn observed_root_depths(&self) -> Vec<ObservedRootDepth> {
        let records = self.telemetry.firings().dump_all();
        let by_id: BTreeMap<u64, &FiringRecord> = records.iter().map(|r| (r.id.0, r)).collect();
        let mut acc: BTreeMap<String, u32> = BTreeMap::new();
        'rec: for r in &records {
            let mut cur = r;
            while let Some(parent) = cur.parent {
                let Some(p) = by_id.get(&parent.0) else {
                    continue 'rec; // chain broken by eviction
                };
                cur = p;
            }
            if cur.depth != 0 {
                continue; // top of chain is not a true root (evicted above)
            }
            let e = acc.entry(cur.rule.clone()).or_insert(0);
            *e = (*e).max(r.depth);
        }
        acc.into_iter()
            .map(|(rule, max_depth)| ObservedRootDepth { rule, max_depth })
            .collect()
    }

    /// Diff the static triggering graph against the cascades actually
    /// recorded in the firing-history ring (see
    /// [`sentinel_analyze::reconcile`]), then fold in lane coverage
    /// (a `serial-only-rule` info for every parallel-eligible rule
    /// whose recorded firings never left the serial lane) and the
    /// termination-bound check (a `proven-bound-exceeded` error when
    /// observed lineage depth outruns a static `Proven(bound)`).
    pub fn reconcile(&self) -> ReconciliationReport {
        let analysis = self.analyze();
        let mut report =
            sentinel_analyze::reconcile(&analysis.graph, &self.observed_cascade_edges());
        report.merge_diagnostics(sentinel_analyze::reconcile_lanes(
            &self.parallel_eligible_rules(),
            &self.observed_lanes(),
        ));
        let watermark = self.telemetry.firings().max_depth();
        report.merge_diagnostics(sentinel_analyze::reconcile_bounds(
            &analysis.termination,
            &self.observed_root_depths(),
            Some(watermark),
        ));
        report
    }

    /// Names of the rules the conflict matrix currently clears for the
    /// worker pool, sorted.
    pub fn parallel_eligible_rules(&self) -> Vec<String> {
        let matrix = ConflictMatrix::build(&self.registry, &self.engine);
        let mut names: Vec<String> = self
            .engine
            .iter_rules()
            .filter(|r| matches!(matrix.lane(r.id), Some(Lane::Parallel { .. })))
            .map(|r| r.name.to_string())
            .collect();
        names.sort();
        names
    }

    /// Per-rule lane counts aggregated from the firing-history ring.
    pub fn observed_lanes(&self) -> Vec<ObservedLanes> {
        let mut acc: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for r in self.telemetry.firings().dump_all() {
            let e = acc.entry(r.rule.clone()).or_insert((0, 0));
            match r.lane {
                ExecutionLane::Serial => e.0 += 1,
                ExecutionLane::Parallel => e.1 += 1,
            }
        }
        acc.into_iter()
            .map(|(rule, (serial, parallel))| ObservedLanes {
                rule,
                serial,
                parallel,
            })
            .collect()
    }

    /// Render the ancestor/descendant tree around firing `id`: climbs
    /// to the oldest ancestor still in the ring, then prints the whole
    /// cascade below it, marking the queried firing.
    pub fn lineage_firing(&self, id: u64) -> Result<String> {
        let records = self.telemetry.firings().dump_all();
        let by_id: BTreeMap<u64, &FiringRecord> = records.iter().map(|r| (r.id.0, r)).collect();
        let Some(mut top) = by_id.get(&id).copied() else {
            return Err(ObjectError::App(format!(
                "firing #{id} is not in the history ring (never recorded, or evicted)"
            )));
        };
        while let Some(parent) = top.parent {
            match by_id.get(&parent.0) {
                Some(p) => top = p,
                None => break,
            }
        }
        let mut s = format!("root occurrence {}\n", top.root_occurrence);
        if let Some(parent) = top.parent {
            let _ = writeln!(s, "(parent firing#{} evicted from history)", parent.0);
        }
        render_tree(&mut s, &records, top, Some(id));
        Ok(s)
    }

    /// Render every cascade the ring associates with occurrence `occ`:
    /// trees rooted at firings triggered by it, plus any cascade whose
    /// root occurrence it is.
    pub fn lineage_occurrence(&self, occ: u64) -> Result<String> {
        let records = self.telemetry.firings().dump_all();
        let by_id: BTreeMap<u64, &FiringRecord> = records.iter().map(|r| (r.id.0, r)).collect();
        // Tree tops among records touching this occurrence: no parent,
        // or parent evicted.
        let mut tops: Vec<&FiringRecord> = records
            .iter()
            .filter(|r| r.occurrence == occ || r.root_occurrence == occ)
            .filter(|r| match r.parent {
                None => true,
                Some(p) => !by_id.contains_key(&p.0),
            })
            .collect();
        if tops.is_empty() {
            return Err(ObjectError::App(format!(
                "no recorded firings for occurrence {occ}"
            )));
        }
        tops.sort_by_key(|r| r.id.0);
        let mut s = format!("occurrence {occ}\n");
        for top in tops {
            render_tree(&mut s, &records, top, None);
        }
        Ok(s)
    }
}

/// Depth-first render of the cascade under `top` into `s`, one line per
/// firing, indented two spaces per tree level.
fn render_tree(s: &mut String, records: &[FiringRecord], top: &FiringRecord, mark: Option<u64>) {
    let mut children: BTreeMap<u64, Vec<&FiringRecord>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            children.entry(p.0).or_default().push(r);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|r| r.id.0);
    }
    let mut stack: Vec<(&FiringRecord, usize)> = vec![(top, 0)];
    while let Some((r, level)) = stack.pop() {
        let _ = writeln!(
            s,
            "{}{} {} [{}] depth={} {} occ={} ({}ns){}",
            "  ".repeat(level),
            r.id,
            r.rule,
            r.coupling,
            r.depth,
            r.outcome,
            r.occurrence,
            r.latency_ns,
            if mark == Some(r.id.0) {
                "  <== queried"
            } else {
                ""
            },
        );
        if let Some(kids) = children.get(&r.id.0) {
            for k in kids.iter().rev() {
                stack.push((k, level + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut r = Relation::new("t", &["rule", "n", "who"]);
        r.push(vec![
            Value::Str("a".into()),
            Value::Int(3),
            Value::Str("alice".into()),
        ]);
        r.push(vec![
            Value::Str("b".into()),
            Value::Int(1),
            Value::Str("bob".into()),
        ]);
        r.push(vec![
            Value::Str("a".into()),
            Value::Int(2),
            Value::Str("carol".into()),
        ]);
        r
    }

    #[test]
    fn filter_select_sort_take() {
        let r = sample();
        let f = r.filter("n", CmpOp::Ge, &Value::Int(2)).unwrap();
        assert_eq!(f.len(), 2);
        let s = f.select(&["who"]).unwrap();
        assert_eq!(s.columns(), ["who".to_string()]);
        let sorted = r.sort_by("n", true).unwrap();
        assert_eq!(sorted.rows()[0][1], Value::Int(3));
        assert_eq!(sorted.take(1).len(), 1);
    }

    #[test]
    fn filter_unknown_column_errors() {
        let r = sample();
        let err = r.filter("nope", CmpOp::Eq, &Value::Int(0)).unwrap_err();
        assert!(err.to_string().contains("no column `nope`"));
    }

    #[test]
    fn group_count_and_sum() {
        let r = sample();
        let g = r.group_count("rule").unwrap();
        assert_eq!(g.columns(), ["rule".to_string(), "count".to_string()]);
        assert_eq!(g.rows()[0], vec![Value::Str("a".into()), Value::Int(2)]);
        let s = r.group_sum("rule", "n").unwrap();
        assert_eq!(s.rows()[0], vec![Value::Str("a".into()), Value::Int(5)]);
    }

    #[test]
    fn join_prefixes_colliding_columns() {
        let r = sample();
        let mut other = Relation::new("x", &["rule", "extra"]);
        other.push(vec![Value::Str("a".into()), Value::Int(9)]);
        let j = r.join(&other, "rule", "rule").unwrap();
        assert_eq!(j.len(), 2); // two `a` rows match
        assert!(j.columns().contains(&"x.rule".to_string()));
        assert!(j.columns().contains(&"extra".to_string()));
    }

    #[test]
    fn contains_and_render() {
        let r = sample();
        let f = r
            .filter("who", CmpOp::Contains, &Value::Str("aro".into()))
            .unwrap();
        assert_eq!(f.len(), 1);
        let text = r.render();
        assert!(text.starts_with("rule"));
        assert!(text.contains("(3 rows)"));
    }

    #[test]
    fn cmp_op_parses_shell_spellings() {
        assert_eq!(CmpOp::parse(">=").unwrap(), CmpOp::Ge);
        assert_eq!(CmpOp::parse("==").unwrap(), CmpOp::Eq);
        assert!(CmpOp::parse("<>").is_err());
    }
}
