//! `cmg-analyze`: whole-workspace interprocedural rules over the
//! [`crate::callgraph`] call graph.
//!
//! Four rules, each one the cross-function generalization of a
//! discipline the workspace already enforces locally:
//!
//! * **`blocking-reachability`** — no call path from a reactor entry
//!   point (any fn in `crates/net/src/reactor*`) or a
//!   `// nonblocking: begin` fenced region may reach a blocking API
//!   (`read`/`write`/`lock`/`recv`/`sleep`/`connect`/`join`/…). The
//!   full call path is reported. This subsumes the old
//!   directory-scoped `no-blocking-io-in-reactor` token fence: a
//!   blocking helper in another file called from the reactor is now
//!   visible.
//! * **`wire-drift`** — every non-test [`wire_codec!`] variant must be
//!   constructed somewhere and matched somewhere; `match`es over wire
//!   enums in `crates/net`/`crates/runtime` must not swallow variants
//!   with a non-error `_ =>` arm; and the `Ctrl` wire surface is
//!   fingerprinted against a pinned baseline per `PROTO_VERSION` —
//!   changing `Ctrl` without bumping the version (or bumping without
//!   pinning a new baseline) is a violation.
//! * **`lock-order`** — per-fn Mutex acquisition facts are propagated
//!   over the call graph into a lock-ordering graph; cycles are
//!   reported as potential deadlocks with one witness per edge.
//! * **`hot-path-transitive-alloc`** — calls made inside a
//!   `// hot-path` fence are followed through the graph; any reachable
//!   callee that allocates is reported with the path (the token lint
//!   still catches *direct* allocation inside the fence).
//!
//! ## Soundness caveats
//!
//! The analysis is name-resolution based, not type-checked: trait
//! dispatch through `dyn`/generics is invisible, function pointers are
//! not tracked, and a typed receiver whose type has no workspace impl
//! is assumed external. Lock identities conflate instances that share a
//! field name or type (and re-entrant acquisition of the *same*
//! identity is deliberately not reported, because instance aliasing
//! would make it noisy). `.reserve(` is not on the allocation token
//! list, for parity with the token lint. These are the same trade-offs
//! the token lint makes: uniform repo idiom plus the reasoned allowlist
//! absorb the residue.
//!
//! [`wire_codec!`]: cmg_runtime::wire_codec

use crate::callgraph::{CallGraph, FnId, Workspace};
use crate::parse::FnItem;
use cmg_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

/// Which analyze rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnalyzeRule {
    /// Call path from a nonblocking region to a blocking API.
    BlockingReachability,
    /// Wire enum variant unconstructed/unmatched, swallowed by a
    /// wildcard arm, or `Ctrl` changed without a `PROTO_VERSION` bump.
    WireDrift,
    /// Cycle in the interprocedural lock-ordering graph.
    LockOrder,
    /// Call path from a hot-path fence to an allocating fn.
    HotPathTransitiveAlloc,
}

impl AnalyzeRule {
    /// Stable identifier used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            AnalyzeRule::BlockingReachability => "blocking-reachability",
            AnalyzeRule::WireDrift => "wire-drift",
            AnalyzeRule::LockOrder => "lock-order",
            AnalyzeRule::HotPathTransitiveAlloc => "hot-path-transitive-alloc",
        }
    }

    /// All rules, for report summaries.
    pub fn all() -> [AnalyzeRule; 4] {
        [
            AnalyzeRule::BlockingReachability,
            AnalyzeRule::WireDrift,
            AnalyzeRule::LockOrder,
            AnalyzeRule::HotPathTransitiveAlloc,
        ]
    }
}

/// One frame of a reported call path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathFrame {
    /// Fn label (`path#Qual::name`).
    pub label: String,
    /// 1-based line of the call site (or offending token, for the
    /// final frame).
    pub line: usize,
}

/// One analyze finding.
#[derive(Clone, Debug)]
pub struct AnalyzeViolation {
    /// The rule that fired.
    pub rule: AnalyzeRule,
    /// File anchoring the finding.
    pub path: String,
    /// 1-based anchor line.
    pub line: usize,
    /// The anchoring item (`Qual::fn`, fn name, or enum name).
    pub item: String,
    /// Human-readable description.
    pub message: String,
    /// Call path from entry to sink (empty for non-path findings).
    pub call_path: Vec<PathFrame>,
}

impl fmt::Display for AnalyzeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.path,
            self.line,
            self.rule.name(),
            self.item,
            self.message
        )?;
        for frame in &self.call_path {
            write!(f, "\n    via {}:{}", frame.label, frame.line)?;
        }
        Ok(())
    }
}

/// A vetted analyze exemption. `prefix` matches the violation's path,
/// or `path#item` for item-scoped entries.
#[derive(Clone, Debug)]
pub struct AnalyzeAllow {
    /// Path or `path#item` prefix.
    pub prefix: &'static str,
    /// The exempted rule name (see [`AnalyzeRule::name`]).
    pub rule: &'static str,
    /// Why the exemption is sound.
    pub reason: &'static str,
}

/// The set of vetted analyze exemptions.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeAllowlist {
    /// The entries, in match order.
    pub entries: Vec<AnalyzeAllow>,
}

impl AnalyzeAllowlist {
    /// An empty allowlist (every finding reported).
    pub fn empty() -> Self {
        AnalyzeAllowlist::default()
    }

    /// The workspace's vetted analyze exemptions.
    ///
    /// Currently empty: the workspace analyzes clean. Every entry added
    /// here must carry a reason explaining why the finding is sound to
    /// suppress, and `analyze_allowlist_is_load_bearing` in the
    /// integration tests fails if an entry stops matching anything.
    pub fn workspace() -> Self {
        AnalyzeAllowlist {
            entries: Vec::new(),
        }
    }

    /// The matching entry's reason, if `v` is exempt.
    pub fn allows(&self, v: &AnalyzeViolation) -> Option<&'static str> {
        let scoped = format!("{}#{}", v.path, v.item);
        self.entries
            .iter()
            .find(|e| {
                e.rule == v.rule.name()
                    && (v.path.starts_with(e.prefix) || scoped.starts_with(e.prefix))
            })
            .map(|e| e.reason)
    }
}

/// Pinned FNV-1a 64 fingerprints of the `Ctrl` wire surface, one per
/// `PROTO_VERSION`. Changing `Ctrl` without bumping the version makes
/// the current entry mismatch; bumping without pinning the new
/// fingerprint here leaves the new version without a baseline. Both are
/// `wire-drift` violations, so every wire change is a deliberate
/// two-line diff (version bump + new pin) reviewed together.
/// v4 widened the fingerprint itself: it covers `Ctrl` plus every
/// `Snap`-suffixed snapshot record enum, because those encodings ride
/// opaquely inside `Ctrl::Checkpoint` payloads and resume assignments.
/// v6 retired the tree-barrier control words (tags 5 and 6).
pub const WIRE_BASELINES: &[(u64, u64)] = &[
    (3, 0xec5d_285e_8cd8_0aa1),
    (4, 0x4956_cc56_edbc_cd90),
    (5, 0x1f0f_d877_76a1_24b0),
    (6, 0x051c_a52c_8206_83e1),
];

/// The analysis result for one workspace.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings not covered by the allowlist, sorted.
    pub violations: Vec<AnalyzeViolation>,
    /// Allowlisted findings with the entry's reason.
    pub allowlisted: Vec<(AnalyzeViolation, &'static str)>,
    /// Files analyzed.
    pub files: usize,
    /// Fn items in the graph.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
}

impl AnalysisReport {
    /// The report as deterministic JSON (for the CI artifact).
    pub fn to_json(&self) -> Json {
        let viol = |v: &AnalyzeViolation| {
            Json::obj(vec![
                ("rule", Json::Str(v.rule.name().to_string())),
                ("path", Json::Str(v.path.clone())),
                ("line", Json::UInt(v.line as u64)),
                ("item", Json::Str(v.item.clone())),
                ("message", Json::Str(v.message.clone())),
                (
                    "call_path",
                    Json::Arr(
                        v.call_path
                            .iter()
                            .map(|f| {
                                Json::obj(vec![
                                    ("fn", Json::Str(f.label.clone())),
                                    ("line", Json::UInt(f.line as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let mut rule_counts: Vec<(&str, Json)> = Vec::new();
        for r in AnalyzeRule::all() {
            let n = self.violations.iter().filter(|v| v.rule == r).count();
            rule_counts.push((r.name(), Json::UInt(n as u64)));
        }
        Json::obj(vec![
            ("schema", Json::Str("cmg-analyze/v1".to_string())),
            (
                "summary",
                Json::obj(vec![
                    ("files", Json::UInt(self.files as u64)),
                    ("fns", Json::UInt(self.fns as u64)),
                    ("edges", Json::UInt(self.edges as u64)),
                    ("violations", Json::UInt(self.violations.len() as u64)),
                    ("allowlisted", Json::UInt(self.allowlisted.len() as u64)),
                    ("by_rule", Json::obj(rule_counts)),
                ]),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().map(viol).collect()),
            ),
            (
                "allowlisted",
                Json::Arr(
                    self.allowlisted
                        .iter()
                        .map(|(v, reason)| {
                            let mut o = viol(v);
                            if let Json::Obj(pairs) = &mut o {
                                pairs
                                    .push(("reason".to_string(), Json::Str((*reason).to_string())));
                            }
                            o
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Reactor home: every non-test fn declared under this prefix is a
/// blocking-reachability entry point.
const REACTOR_HOME: &str = "crates/net/src/reactor";

/// Crates whose wire-enum `match`es must not swallow variants.
const WIRE_CONSUMER_CRATES: &[&str] = &["crates/net/", "crates/runtime/"];

/// Tokens that make a wildcard arm acceptable: the arm surfaces the
/// unknown variant as an error instead of swallowing it.
const ARM_ERROR_TOKENS: &[&str] = &[
    "Err(",
    "Err (",
    "unreachable!",
    "panic!",
    "protocol(",
    "bug!",
];

/// Runs the full analysis over `(path, source)` pairs with an
/// allowlist. Deterministic; never panics on arbitrary input.
pub fn analyze_sources(sources: &[(String, String)], allow: &AnalyzeAllowlist) -> AnalysisReport {
    let ws = Workspace::parse(sources);
    let graph = CallGraph::build(&ws);
    let mut found = Vec::new();
    blocking_reachability(&graph, &mut found);
    wire_drift(&ws, &mut found);
    lock_order(&graph, &mut found);
    hot_path_transitive(&graph, &mut found);
    found.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.item, &a.message)
            .cmp(&(b.rule, &b.path, b.line, &b.item, &b.message))
    });
    found.dedup_by(|a, b| {
        a.rule == b.rule
            && a.path == b.path
            && a.line == b.line
            && a.item == b.item
            && a.message == b.message
    });
    let mut report = AnalysisReport {
        files: ws.files.len(),
        fns: graph.len(),
        edges: graph.ids().map(|i| graph.edges(i).len()).sum(),
        ..AnalysisReport::default()
    };
    for v in found {
        match allow.allows(&v) {
            Some(reason) => report.allowlisted.push((v, reason)),
            None => report.violations.push(v),
        }
    }
    report
}

/// Runs the analysis over every `crates/*/src/**/*.rs` under
/// `repo_root`.
pub fn analyze_tree(repo_root: &Path, allow: &AnalyzeAllowlist) -> Result<AnalysisReport, String> {
    let sources = crate::lint::workspace_sources(repo_root)?;
    Ok(analyze_sources(&sources, allow))
}

/// Fn label shorthand.
fn label(graph: &CallGraph, id: FnId) -> String {
    graph.label(id)
}

fn item_name(item: &FnItem) -> String {
    match &item.qual {
        Some(q) => format!("{}::{}", q, item.name),
        None => item.name.clone(),
    }
}

fn in_line_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// A blocking-reachability entry point: the fn plus the line spans its
/// nonblocking region covers (`None` = the whole body).
type EntryRegion = (FnId, Option<Vec<(usize, usize)>>);

/// Rule 1: call paths from reactor entry points / nonblocking fences to
/// blocking APIs.
fn blocking_reachability(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    let mut entries: Vec<EntryRegion> = Vec::new();
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        if graph.path(id).starts_with(REACTOR_HOME) {
            entries.push((id, None));
        } else if !item.nonblocking_lines.is_empty() {
            entries.push((id, Some(item.nonblocking_lines.clone())));
        }
    }
    for (entry, restrict) in entries {
        let entry_item = graph.item(entry);
        // Direct blocking tokens inside the entry region.
        for t in &entry_item.blocking {
            let in_region = restrict
                .as_ref()
                .is_none_or(|spans| in_line_spans(t.line, spans));
            if in_region {
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::BlockingReachability,
                    path: graph.path(entry).to_string(),
                    line: t.line,
                    item: item_name(entry_item),
                    message: format!("blocking call `{}` inside a nonblocking region", t.token),
                    call_path: vec![PathFrame {
                        label: label(graph, entry),
                        line: t.line,
                    }],
                });
            }
        }
        // BFS over resolved edges leaving the entry region.
        let mut parent: HashMap<FnId, (FnId, usize)> = HashMap::new();
        let mut queue: Vec<FnId> = Vec::new();
        for e in graph.edges(entry) {
            let allowed = restrict
                .as_ref()
                .is_none_or(|spans| in_line_spans(e.line, spans));
            if allowed && !graph.item(e.to).in_test && !parent.contains_key(&e.to) {
                parent.insert(e.to, (entry, e.line));
                queue.push(e.to);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            let item = graph.item(id);
            if let Some(t) = item.blocking.first() {
                // Reconstruct entry → … → id.
                let mut frames = vec![PathFrame {
                    label: label(graph, id),
                    line: t.line,
                }];
                let mut cur = id;
                while let Some(&(p, line)) = parent.get(&cur) {
                    frames.push(PathFrame {
                        label: label(graph, p),
                        line,
                    });
                    if p == entry {
                        break;
                    }
                    cur = p;
                }
                frames.reverse();
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::BlockingReachability,
                    path: graph.path(entry).to_string(),
                    line: frames.first().map(|f| f.line).unwrap_or(t.line),
                    item: item_name(graph.item(entry)),
                    message: format!(
                        "blocking call `{}` in {} is reachable from this nonblocking \
                         entry point",
                        t.token,
                        item_name(item)
                    ),
                    call_path: frames,
                });
                // Keep walking: deeper sinks behind this fn are still
                // reported through their own first-visit paths.
            }
            for e in graph.edges(id) {
                if !graph.item(e.to).in_test && e.to != entry && !parent.contains_key(&e.to) {
                    parent.insert(e.to, (id, e.line));
                    queue.push(e.to);
                }
            }
        }
    }
}

/// One wire variant row for fingerprinting: `(tag, name, fields)`.
type WireSurfaceRow = (u64, String, Vec<(String, String)>);

/// FNV-1a 64 over the canonical wire-surface string of an enum.
fn wire_fingerprint(variants: &[WireSurfaceRow]) -> u64 {
    let mut sorted: Vec<_> = variants.to_vec();
    sorted.sort_by_key(|(tag, _, _)| *tag);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (tag, name, fields) in &sorted {
        eat(tag.to_string().as_bytes());
        eat(b":");
        eat(name.as_bytes());
        eat(b"(");
        for (fname, fty) in fields {
            eat(fname.as_bytes());
            eat(b":");
            eat(fty.as_bytes());
            eat(b",");
        }
        eat(b");");
    }
    h
}

/// Rule 2: wire-protocol drift.
fn wire_drift(ws: &Workspace, out: &mut Vec<AnalyzeViolation>) {
    // Collect non-test wire enums.
    let mut enums: Vec<(&str, &crate::parse::WireEnum)> = Vec::new();
    let mut proto_version: Option<(u64, String, usize)> = None;
    for f in &ws.files {
        for e in &f.wire_enums {
            if !e.in_test {
                enums.push((f.path.as_str(), e));
            }
        }
        if let Some((v, line)) = f.proto_version {
            proto_version = Some((v, f.path.clone(), line));
        }
    }
    let enum_names: BTreeSet<&str> = enums.iter().map(|(_, e)| e.name.as_str()).collect();
    // Variant usage across all non-test fns.
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &ws.files {
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            for r in &item.refs {
                if !enum_names.contains(r.enum_name.as_str()) {
                    continue;
                }
                let key = (r.enum_name.clone(), r.variant.clone());
                if r.is_pattern {
                    matched.insert(key);
                } else {
                    constructed.insert(key);
                }
            }
        }
    }
    for (path, e) in &enums {
        for v in &e.variants {
            let key = (e.name.clone(), v.name.clone());
            if !constructed.contains(&key) {
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::WireDrift,
                    path: path.to_string(),
                    line: e.line,
                    item: e.name.clone(),
                    message: format!(
                        "wire variant {}::{} is never constructed outside tests",
                        e.name, v.name
                    ),
                    call_path: Vec::new(),
                });
            }
            if !matched.contains(&key) {
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::WireDrift,
                    path: path.to_string(),
                    line: e.line,
                    item: e.name.clone(),
                    message: format!(
                        "wire variant {}::{} is never matched by any consumer",
                        e.name, v.name
                    ),
                    call_path: Vec::new(),
                });
            }
        }
    }
    // Swallowing wildcard arms in net/runtime consumers.
    for f in &ws.files {
        if !WIRE_CONSUMER_CRATES.iter().any(|c| f.path.starts_with(c)) {
            continue;
        }
        for item in &f.fns {
            if item.in_test {
                continue;
            }
            for m in &item.matches {
                let wire_enum = m.arms.iter().find_map(|a| {
                    enum_names
                        .iter()
                        .find(|n| a.pattern.contains(&format!("{n}::")))
                        .copied()
                });
                let Some(enum_name) = wire_enum else {
                    continue;
                };
                for a in &m.arms {
                    let is_wildcard = a.pattern == "_"
                        || (!a.pattern.contains("::")
                            && !a.pattern.contains('(')
                            && !a.pattern.contains('{')
                            && a.pattern.split_whitespace().count() == 1);
                    if !is_wildcard {
                        continue;
                    }
                    let erroring = ARM_ERROR_TOKENS.iter().any(|t| a.body.contains(t));
                    if !erroring {
                        out.push(AnalyzeViolation {
                            rule: AnalyzeRule::WireDrift,
                            path: f.path.clone(),
                            line: a.line,
                            item: item_name(item),
                            message: format!(
                                "match on wire enum {enum_name} swallows unknown variants: \
                                 wildcard arm `{} => {}` neither errors nor panics",
                                a.pattern,
                                truncate(&a.body, 40)
                            ),
                            call_path: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    // PROTO_VERSION baseline for Ctrl — plus every `Snap`-suffixed
    // wire enum. The snapshot record enums encode the checkpoint blobs
    // that ride inside `Ctrl::Checkpoint` payloads (and come back in
    // resume assignments), so changing one is a wire-surface change
    // even though the supervisor treats the blob as opaque: a restored
    // rank must decode what its previous incarnation encoded. Folding
    // them into the versioned fingerprint makes any such change demand
    // the same deliberate version-bump-plus-pin diff as a Ctrl edit.
    if let Some((ctrl_path, ctrl)) = enums.iter().find(|(_, e)| e.name == "Ctrl") {
        let mut surface: Vec<WireSurfaceRow> = ctrl
            .variants
            .iter()
            .map(|v| (v.tag, v.name.clone(), v.fields.clone()))
            .collect();
        let mut snaps: Vec<&(&str, &crate::parse::WireEnum)> = enums
            .iter()
            .filter(|(_, e)| e.name.ends_with("Snap"))
            .collect();
        snaps.sort_by_key(|(_, e)| e.name.as_str());
        for (_, e) in snaps {
            for v in &e.variants {
                surface.push((v.tag, format!("{}::{}", e.name, v.name), v.fields.clone()));
            }
        }
        let fp = wire_fingerprint(&surface);
        match proto_version {
            None => out.push(AnalyzeViolation {
                rule: AnalyzeRule::WireDrift,
                path: ctrl_path.to_string(),
                line: ctrl.line,
                item: "Ctrl".to_string(),
                message: "no PROTO_VERSION const found alongside the Ctrl wire enum".to_string(),
                call_path: Vec::new(),
            }),
            Some((version, vpath, vline)) => {
                match WIRE_BASELINES.iter().find(|(v, _)| *v == version) {
                    None => out.push(AnalyzeViolation {
                        rule: AnalyzeRule::WireDrift,
                        path: vpath,
                        line: vline,
                        item: "PROTO_VERSION".to_string(),
                        message: format!(
                            "PROTO_VERSION {version} has no pinned wire baseline; pin \
                             fingerprint {fp:#018x} in WIRE_BASELINES to make the new \
                             surface deliberate"
                        ),
                        call_path: Vec::new(),
                    }),
                    Some((_, pinned)) if *pinned != fp => out.push(AnalyzeViolation {
                        rule: AnalyzeRule::WireDrift,
                        path: ctrl_path.to_string(),
                        line: ctrl.line,
                        item: "Ctrl".to_string(),
                        message: format!(
                            "wire surface (Ctrl + snapshot records) changed without a \
                             PROTO_VERSION bump: fingerprint {fp:#018x} != pinned \
                             {pinned:#018x} for version {version}"
                        ),
                        call_path: Vec::new(),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let mut end = n;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// Rule 3: interprocedural lock-order cycles.
fn lock_order(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    let n = graph.len();
    // Transitive lock sets per fn (non-test), to fixpoint.
    let mut trans: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        for l in &item.locks {
            trans[id.0].insert(l.id.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in graph.ids() {
            if graph.item(id).in_test {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            for e in graph.edges(id) {
                if graph.item(e.to).in_test {
                    continue;
                }
                for l in &trans[e.to.0] {
                    if !trans[id.0].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[id.0].extend(add);
            }
        }
    }
    // Ordering edges: (held → acquired) with one witness each.
    let mut order: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for id in graph.ids() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        for (i, a) in item.locks.iter().enumerate() {
            // a held at a later site when bound, or for the same
            // statement when a temporary.
            let held_at = |stmt: u32| {
                if a.bound {
                    stmt >= a.stmt
                } else {
                    stmt == a.stmt
                }
            };
            for b in item.locks.iter().skip(i + 1) {
                if held_at(b.stmt) && a.id != b.id {
                    order
                        .entry((a.id.clone(), b.id.clone()))
                        .or_insert_with(|| (label(graph, id), b.line));
                }
            }
            for e in graph.edges(id) {
                if e.line < a.line || !held_at(e.stmt) || graph.item(e.to).in_test {
                    continue;
                }
                for l in &trans[e.to.0] {
                    if l != &a.id {
                        order
                            .entry((a.id.clone(), l.clone()))
                            .or_insert_with(|| (label(graph, id), e.line));
                    }
                }
            }
        }
    }
    // Cycle detection: strongly connected components of ≥ 2 locks.
    let mut nodes: Vec<&String> = order
        .keys()
        .flat_map(|(a, b)| [a, b])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    nodes.sort();
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in order.keys() {
        adj[index[a]].push(index[b]);
    }
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let members: Vec<&String> = scc.iter().map(|&i| nodes[i]).collect();
        // Witness edges inside the component, in order.
        let mut witnesses = Vec::new();
        for (pair, (flabel, line)) in &order {
            let (a, b) = pair;
            if members.contains(&a) && members.contains(&b) {
                witnesses.push(PathFrame {
                    label: format!("{flabel} takes {a} then {b}"),
                    line: *line,
                });
            }
        }
        let anchor = witnesses.first().cloned();
        let (apath, aline) = anchor
            .as_ref()
            .and_then(|f| f.label.split('#').next().map(|p| (p.to_string(), f.line)))
            .unwrap_or_default();
        let item = anchor
            .as_ref()
            .and_then(|f| {
                f.label
                    .split('#')
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
            })
            .unwrap_or("-")
            .to_string();
        out.push(AnalyzeViolation {
            rule: AnalyzeRule::LockOrder,
            path: apath,
            line: aline,
            item,
            message: format!(
                "lock-order cycle between {{{}}}: both orders are taken, a cross-thread \
                 deadlock is possible",
                members
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            call_path: witnesses,
        });
    }
}

/// Iterative Tarjan SCC over an adjacency list.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, child cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = dfs.last() {
            if cursor == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                if let Some(top) = dfs.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(p, _)) = dfs.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out.sort();
    out
}

/// Rule 4: transitive allocation behind hot-path fences.
fn hot_path_transitive(graph: &CallGraph, out: &mut Vec<AnalyzeViolation>) {
    for entry in graph.ids() {
        let entry_item = graph.item(entry);
        if entry_item.in_test || entry_item.hot_lines.is_empty() {
            continue;
        }
        let mut parent: HashMap<FnId, (FnId, usize)> = HashMap::new();
        let mut queue: Vec<FnId> = Vec::new();
        for e in graph.edges(entry) {
            if in_line_spans(e.line, &entry_item.hot_lines)
                && !graph.item(e.to).in_test
                && !parent.contains_key(&e.to)
            {
                parent.insert(e.to, (entry, e.line));
                queue.push(e.to);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            let item = graph.item(id);
            if let Some(t) = item.allocs.first() {
                let mut frames = vec![PathFrame {
                    label: label(graph, id),
                    line: t.line,
                }];
                let mut cur = id;
                while let Some(&(p, line)) = parent.get(&cur) {
                    frames.push(PathFrame {
                        label: label(graph, p),
                        line,
                    });
                    if p == entry {
                        break;
                    }
                    cur = p;
                }
                frames.reverse();
                out.push(AnalyzeViolation {
                    rule: AnalyzeRule::HotPathTransitiveAlloc,
                    path: graph.path(entry).to_string(),
                    line: frames.first().map(|f| f.line).unwrap_or(t.line),
                    item: item_name(entry_item),
                    message: format!(
                        "hot-path fence reaches allocating call `{}` in {}",
                        t.token,
                        item_name(item)
                    ),
                    call_path: frames,
                });
            }
            for e in graph.edges(id) {
                if !graph.item(e.to).in_test && e.to != entry && !parent.contains_key(&e.to) {
                    parent.insert(e.to, (id, e.line));
                    queue.push(e.to);
                }
            }
        }
    }
}
