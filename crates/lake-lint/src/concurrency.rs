//! Concurrency-discipline lints: the workspace-wide lock-site model
//! behind rules 6–8.
//!
//! Unlike the per-file passes, this one accumulates facts across every
//! scanned source ([`Analysis::add_source`]) and judges them together
//! ([`Analysis::finish`]):
//!
//! 6. **Lock ordering** — every `OrderedMutex`/`OrderedRwLock` is
//!    constructed with a rank from `lake_core::sync::rank`, the single
//!    declared global order (parsed from the `mod rank { … }` block, so
//!    the static and runtime checkers share one source of truth).
//!    Nested acquisitions must follow strictly increasing ranks; raw
//!    `Mutex`/`RwLock` fields are implicit leaves (nothing may be
//!    acquired while one is held). Inversions and cycles can deadlock,
//!    so — like layering — they are **never baselinable**.
//! 7. **Guard across blocking** — no lock guard may stay live across an
//!    `ObjectStore` call, `retry_with_stats`, a channel send/recv, or a
//!    `lake_core::par` fan-out: backoff and I/O under a lock serialize
//!    the very paths the lock was meant to keep short, and a hang turns
//!    into a pile-up.
//! 8. **Atomic-ordering discipline** — `Ordering::Relaxed` is allowed
//!    only on declared counter atomics (the lake-obs metric cells);
//!    anywhere else needs a `// lint: ordering` justification on the
//!    same or preceding line. Only the exact `Ordering::Relaxed` token
//!    is matched, so `std::cmp::Ordering` (which has no `Relaxed`) can
//!    never false-positive.
//!
//! The model is a walk over the shared token stream ([`crate::lex`]), so
//! it is deliberately heuristic: guard liveness is tracked through `let` bindings, block
//! scopes, statement-end for temporaries, and explicit `drop(..)`;
//! interprocedural edges resolve callees by bare name across the
//! workspace, skipping [`GENERIC_CALLEES`] (ubiquitous container-method
//! names whose collisions would drown the signal). Heuristics err toward
//! silence on constructs they cannot read; the runtime sanitizer in
//! `lake_core::sync` backstops them under the chaos suites.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{SourceFile, Tok};
use crate::{Finding, Rule};

/// Path prefixes whose atomics are declared counters: `Ordering::Relaxed`
/// is the documented norm there (lake-obs metric cells), no per-site
/// justification needed.
pub const COUNTER_ATOMIC_PATHS: &[&str] = &["crates/lake-obs/src/"];

/// Callee names that block: retry/backoff drivers, channel endpoints,
/// sleeps, and `lake_core::par` fan-outs. A guard live across one of
/// these is a rule-7 violation.
const BLOCKING_FNS: &[&str] = &[
    "retry",
    "retry_with_stats",
    "recv",
    "recv_timeout",
    "try_recv",
    "send",
    "send_timeout",
    "try_send",
    "sleep_ms",
    "map_range",
    "map_indexed",
    "run_parallel",
    "scope",
];

/// `ObjectStore` methods: blocking when invoked on a store-ish receiver
/// (`store`, `files`, `inner`, or anything containing "store").
const STORE_METHODS: &[&str] = &["put", "put_if_absent", "get", "delete", "exists", "list", "size"];

/// Method names that *are* acquisitions — call events on these are
/// handled by the acquisition tracking, not the interprocedural pass.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Ubiquitous names excluded from interprocedural resolution: resolving
/// `guard.clear()` to `Tracer::clear` (which locks the very guard held)
/// by bare-name collision would flood rule 6 with self-edges.
const GENERIC_CALLEES: &[&str] = &[
    "and_then", "as_ref", "as_str", "clear", "clone", "cmp", "collect", "contains",
    "contains_key", "count", "default", "drain", "entry", "eq", "extend", "filter", "fmt",
    "from", "get", "get_mut", "hash", "insert", "into", "into_iter", "is_empty", "iter",
    "keys", "len", "map", "new", "next", "ok_or_else", "pop", "pop_front", "push",
    "push_back", "remove", "retain", "snapshot", "sort", "sort_by", "to_string",
    "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values", "with_capacity",
];

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// A lock's identity across the workspace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Constructed with `rank::CONST` — ranked by the declared order.
    Ranked(String),
    /// A raw `Mutex`/`RwLock` (or an unresolved `.lock()` receiver):
    /// an implicit leaf — nothing may be acquired while it is held.
    Unranked(String),
}

impl Class {
    fn display(&self) -> String {
        match self {
            Class::Ranked(c) => format!("rank::{c}"),
            Class::Unranked(id) => format!("{id} (unranked leaf)"),
        }
    }
}

/// One lock the walker currently considers held.
#[derive(Debug, Clone)]
struct Hold {
    class: Class,
    line: usize,
    /// Brace depth the hold was created at.
    depth: usize,
    /// `Some(name)` for `let`-bound guards (killable by `drop(name)`),
    /// `None` for statement temporaries.
    binding: Option<String>,
    /// Temporaries die at the end of their statement; bindings at the
    /// end of their block.
    temp: bool,
}

/// An acquisition or call observed while at least one lock was held.
#[derive(Debug, Clone)]
struct Event {
    file: String,
    line: usize,
    /// `Ok(class)` for acquisitions, `Err(callee)` for calls.
    subject: Result<Class, String>,
    holds: Vec<(Class, usize)>,
}

/// A declared rank constant: `const NAME: u32 = N;` inside `mod rank`.
#[derive(Debug, Clone)]
struct RankConst {
    file: String,
    line: usize,
    value: u32,
}

/// Workspace-wide accumulator for rules 6–8. Feed every library source
/// through [`Analysis::add_source`], then call [`Analysis::finish`].
#[derive(Debug, Default)]
pub struct Analysis {
    rank_consts: BTreeMap<String, RankConst>,
    events: Vec<Event>,
    /// Direct lock acquisitions per function name (bare-name keyed).
    fn_acquires: BTreeMap<String, BTreeSet<Class>>,
    /// Functions that directly make a blocking call, and which one.
    fn_blocks: BTreeMap<String, String>,
    /// Call edges per function name.
    fn_calls: BTreeMap<String, BTreeSet<String>>,
    /// How many `fn name` definitions each bare name has. Bare-name call
    /// resolution is only trusted when a name is defined exactly once —
    /// anything else would merge unrelated functions across crates.
    fn_defs: BTreeMap<String, usize>,
    /// Rule 7/8 findings completed during the per-file walks.
    findings: Vec<Finding>,
}

/// The identifier or numeric literal at token `i`: rank values and
/// tuple-field lock receivers (`self.0.lock()`) are numbers.
fn word_at<'a>(file: &SourceFile<'a>, i: usize) -> Option<&'a str> {
    match file.toks.get(i)?.tok {
        Tok::Ident(s) | Tok::Num(s) => Some(s),
        Tok::Punct(_) => None,
    }
}

impl Analysis {
    /// Scan one library source file, accumulating lock facts and
    /// emitting any per-file (rule 7/8) findings.
    pub fn add_source(&mut self, file: &SourceFile) {
        let lock_map = self.collect_rank_consts_and_locks(file);
        self.walk(file, &lock_map);
    }

    /// Pre-pass: collect `mod rank { const … }` declarations and build
    /// this file's lock-name → class map from `Ordered*::new(…, rank::X,
    /// …)` construction sites and raw `field: Mutex<…>` declarations.
    fn collect_rank_consts_and_locks(&mut self, file: &SourceFile) -> BTreeMap<String, Class> {
        let toks = &file.toks;
        let path = file.path;
        let mut map: BTreeMap<String, Class> = BTreeMap::new();
        let mut i = 0;
        while i < toks.len() {
            // `mod rank {` — record every `const NAME: u32 = N;` inside.
            if file.ident(i) == Some("mod") && file.ident(i + 1) == Some("rank") {
                let mut j = i + 2;
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Punct(';') if depth == 0 => break, // `mod rank;`
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Ident("const") if depth > 0 => {
                            // const NAME : u32 = VALUE ;
                            if let (Some(name), Some(value)) =
                                (file.ident(j + 1), const_u32_value(file, j))
                            {
                                self.rank_consts.entry(name.to_string()).or_insert(RankConst {
                                    file: path.to_string(),
                                    line: toks[j].line,
                                    value,
                                });
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            // `OrderedMutex::new(` / `OrderedRwLock::new(` — find the
            // rank constant inside the call and the binding name before.
            if let Some(w) = file.ident(i) {
                if (w == "OrderedMutex" || w == "OrderedRwLock")
                    && file.punct(i + 1, ':')
                    && file.punct(i + 2, ':')
                    && file.ident(i + 3) == Some("new")
                    && file.punct(i + 4, '(')
                {
                    if let Some(konst) = rank_const_in_call(file, i + 4) {
                        if let Some(name) = binding_name_before(file, i) {
                            map.insert(name, Class::Ranked(konst));
                        }
                    }
                }
                // `name: Mutex<` / `name: RwLock<` — raw lock field or
                // typed local: an unranked leaf unless a ranked
                // constructor already claimed the name.
                if (w == "Mutex" || w == "RwLock")
                    && file.punct(i + 1, '<')
                    && i >= 2
                    && file.punct(i - 1, ':')
                    && !file.punct(i - 2, ':')
                {
                    if let Some(name) = word_at(file, i - 2) {
                        map.entry(name.to_string())
                            .or_insert_with(|| Class::Unranked(format!("{path}#{name}")));
                    }
                }
            }
            i += 1;
        }
        map
    }

    /// Linear walk: track braces, the current function and live guards,
    /// and record acquisition/call/atomic events outside `#[cfg(test)]`.
    fn walk(&mut self, file: &SourceFile, lock_map: &BTreeMap<String, Class>) {
        let toks = &file.toks;
        let path = file.path;
        let mut depth = 0usize;
        let mut pending_fn: Option<String> = None;
        let mut fn_stack: Vec<(String, usize)> = Vec::new();
        let mut holds: Vec<Hold> = Vec::new();
        let mut pending_let: Option<(usize, Option<String>)> = None;
        let mut i = 0;
        while i < toks.len() {
            let t = toks[i];
            let line = t.line;
            match t.tok {
                Tok::Punct('{') => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    while fn_stack.last().is_some_and(|(_, d)| *d > depth) {
                        fn_stack.pop();
                    }
                    // Closing a block ends the statements in it: kill
                    // bindings from inside, and temporaries whose
                    // statement just ended (if-let scrutinees, loop
                    // headers live exactly until their block closes).
                    holds.retain(|h| if h.temp { h.depth < depth } else { h.depth <= depth });
                    if pending_let.as_ref().is_some_and(|(d, _)| *d > depth) {
                        pending_let = None;
                    }
                }
                Tok::Punct(';') => {
                    holds.retain(|h| !(h.temp && h.depth == depth));
                    if pending_let.as_ref().is_some_and(|(d, _)| *d == depth) {
                        pending_let = None;
                    }
                    pending_fn = None;
                }
                Tok::Ident("fn") => {
                    if let Some(name) = file.ident(i + 1) {
                        *self.fn_defs.entry(name.to_string()).or_insert(0) += 1;
                        pending_fn = Some(name.to_string());
                        i += 2;
                        continue;
                    }
                }
                Tok::Ident("let") => {
                    // `if let` / `while let` scrutinee guards are
                    // temporaries (they die with the statement's block),
                    // not bindings.
                    let scrutinee = i > 0 && matches!(file.ident(i - 1), Some("if" | "while"));
                    if !scrutinee {
                        let mut j = i + 1;
                        while file.ident(j) == Some("mut") {
                            j += 1;
                        }
                        pending_let = Some((depth, word_at(file, j).map(str::to_string)));
                    }
                }
                Tok::Ident("drop") if file.punct(i + 1, '(') => {
                    if let Some(name) = word_at(file, i + 2) {
                        if file.punct(i + 3, ')') {
                            holds.retain(|h| h.binding.as_deref() != Some(name));
                        }
                    }
                }
                Tok::Ident("Ordering")
                    if file.punct(i + 1, ':')
                        && file.punct(i + 2, ':')
                        && file.ident(i + 3) == Some("Relaxed") =>
                {
                    if !t.test
                        && !is_counter_atomic_path(path)
                        && !file.justified(line, "lint: ordering")
                    {
                        self.findings.push(file.finding(
                            Rule::AtomicOrdering,
                            line,
                            "Ordering::Relaxed outside a declared counter atomic; use a stronger \
                             ordering or justify with `// lint: ordering`",
                        ));
                    }
                    i += 4;
                    continue;
                }
                Tok::Ident(name) => {
                    if t.test || KEYWORDS.contains(&name) {
                        i += 1;
                        continue;
                    }
                    // Acquisition: `<recv>.lock()` / `.read()` / `.write()`.
                    if i >= 2
                        && file.punct(i - 1, '.')
                        && ACQUIRE_METHODS.contains(&name)
                        && file.punct(i + 1, '(')
                        && file.punct(i + 2, ')')
                    {
                        if let Some(recv) = word_at(file, i - 2) {
                            let class = match lock_map.get(recv) {
                                Some(c) => Some(c.clone()),
                                None if name == "lock" => {
                                    Some(Class::Unranked(format!("{path}#{recv}")))
                                }
                                None => None, // unresolved .read()/.write(): not a lock
                            };
                            if let Some(class) = class {
                                // `x.lock().foo(..)`: the guard is a
                                // statement temporary — the chained
                                // result, not the guard, reaches any
                                // `let` binding.
                                let chained = file.punct(i + 3, '.');
                                self.on_acquire(
                                    path,
                                    line,
                                    class,
                                    depth,
                                    chained,
                                    &mut holds,
                                    &pending_let,
                                    &fn_stack,
                                );
                                i += 3;
                                continue;
                            }
                        }
                    }
                    // Call event: `name(` that is not a macro (`name!`),
                    // a definition (preceded by `fn`), or a type-ish
                    // constructor (uppercase).
                    if file.punct(i + 1, '(')
                        && name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                        && !ACQUIRE_METHODS.contains(&name)
                    {
                        // Store methods block only on store-ish receivers:
                        // `self.store.get(..)` yes, `map.get(..)` no.
                        let receiver = if i > 0 && file.punct(i - 1, '.') {
                            word_at(file, i.wrapping_sub(2))
                        } else {
                            None
                        };
                        let store_blocking =
                            STORE_METHODS.contains(&name) && receiver.is_some_and(is_storeish);
                        let blocking = BLOCKING_FNS.contains(&name) || store_blocking;
                        self.on_call(path, line, name, blocking, &holds, &fn_stack);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_acquire(
        &mut self,
        file: &str,
        line: usize,
        class: Class,
        depth: usize,
        chained: bool,
        holds: &mut Vec<Hold>,
        pending_let: &Option<(usize, Option<String>)>,
        fn_stack: &[(String, usize)],
    ) {
        if !holds.is_empty() {
            self.events.push(Event {
                file: file.to_string(),
                line,
                subject: Ok(class.clone()),
                holds: holds.iter().map(|h| (h.class.clone(), h.line)).collect(),
            });
        }
        if let Some((name, _)) = fn_stack.last() {
            self.fn_acquires.entry(name.clone()).or_default().insert(class.clone());
        }
        let (binding, temp) = match pending_let {
            Some((d, name)) if *d == depth && !chained => (name.clone(), false),
            _ => (None, true),
        };
        holds.push(Hold { class, line, depth, binding, temp });
    }

    fn on_call(
        &mut self,
        file: &str,
        line: usize,
        name: &str,
        blocking: bool,
        holds: &[Hold],
        fn_stack: &[(String, usize)],
    ) {
        if let Some((caller, _)) = fn_stack.last() {
            self.fn_calls.entry(caller.clone()).or_default().insert(name.to_string());
            if blocking {
                self.fn_blocks.entry(caller.clone()).or_insert_with(|| name.to_string());
            }
        }
        if holds.is_empty() {
            return;
        }
        if blocking {
            // Innermost (most recently acquired) guard named; the fix is
            // usually to shrink that one's scope.
            if let Some(h) = holds.last() {
                self.findings.push(Finding {
                    rule: Rule::GuardBlocking,
                    file: file.to_string(),
                    line,
                    message: format!(
                        "lock guard `{}` (acquired line {}) held across blocking call `{name}`; \
                         release the guard before I/O, backoff, channel ops, or fan-out",
                        h.class.display(),
                        h.line,
                    ),
                });
            }
            return;
        }
        if GENERIC_CALLEES.contains(&name) {
            return;
        }
        self.events.push(Event {
            file: file.to_string(),
            line,
            subject: Err(name.to_string()),
            holds: holds.iter().map(|h| (h.class.clone(), h.line)).collect(),
        });
    }

    /// Judge the accumulated facts: rank inversions (direct and
    /// call-mediated), transitive guard-across-blocking, lock-order
    /// cycles, duplicate ranks — plus the rule 7/8 findings already
    /// collected per file.
    pub fn finish(mut self) -> Vec<Finding> {
        let mut findings = std::mem::take(&mut self.findings);
        self.check_duplicate_ranks(&mut findings);
        let acquires = self.acquire_closure();
        let blocking = self.blocking_closure();
        let mut edges: BTreeMap<(Class, Class), (String, usize)> = BTreeMap::new();
        for ev in &self.events {
            let Some(max_held) =
                ev.holds.iter().max_by_key(|(c, _)| self.rank_of(c)).cloned()
            else {
                continue;
            };
            let held_rank = self.rank_of(&max_held.0);
            match &ev.subject {
                Ok(class) => {
                    let new_rank = self.rank_of(class);
                    if new_rank <= held_rank {
                        findings.push(Finding {
                            rule: Rule::LockOrder,
                            file: ev.file.clone(),
                            line: ev.line,
                            message: format!(
                                "lock-order inversion: acquiring `{}` ({}) while holding `{}` \
                                 ({}, acquired line {}); the declared order \
                                 (lake_core::sync::rank) requires strictly increasing ranks",
                                class.display(),
                                rank_label(new_rank),
                                max_held.0.display(),
                                rank_label(held_rank),
                                max_held.1,
                            ),
                        });
                    }
                    for (held, _) in &ev.holds {
                        if held != class {
                            edges
                                .entry((held.clone(), class.clone()))
                                .or_insert((ev.file.clone(), ev.line));
                        }
                    }
                }
                Err(callee) => {
                    if !self.resolvable(callee) {
                        continue;
                    }
                    if let Some(via) = blocking.get(callee.as_str()) {
                        findings.push(Finding {
                            rule: Rule::GuardBlocking,
                            file: ev.file.clone(),
                            line: ev.line,
                            message: format!(
                                "lock guard `{}` held across call into `{callee}`, which \
                                 blocks (via `{via}`); release the guard first",
                                max_held.0.display(),
                            ),
                        });
                    }
                    let Some(acquired) = acquires.get(callee.as_str()) else { continue };
                    for class in acquired {
                        let new_rank = self.rank_of(class);
                        // Strict inequality only: equality here is almost
                        // always a bare-name self-collision, and genuine
                        // re-entrancy is caught by the direct check.
                        if new_rank < held_rank && !ev.holds.iter().any(|(h, _)| h == class) {
                            findings.push(Finding {
                                rule: Rule::LockOrder,
                                file: ev.file.clone(),
                                line: ev.line,
                                message: format!(
                                    "lock-order inversion: call into `{callee}` acquires `{}` \
                                     ({}) while holding `{}` ({}, acquired line {})",
                                    class.display(),
                                    rank_label(new_rank),
                                    max_held.0.display(),
                                    rank_label(held_rank),
                                    max_held.1,
                                ),
                            });
                        }
                        for (held, _) in &ev.holds {
                            if held != class {
                                edges
                                    .entry((held.clone(), class.clone()))
                                    .or_insert((ev.file.clone(), ev.line));
                            }
                        }
                    }
                }
            }
        }
        self.check_cycles(&edges, &mut findings);
        findings
    }

    /// Is `name` safe to resolve by bare name — defined exactly once in
    /// the workspace? (A colliding name would merge unrelated functions.)
    fn resolvable(&self, name: &str) -> bool {
        self.fn_defs.get(name) == Some(&1)
            && !GENERIC_CALLEES.contains(&name)
            && !ACQUIRE_METHODS.contains(&name)
    }

    /// Fixpoint of which lock classes each function acquires, directly
    /// or through calls to uniquely-named functions.
    fn acquire_closure(&self) -> BTreeMap<&str, BTreeSet<Class>> {
        let mut closure: BTreeMap<&str, BTreeSet<Class>> =
            self.fn_acquires.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        loop {
            let mut changed = false;
            for (caller, callees) in &self.fn_calls {
                let mut gained: BTreeSet<Class> = BTreeSet::new();
                for callee in callees {
                    if !self.resolvable(callee) {
                        continue;
                    }
                    if let Some(acq) = closure.get(callee.as_str()) {
                        gained.extend(acq.iter().cloned());
                    }
                }
                if !gained.is_empty() {
                    let entry = closure.entry(caller.as_str()).or_default();
                    let before = entry.len();
                    entry.extend(gained);
                    changed |= entry.len() > before;
                }
            }
            if !changed {
                return closure;
            }
        }
    }

    /// Fixpoint of which functions (transitively) block, and through
    /// which primitive; propagates only through uniquely-named callees.
    fn blocking_closure(&self) -> BTreeMap<&str, String> {
        let mut blocking: BTreeMap<&str, String> =
            self.fn_blocks.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        loop {
            let mut changed = false;
            for (caller, callees) in &self.fn_calls {
                if blocking.contains_key(caller.as_str()) {
                    continue;
                }
                for callee in callees {
                    if !self.resolvable(callee) {
                        continue;
                    }
                    if let Some(via) = blocking.get(callee.as_str()).cloned() {
                        blocking.insert(caller.as_str(), via);
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                return blocking;
            }
        }
    }

    fn rank_of(&self, class: &Class) -> u32 {
        match class {
            Class::Ranked(konst) => {
                self.rank_consts.get(konst).map(|rc| rc.value).unwrap_or(u32::MAX)
            }
            Class::Unranked(_) => u32::MAX,
        }
    }

    fn check_duplicate_ranks(&self, findings: &mut Vec<Finding>) {
        let mut by_value: BTreeMap<u32, Vec<(&String, &RankConst)>> = BTreeMap::new();
        for (name, rc) in &self.rank_consts {
            by_value.entry(rc.value).or_default().push((name, rc));
        }
        for (value, consts) in by_value {
            if consts.len() > 1 {
                let names: Vec<&str> = consts.iter().map(|(n, _)| n.as_str()).collect();
                if let Some((_, first)) = consts.first() {
                    findings.push(Finding {
                        rule: Rule::LockOrder,
                        file: first.file.clone(),
                        line: first.line,
                        message: format!(
                            "duplicate lock rank {value} shared by {}; the declared order must \
                             totally order every lock",
                            names.join(", "),
                        ),
                    });
                }
            }
        }
    }

    /// Find strongly-connected components of the nesting graph; any
    /// multi-node component is a potential deadlock cycle. Reported on
    /// the representative edge sites so the offender is clickable.
    fn check_cycles(
        &self,
        edges: &BTreeMap<(Class, Class), (String, usize)>,
        findings: &mut Vec<Finding>,
    ) {
        let mut nodes: BTreeSet<&Class> = BTreeSet::new();
        for (a, b) in edges.keys() {
            nodes.insert(a);
            nodes.insert(b);
        }
        let node_list: Vec<&Class> = nodes.iter().copied().collect();
        let index: BTreeMap<&Class, usize> =
            node_list.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); node_list.len()];
        for (a, b) in edges.keys() {
            if let (Some(&ia), Some(&ib)) = (index.get(a), index.get(b)) {
                adj[ia].push(ib);
            }
        }
        for component in tarjan_scc(&adj) {
            if component.len() < 2 {
                continue;
            }
            let members: BTreeSet<usize> = component.iter().copied().collect();
            let cycle_desc: Vec<String> =
                component.iter().map(|&i| node_list[i].display()).collect();
            for ((a, b), (file, line)) in edges {
                let (Some(&ia), Some(&ib)) = (index.get(a), index.get(b)) else { continue };
                if members.contains(&ia) && members.contains(&ib) {
                    findings.push(Finding {
                        rule: Rule::LockOrder,
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "lock-order cycle: `{}` is acquired while `{}` is held, closing \
                             the cycle {{{}}}; cycles can deadlock and are never baselinable",
                            b.display(),
                            a.display(),
                            cycle_desc.join(" -> "),
                        ),
                    });
                }
            }
        }
    }
}

fn rank_label(rank: u32) -> String {
    if rank == u32::MAX { "unranked leaf".to_string() } else { format!("rank {rank}") }
}

fn is_counter_atomic_path(file: &str) -> bool {
    COUNTER_ATOMIC_PATHS.iter().any(|p| file.starts_with(p))
}

fn is_storeish(receiver: &str) -> bool {
    receiver == "files" || receiver == "inner" || receiver.contains("store")
}

/// Parse `const NAME : u32 = VALUE ;` starting at the `const` token.
fn const_u32_value(file: &SourceFile, j: usize) -> Option<u32> {
    if !(file.punct(j + 2, ':') && file.ident(j + 3) == Some("u32") && file.punct(j + 4, '=')) {
        return None;
    }
    word_at(file, j + 5).and_then(|v| v.replace('_', "").parse().ok())
}

/// Inside the balanced parens opened at `open`, find `rank :: CONST`.
fn rank_const_in_call(file: &SourceFile, open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut j = open;
    while j < file.toks.len() {
        match file.toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return None;
                }
            }
            Tok::Ident("rank") if file.punct(j + 1, ':') && file.punct(j + 2, ':') => {
                return file.ident(j + 3).map(str::to_string);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Walk backwards from a constructor to its binding name: skips wrapper
/// layers (`Arc::new(`, path segments) to reach `field:` or `let name =`.
fn binding_name_before(file: &SourceFile, mut i: usize) -> Option<String> {
    while i > 0 {
        i -= 1;
        match file.toks[i].tok {
            Tok::Punct('(' | '{') => continue,
            Tok::Ident(w) => {
                // A path segment (`Arc` in `Arc::new`) or `new` itself.
                let is_path_seg = file.punct(i + 1, ':') && file.punct(i + 2, ':');
                if is_path_seg || w == "new" {
                    continue;
                }
                return None;
            }
            Tok::Punct(':') => {
                if i > 0 && file.punct(i - 1, ':') {
                    i -= 1; // the `::` of a path — skip both colons
                    continue;
                }
                return preceding_binding_ident(file, i);
            }
            Tok::Punct('=') => return preceding_binding_ident(file, i),
            _ => return None,
        }
    }
    None
}

/// The identifier immediately before token `i`, skipping `mut`.
fn preceding_binding_ident(file: &SourceFile, mut i: usize) -> Option<String> {
    while i > 0 {
        i -= 1;
        match word_at(file, i) {
            Some("mut") => continue,
            name => return name.map(str::to_string),
        }
    }
    None
}

/// Iterative Tarjan SCC over an adjacency list.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&(v, ci)) = call_stack.last() {
            if ci < adj[v].len() {
                if let Some(top) = call_stack.last_mut() {
                    top.1 += 1;
                }
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}
