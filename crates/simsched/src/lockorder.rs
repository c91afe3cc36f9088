//! Runtime lock-order deadlock analyzer (the TSan deadlock-detector shape).
//!
//! While enabled, every shim [`crate::sync::Mutex`] acquisition records an
//! edge `H -> A` for each lock `H` the thread already holds: "somewhere, `A`
//! is acquired while holding `H`". A cycle in that graph means two call
//! paths take the same locks in opposite orders — a *potential* deadlock
//! even if this particular run never interleaved them fatally, which is
//! exactly why a passing test run is not evidence of absence.
//!
//! Each edge stores, from its first observation: the backtrace of the
//! acquisition that was *holding* `H`, the backtrace of the acquisition of
//! `A`, the thread name, and the kernel/region context supplied by the
//! [`crate::set_context_provider`] hook (the suite wires this to the
//! innermost open Caliper region). Cycle discovery emits a
//! `simsched.lockorder.cycle` instant through [`crate::set_instant_sink`] so
//! findings land on the event-trace timeline next to the kernel that
//! triggered them.
//!
//! Cost model: one relaxed atomic load per `Mutex::lock` when disabled
//! (the shim's only overhead); when enabled, a backtrace capture per
//! acquisition — this is an opt-in diagnostic mode (`--lock-order`), not a
//! measurement mode, and the report says so.

use std::backtrace::Backtrace;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// The analyzer's own tables can't go through the shim they instrument.
#[allow(clippy::disallowed_types)]
use std::sync::{Mutex, OnceLock, PoisonError};

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Whether acquisition recording is on. One relaxed load; this is the gate
/// `Mutex::lock` checks on its fast path.
#[inline]
pub fn enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Start recording lock acquisitions into the order graph.
pub fn enable() {
    RECORDING.store(true, Ordering::Release);
}

/// Stop recording. The graph and any discovered cycles are kept until
/// [`reset`] so a report can still be rendered.
pub fn disable() {
    RECORDING.store(false, Ordering::Release);
}

/// Drop the recorded graph, cycles, and per-thread state from past runs.
pub fn reset() {
    let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
    g.edges.clear();
    g.adj.clear();
    g.cycles.clear();
}

thread_local! {
    /// Locks this thread currently holds, in acquisition order, each with
    /// the backtrace of its acquisition.
    static HELD: std::cell::RefCell<Vec<(u64, Arc<Backtrace>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One observed "acquired `to` while holding `from`" relation.
struct Edge {
    /// Backtrace of the acquisition that was holding `from`.
    from_stack: Arc<Backtrace>,
    /// Backtrace of the acquisition of `to`.
    to_stack: Arc<Backtrace>,
    /// Thread name at first observation.
    thread: String,
    /// Kernel/region context at first observation, via the context hook.
    context: Option<String>,
    /// How many times this ordering was observed.
    count: u64,
}

/// A discovered cycle: the edge chain `n0 -> n1 -> ... -> n0`.
struct Cycle {
    nodes: Vec<u64>,
}

#[derive(Default)]
struct Graph {
    edges: HashMap<(u64, u64), Edge>,
    adj: HashMap<u64, HashSet<u64>>,
    cycles: Vec<Cycle>,
}

// The analyzer's own state must sit on a raw std mutex: recording an
// acquisition of a shim mutex from inside the recorder would recurse.
#[allow(clippy::disallowed_types)]
fn graph() -> &'static Mutex<Graph> {
    static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(Graph::default()))
}

/// Record that the current thread is acquiring `id`. Called by the shim
/// (only when [`enabled`], or unconditionally inside a model-checked run).
pub(crate) fn acquiring(id: u64) {
    let stack = Arc::new(Backtrace::force_capture());
    let held: Vec<(u64, Arc<Backtrace>)> =
        HELD.with(|h| h.borrow().iter().map(|(i, s)| (*i, Arc::clone(s))).collect());
    // Count cycles found under the graph lock, emit the trace instants
    // after releasing it: the instant sink typically leads back into shim
    // mutexes (the trace ring), whose recording would re-enter this graph
    // lock — a self-deadlock in the deadlock detector.
    let mut new_cycles = 0usize;
    if !held.is_empty() {
        let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        for (from, from_stack) in &held {
            if *from == id {
                // Recursive re-acquisition attempt of the same lock is a
                // self-deadlock with std mutexes, but it is the OS lock's
                // problem to surface; the order graph tracks distinct locks.
                continue;
            }
            let is_new = match g.edges.get_mut(&(*from, id)) {
                Some(e) => {
                    e.count += 1;
                    false
                }
                None => {
                    g.edges.insert(
                        (*from, id),
                        Edge {
                            from_stack: Arc::clone(from_stack),
                            to_stack: Arc::clone(&stack),
                            thread: std::thread::current()
                                .name()
                                .unwrap_or("<unnamed>")
                                .to_string(),
                            context: crate::current_context(),
                            count: 1,
                        },
                    );
                    g.adj.entry(*from).or_default().insert(id);
                    true
                }
            };
            if is_new {
                if let Some(cycle) = find_cycle(&g, id, *from) {
                    let mut nodes = vec![*from];
                    nodes.extend(cycle);
                    let known = g.cycles.iter().any(|c| same_cycle(&c.nodes, &nodes));
                    if !known {
                        g.cycles.push(Cycle { nodes });
                        new_cycles += 1;
                    }
                }
            }
        }
    }
    for _ in 0..new_cycles {
        crate::emit_instant("simsched.lockorder.cycle");
    }
    HELD.with(|h| h.borrow_mut().push((id, stack)));
}

/// Record that the current thread released `id`. Tolerates releases with no
/// matching recorded acquisition (recorder enabled mid-critical-section).
pub(crate) fn released(id: u64) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|(i, _)| *i == id) {
            held.remove(pos);
        }
    });
}

/// DFS from `start` looking for `target` along recorded edges; returns the
/// node path `start .. target` if a path exists (which, together with the
/// just-inserted `target -> start` edge, closes a cycle).
fn find_cycle(g: &Graph, start: u64, target: u64) -> Option<Vec<u64>> {
    let mut stack = vec![(start, vec![start])];
    let mut visited = HashSet::new();
    while let Some((node, path)) = stack.pop() {
        if node == target {
            return Some(path);
        }
        if !visited.insert(node) {
            continue;
        }
        if let Some(nexts) = g.adj.get(&node) {
            let mut nexts: Vec<u64> = nexts.iter().copied().collect();
            nexts.sort_unstable();
            for n in nexts {
                if !visited.contains(&n) {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push((n, p));
                }
            }
        }
    }
    None
}

/// Two node sequences describe the same cycle if one is a rotation of the
/// other (cycles have no canonical starting node).
fn same_cycle(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() || a.is_empty() {
        return a.len() == b.len();
    }
    (0..a.len()).any(|r| (0..a.len()).all(|i| a[(r + i) % a.len()] == b[i]))
}

/// Number of distinct lock-order cycles discovered so far.
pub fn cycle_count() -> usize {
    graph()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .cycles
        .len()
}

/// Render the full report: every discovered cycle with, per edge, the
/// observation count, thread, kernel/region context, and both acquisition
/// backtraces. `None` when no cycle was found.
pub fn report() -> Option<String> {
    let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
    if g.cycles.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simsched lock-order analysis: {} potential deadlock cycle(s) detected",
        g.cycles.len()
    );
    for (ci, cycle) in g.cycles.iter().enumerate() {
        let chain = cycle
            .nodes
            .iter()
            .chain(cycle.nodes.first())
            .map(|id| crate::registry::describe(*id))
            .collect::<Vec<_>>()
            .join(" -> ");
        let _ = writeln!(out, "\ncycle {}: {}", ci + 1, chain);
        for i in 0..cycle.nodes.len() {
            let from = cycle.nodes[i];
            let to = cycle.nodes[(i + 1) % cycle.nodes.len()];
            let Some(e) = g.edges.get(&(from, to)) else {
                continue;
            };
            let _ = writeln!(
                out,
                "  edge {} -> {} (observed {}x, thread `{}`{})",
                crate::registry::describe(from),
                crate::registry::describe(to),
                e.count,
                e.thread,
                match &e.context {
                    Some(c) => format!(", context `{c}`"),
                    None => String::new(),
                },
            );
            let _ = writeln!(
                out,
                "    holding {} acquired at:\n{}",
                crate::registry::describe(from),
                indent(&format!("{}", e.from_stack), 6)
            );
            let _ = writeln!(
                out,
                "    acquiring {} at:\n{}",
                crate::registry::describe(to),
                indent(&format!("{}", e.to_stack), 6)
            );
        }
    }
    Some(out)
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
