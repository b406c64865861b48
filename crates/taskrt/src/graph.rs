//! The dependency-slot spawn API: build a task graph declaratively over
//! abstract dependency slots, then submit it to a [`Runtime`] in one call,
//! which takes the scheduler lock once for the whole graph.
//!
//! A *slot* is a bare [`Handle`] minted by [`SlotArena`] — it takes part in
//! the OmpSs dependency rules exactly like a [`crate::Shared`] region's
//! handle but carries no storage. This decouples the *shape* of a task
//! graph (which stages read/write which logical buffers) from the *data
//! placement* a particular scheduler policy chooses (per-band `Shared`
//! buffers, per-worker arenas, in-flight network requests), which is what
//! lets one declarative stage graph drive every policy.

use crate::handle::{Dep, Handle};
use crate::runtime::{Runtime, TaskBody};

/// Mints pure dependency slots and remembers them (handy for debugging and
/// for asserting how many slots a graph construction used).
#[derive(Debug, Default)]
pub struct SlotArena {
    minted: Vec<Handle>,
}

impl SlotArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh dependency slot.
    pub fn mint(&mut self) -> Handle {
        let h = Handle::fresh();
        self.minted.push(h);
        h
    }

    /// Every slot minted so far, in order.
    pub fn minted(&self) -> &[Handle] {
        &self.minted
    }
}

struct GraphNode {
    label: String,
    priority: Option<u64>,
    deps: Vec<Dep>,
    body: Box<dyn FnOnce() + Send + 'static>,
}

/// A batch of tasks built ahead of submission. Nodes are submitted in
/// creation order, which is also the runtime's tie-break for equal
/// priorities — so a graph built in deterministic order schedules
/// deterministically.
#[derive(Default)]
pub struct TaskGraph {
    nodes: Vec<GraphNode>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its index in creation order.
    pub fn node(
        &mut self,
        label: impl Into<String>,
        priority: Option<u64>,
        deps: Vec<Dep>,
        body: impl FnOnce() + Send + 'static,
    ) -> usize {
        self.nodes.push(GraphNode {
            label: label.into(),
            priority,
            deps,
            body: Box::new(body),
        });
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Runtime {
    /// Submits every node of `graph` in creation order, under one
    /// acquisition of the scheduler lock. Dependencies are resolved by the
    /// usual OmpSs rules over the nodes' declared slots; nodes whose slots
    /// never conflict run concurrently.
    pub fn spawn_graph(&self, graph: TaskGraph) {
        self.submit(
            graph
                .nodes
                .into_iter()
                .map(|n| (n.label, n.priority, n.deps, TaskBody::Once(n.body))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn slot_arena_mints_unique_handles() {
        let mut arena = SlotArena::new();
        let a = arena.mint();
        let b = arena.mint();
        assert_ne!(a, b);
        assert_eq!(arena.minted(), &[a, b]);
        assert_eq!(a.dep_in().handle, a);
        assert!(a.dep_out().access.writes());
    }

    #[test]
    fn slot_flow_dependencies_order_a_chain() {
        // writer -> inout -> reader over one slot must run in order even
        // with many workers racing.
        let rt = Runtime::new(4);
        let mut slots = SlotArena::new();
        let s = slots.mint();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut graph = TaskGraph::new();
        for (i, dep) in [s.dep_out(), s.dep_inout(), s.dep_in()].into_iter().enumerate() {
            let log = Arc::clone(&log);
            graph.node(format!("n{i}"), None, vec![dep], move || {
                log.lock().unwrap().push(i);
            });
        }
        rt.spawn_graph(graph);
        rt.taskwait();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        rt.shutdown();
    }

    #[test]
    fn independent_slots_do_not_serialise() {
        let rt = Runtime::new(2);
        let mut slots = SlotArena::new();
        let done = Arc::new(AtomicUsize::new(0));
        let mut graph = TaskGraph::new();
        for i in 0..8 {
            let s = slots.mint();
            let done = Arc::clone(&done);
            graph.node(format!("t{i}"), Some(i as u64), vec![s.dep_inout()], move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(graph.len(), 8);
        assert!(!graph.is_empty());
        rt.spawn_graph(graph);
        rt.taskwait();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        rt.shutdown();
    }

    #[test]
    fn anti_dependency_orders_writer_after_readers() {
        // Two readers then a writer on the same slot: the writer must wait
        // for both reads (the `out` anti-dependency rule).
        let rt = Runtime::new(4);
        let mut slots = SlotArena::new();
        let s = slots.mint();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut graph = TaskGraph::new();
        for i in 0..2 {
            let log = Arc::clone(&log);
            graph.node(format!("read{i}"), None, vec![s.dep_in()], move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                log.lock().unwrap().push("read");
            });
        }
        let log2 = Arc::clone(&log);
        graph.node("write", None, vec![s.dep_out()], move || {
            log2.lock().unwrap().push("write");
        });
        rt.spawn_graph(graph);
        rt.taskwait();
        assert_eq!(*log.lock().unwrap(), vec!["read", "read", "write"]);
        rt.shutdown();
    }
}
